"""Evaluator guarantees: memoisation, budget ceiling, serial==parallel.

The counting stub lives at module level so worker processes can pickle
it; its call counter is only meaningful with ``workers=1`` (children get
their own copy), which is exactly what the caching tests use.  The
parallel tests assert on the artifacts instead — the property that
matters is byte-identity of what a tuning run *persists*.
"""

import json

import pytest

from repro.core import ExperimentProfile
from repro.core.sweep import SweepResult
from repro.tuner import (
    BudgetExhaustedError,
    CategoricalAxis,
    EcVariantAxis,
    Evaluator,
    Fidelity,
    SuccessiveHalving,
    TuningSpace,
    tune,
)

MB = 1024 * 1024

RS = ("jerasure", (("k", 9), ("m", 3)))
CLAY = ("clay", (("d", 11), ("k", 9), ("m", 3)))

CALLS = []


def stub_cell(profile, workload, faults, runs, seed):
    """Deterministic synthetic simulator; records each invocation."""
    CALLS.append((profile.name, workload.num_objects, runs, seed))
    recovery = 1000.0 / (profile.pg_num ** 0.5)
    if profile.ec_plugin == "clay":
        recovery *= 0.8
    if profile.cache_scheme == "kv-optimized":
        recovery *= 1.1
    recovery *= 1.0 + 0.05 * (workload.num_objects % 5)
    return SweepResult(
        label=profile.name,
        settings={},
        recovery_time=recovery,
        checking_fraction=0.5,
        wa_actual=1.4 if profile.ec_plugin == "jerasure" else 1.6,
        runs=runs,
    )


def make_space():
    return TuningSpace(
        ExperimentProfile(name="eval-test"),
        axes=[
            CategoricalAxis("pg_num", (16, 64, 256)),
            CategoricalAxis("cache_scheme", ("kv-optimized", "autotune")),
            EcVariantAxis(variants=(RS, CLAY)),
        ],
    )


@pytest.fixture(autouse=True)
def clear_calls():
    CALLS.clear()


def make_evaluator(**kwargs):
    kwargs.setdefault("run_cell_fn", stub_cell)
    return Evaluator(make_space(), **kwargs)


# -- memoisation ----------------------------------------------------------------


def test_identical_signatures_never_simulated_twice():
    evaluator = make_evaluator()
    space = evaluator.space
    point = {"pg_num": 16, "cache_scheme": "autotune", "ec": RS}
    same_point_reordered = {"ec": RS, "cache_scheme": "autotune", "pg_num": 16}
    first = evaluator.evaluate_many([point], Fidelity(8))[0]
    second = evaluator.evaluate_many([same_point_reordered], Fidelity(8))[0]
    assert len(CALLS) == 1
    assert first == second
    assert evaluator.simulations == 1
    # A batch with duplicates still simulates each signature once.
    evaluator.evaluate_many([point, same_point_reordered, point], Fidelity(8))
    assert len(CALLS) == 1
    # A different fidelity is a different cache entry.
    evaluator.evaluate_many([point], Fidelity(16))
    assert len(CALLS) == 2
    assert space.signature(point) == first.signature


def test_cache_hits_charge_nothing():
    evaluator = make_evaluator(budget=16)
    point = {"pg_num": 16, "cache_scheme": "autotune", "ec": RS}
    evaluator.evaluate_many([point], Fidelity(16))
    assert evaluator.spent == 16
    assert evaluator.remaining == 0
    # Budget is exhausted, but the cached point still resolves.
    again = evaluator.evaluate_many([point], Fidelity(16))[0]
    assert again.recovery_time > 0
    assert evaluator.spent == 16


def test_budget_is_checked_before_simulating():
    evaluator = make_evaluator(budget=10)
    with pytest.raises(BudgetExhaustedError, match="object-runs"):
        evaluator.evaluate_many(
            [{"pg_num": 16, "cache_scheme": "autotune", "ec": RS}], Fidelity(11)
        )
    assert CALLS == []
    assert evaluator.spent == 0


def test_batch_budget_is_atomic():
    evaluator = make_evaluator(budget=20)
    points = [
        {"pg_num": pg, "cache_scheme": "autotune", "ec": RS}
        for pg in (16, 64, 256)
    ]
    with pytest.raises(BudgetExhaustedError):
        evaluator.evaluate_many(points, Fidelity(8))  # 24 > 20
    assert evaluator.spent == 0 and CALLS == []


def test_each_result_is_reported_before_the_next_cell_runs():
    # Progress lines and checkpoints follow each cell, not the batch.
    events = []

    def logging_cell(profile, *args):
        events.append(("run", profile.pg_num))
        return stub_cell(profile, *args)

    evaluator = make_evaluator(
        run_cell_fn=logging_cell,
        on_result=lambda m: events.append(("result", m.settings["pg_num"])),
    )
    evaluator.evaluate_many(
        [{"pg_num": pg, "cache_scheme": "autotune", "ec": RS}
         for pg in (16, 64, 256)],
        Fidelity(8),
    )
    assert events == [
        (kind, pg) for pg in (16, 64, 256) for kind in ("run", "result")
    ]


def test_seed_cache_resumes_without_resimulating():
    evaluator = make_evaluator()
    point = {"pg_num": 64, "cache_scheme": "autotune", "ec": CLAY}
    measurement = evaluator.evaluate_many([point], Fidelity(8))[0]
    fresh = make_evaluator()
    fresh.seed_cache([measurement])
    assert fresh.evaluate_many([point], Fidelity(8))[0] == measurement
    assert fresh.simulations == 0
    assert CALLS == [CALLS[0]]


# -- determinism ----------------------------------------------------------------


def test_measurements_identical_regardless_of_evaluation_order():
    space = make_space()
    point_a = {"pg_num": 16, "cache_scheme": "autotune", "ec": RS}
    point_b = {"pg_num": 256, "cache_scheme": "kv-optimized", "ec": CLAY}
    forward = Evaluator(space, run_cell_fn=stub_cell, base_seed=3)
    backward = Evaluator(space, run_cell_fn=stub_cell, base_seed=3)
    fa = forward.evaluate_many([point_a, point_b], Fidelity(8))
    bb = backward.evaluate_many([point_b, point_a], Fidelity(8))
    assert fa[0] == bb[1] and fa[1] == bb[0]


def _tune_artifact(tmp_path, workers, name):
    path = tmp_path / name
    outcome = tune(
        make_space(),
        SuccessiveHalving([Fidelity(4, label="screen"),
                           Fidelity(32, label="full")], eta=4),
        seed=11,
        budget=10_000,
        workers=workers,
        run_cell_fn=stub_cell,
        artifact_path=path,
    )
    return path.read_text(), outcome


def test_workers_produce_byte_identical_artifacts(tmp_path):
    serial_text, serial = _tune_artifact(tmp_path, 1, "serial.json")
    parallel_text, parallel = _tune_artifact(tmp_path, 4, "parallel.json")
    assert serial_text == parallel_text
    assert serial.spent == parallel.spent
    assert serial.recommendation.chosen == parallel.recommendation.chosen
    blob = json.loads(serial_text)
    assert blob["complete"] is True
    assert len(blob["evaluations"]) == serial.simulations


# -- validation -----------------------------------------------------------------


def test_evaluator_validates_arguments():
    with pytest.raises(ValueError, match="workers"):
        make_evaluator(workers=0)
    with pytest.raises(ValueError, match="budget"):
        make_evaluator(budget=0)
    with pytest.raises(ValueError):
        Fidelity(0)
    with pytest.raises(ValueError):
        Fidelity(1, runs=0)


def test_fidelity_cost_and_key():
    fidelity = Fidelity(30, runs=3, label="full")
    assert fidelity.cost == 90
    # The label is cosmetic: it must not split the cache.
    assert fidelity.key() == Fidelity(30, runs=3, label="x").key()
