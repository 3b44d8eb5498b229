"""Search strategies: unit behaviour on a stub, acceptance on the simulator.

The fast tests drive both strategies against a deterministic synthetic
cell function.  The ``slow``-marked acceptance test runs the real
simulator over the ISSUE's seeded reference grid (pg_num x cache x
stripe_unit x {RS, Clay}) and pins the headline claim: successive
halving lands within 5% of the exhaustively-measured optimum while
spending at most 25% of the full-grid budget, deterministically per
seed.
"""

import json

import pytest

from repro.core import ExperimentProfile
from repro.core.fault_injector import FaultSpec
from repro.core.sweep import SweepResult
from repro.tuner import (
    CategoricalAxis,
    EcVariantAxis,
    Evaluator,
    Fidelity,
    GridSearch,
    ReadProbe,
    SuccessiveHalving,
    TuningArtifactError,
    TuningSpace,
    load_tuning_artifact,
    pool_width_fits,
    save_tuning_artifact,
    stripe_unit_divides,
    tune,
)
from repro.tuner.artifact import TuningArtifact

MB = 1024 * 1024

RS = ("jerasure", (("k", 9), ("m", 3)))
CLAY = ("clay", (("d", 11), ("k", 9), ("m", 3)))

CALLS = []


def stub_cell(profile, workload, faults, runs, seed):
    """Synthetic simulator: best at pg_num=256 / clay / autotune."""
    CALLS.append(profile.name)
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


STUB_OPTIMUM = {"pg_num": 256, "cache_scheme": "autotune", "ec": CLAY}


def make_space(base=None):
    return TuningSpace(
        base or ExperimentProfile(name="strategy-test"),
        axes=[
            CategoricalAxis("pg_num", (16, 64, 256)),
            CategoricalAxis("cache_scheme", ("kv-optimized", "autotune")),
            EcVariantAxis(variants=(RS, CLAY)),
        ],
    )


@pytest.fixture(autouse=True)
def clear_calls():
    CALLS.clear()


def make_evaluator(space=None, **kwargs):
    kwargs.setdefault("run_cell_fn", stub_cell)
    return Evaluator(space or make_space(), **kwargs)


def best_of(measured):
    return min(measured, key=lambda m: m.recovery_time)


# -- grid search ----------------------------------------------------------------


def test_grid_search_measures_every_point_or_none():
    space = make_space()
    measured = GridSearch(Fidelity(8)).search(space, make_evaluator())
    assert [m.signature for m in measured] == [
        space.signature(point) for point in space.enumerate()
    ]
    # The grid is one batch: a budget short of it measures nothing.
    assert GridSearch(Fidelity(8)).search(
        space, make_evaluator(budget=8 * 12 - 1)
    ) == []
    assert len(CALLS) == 12


# -- successive halving ---------------------------------------------------------


def test_halving_promotes_the_top_survivors():
    space = make_space()
    evaluator = make_evaluator(space)
    strategy = SuccessiveHalving([Fidelity(4, label="screen"),
                                  Fidelity(16, label="full")], eta=4)
    measured = strategy.search(space, evaluator)
    screen = [m for m in measured if m.fidelity.objects == 4]
    full = [m for m in measured if m.fidelity.objects == 16]
    assert len(screen) == space.size() == 12
    assert len(full) == 3  # ceil(12 / 4)
    # Survivors are exactly the screen rung's best three.
    best_screen = sorted(screen, key=lambda m: (m.recovery_time, m.signature))[:3]
    assert {m.signature for m in full} == {m.signature for m in best_screen}
    assert best_of(full).signature == space.signature(STUB_OPTIMUM)


def test_halving_never_overdraws_the_budget():
    # Affords rung 0 (12 x 4 = 48) but not rung 1 (3 x 16 = 48 > 2).
    evaluator = make_evaluator(budget=50)
    strategy = SuccessiveHalving([Fidelity(4), Fidelity(16)], eta=4)
    measured = strategy.search(make_space(), evaluator)
    assert all(m.fidelity.objects == 4 for m in measured)
    assert evaluator.spent == 48 <= 50


def test_halving_validates_arguments():
    with pytest.raises(ValueError, match="cheapest first"):
        SuccessiveHalving([Fidelity(16), Fidelity(4)])
    with pytest.raises(ValueError, match="eta"):
        SuccessiveHalving([Fidelity(4)], eta=1)
    with pytest.raises(ValueError, match="fidelity"):
        SuccessiveHalving([])


# -- resume ---------------------------------------------------------------------


def test_resume_replays_without_resimulating(tmp_path):
    path = tmp_path / "tuning.json"
    strategy = SuccessiveHalving([Fidelity(4, label="screen"),
                                  Fidelity(16, label="full")], eta=4)
    kwargs = dict(seed=11, budget=10_000, run_cell_fn=stub_cell,
                  artifact_path=path)
    tune(make_space(), strategy, **kwargs)
    complete_text = path.read_text()
    total_calls = len(CALLS)

    # Simulate a run killed after five evaluations: the checkpointed
    # artifact is a prefix of the complete log with no recommendation.
    blob = json.loads(complete_text)
    truncated = TuningArtifact.from_dict(
        dict(
            blob,
            evaluations=blob["evaluations"][:5],
            spent=sum(m["cost"] for m in blob["evaluations"][:5]),
            front=[],
            recommendation=None,
            complete=False,
        )
    )
    save_tuning_artifact(truncated, path)
    # The stale complete report was replaced in place: no temp file stays.
    assert [p.name for p in tmp_path.iterdir()] == ["tuning.json"]

    CALLS.clear()
    outcome = tune(make_space(), strategy, resume=True, **kwargs)
    assert len(CALLS) == total_calls - 5  # replays nothing already paid for
    assert path.read_text() == complete_text  # same final artifact, byte for byte
    assert outcome.artifact.complete
    final = load_tuning_artifact(path)
    assert final.recommendation == json.loads(complete_text)["recommendation"]


def halving(*objects, eta=4):
    return SuccessiveHalving([Fidelity(n) for n in objects], eta=eta)


@pytest.mark.parametrize("first, second", [
    (dict(strategy=halving(4, 16, eta=2)), dict(strategy=halving(4, 16))),
    (dict(strategy=halving(4, 16)), dict(strategy=halving(8, 16))),
    (dict(strategy=GridSearch(Fidelity(4))),
     dict(strategy=GridSearch(Fidelity(8)))),
    (dict(strategy=halving(4, 16)),
     dict(strategy=halving(4, 16), probe=ReadProbe())),
], ids=["eta", "ladder", "grid-fidelity", "probe"])
def test_resume_refuses_different_search_settings(tmp_path, first, second):
    # Each resume would mix in measurements the new settings never ask
    # for, so it is refused before anything runs.
    path = tmp_path / "tuning.json"
    kwargs = dict(seed=11, run_cell_fn=stub_cell, artifact_path=path)
    tune(make_space(), **first, **kwargs)
    written = path.read_text()
    CALLS.clear()
    with pytest.raises(TuningArtifactError, match="search settings"):
        tune(make_space(), **second, resume=True, **kwargs)
    assert CALLS == []
    assert path.read_text() == written


@pytest.mark.parametrize("change, difference", [
    (dict(space=make_space(ExperimentProfile(name="strategy-test",
                                             num_hosts=20))),
     "space.base.num_hosts: 30 in the report, 20 requested"),
    (dict(object_size=16 * MB),
     "search.object_size: 8388608 in the report, 16777216 requested"),
    (dict(faults=[FaultSpec(level="device")]),
     'search.faults: [{"bandwidth_penalty": 1.0, "colocation": "any", '
     '"corruption": "bit_rot", "count": 1, "domain": "host", "factor": 4.0, '
     '"flap_interval": 60.0, "latency": 0.0, "level": "node"'),
], ids=["base-profile", "object-size", "faults"])
def test_resume_refuses_another_base_profile_object_size_or_fault(
    tmp_path, change, difference
):
    # The resumed run would replay measurements of another cluster,
    # object size or fault as its own, so it is refused before anything
    # runs, naming the field with both values.
    path = tmp_path / "tuning.json"
    kwargs = dict(seed=11, run_cell_fn=stub_cell, artifact_path=path)
    tune(make_space(), halving(4, 16), **kwargs)
    written = path.read_text()
    CALLS.clear()
    resumed = {"space": make_space(), **change}
    with pytest.raises(TuningArtifactError) as excinfo:
        tune(strategy=halving(4, 16), resume=True, **resumed, **kwargs)
    assert difference in str(excinfo.value)
    assert CALLS == []
    assert path.read_text() == written


# -- acceptance: the ISSUE's seeded reference grid ------------------------------


@pytest.mark.slow
def test_halving_beats_the_exhaustive_grid_budget_on_reference_grid():
    """Within 5% of the exhaustive optimum at <= 25% of its budget."""
    base = ExperimentProfile(name="ref", num_hosts=15)
    space = TuningSpace(
        base,
        axes=[
            CategoricalAxis("pg_num", (16, 64, 256)),
            CategoricalAxis("cache_scheme", ("kv-optimized", "autotune")),
            CategoricalAxis("stripe_unit", (1 * MB, 4 * MB)),
            EcVariantAxis(variants=(RS, CLAY)),
        ],
        constraints=[pool_width_fits(), stripe_unit_divides(8 * MB)],
    )
    grid = space.enumerate()
    assert len(grid) == 24

    full = Fidelity(96, label="full")
    exhaustive_cost = len(grid) * full.cost  # 2304 object-runs

    # Reference: every cell exhaustively pre-evaluated at full fidelity.
    reference = Evaluator(space, object_size=8 * MB, base_seed=42)
    exhaustive = reference.evaluate_many(grid, full)
    optimum = best_of(exhaustive)

    strategy = SuccessiveHalving(
        [Fidelity(8, label="screen"), Fidelity(24, label="mid"), full], eta=4
    )
    outcomes = [
        tune(
            space,
            strategy,
            seed=42,
            object_size=8 * MB,
            budget=exhaustive_cost // 4,
        )
        for _ in range(2)
    ]
    outcome = outcomes[0]

    assert outcome.spent <= exhaustive_cost // 4
    chosen = outcome.recommendation.chosen
    assert chosen.fidelity.cost == full.cost
    assert chosen.recovery_time <= optimum.recovery_time * 1.05
    # Deterministic per seed: the repeat run traces the same path.
    assert outcomes[1].recommendation.chosen.signature == chosen.signature
    assert outcomes[1].spent == outcome.spent
