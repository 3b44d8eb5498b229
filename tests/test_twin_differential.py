"""Differential validation: the analytical twin against the DES.

Tier-1 runs the full default grid — thirteen cases spanning the
benchmark axes (cache schemes, pg counts, stripe units, failure modes,
device classes, a gray case) — through both evaluators and asserts the
documented error envelope: WA exact, total recovery within 5%, the EC
recovery period within 30%, and Spearman rank agreement >= 0.9.  The
same harness renders the checked-in calibration report under
``benchmarks/results/`` (see ``benchmarks/test_twin_validation.py``).
"""

import math

import pytest

from repro.core.fault_injector import FaultSpec
from repro.core.profile import PAPER_RS_PROFILE, ExperimentProfile
from repro.tuner import (
    CategoricalAxis,
    EcVariantAxis,
    Evaluator,
    Fidelity,
    SuccessiveHalving,
    TuningSpace,
    pool_width_fits,
    stripe_unit_divides,
    tune,
)
from repro.twin import (
    DEFAULT_BOUNDS,
    SPEARMAN_THRESHOLD,
    default_grid,
    predict,
    render_report,
    run_differential,
    spearman,
)
from repro.workload.generator import Workload

MB = 1024 * 1024

#: Canonical digest of the twin's prediction for the paper's RS profile
#: at the differential grid's scale.  The twin consumes no wall clock
#: and no RNG, so this is stable across hosts, runs, and Python builds;
#: it moves only when the model (or a calibration constant) changes.
PINNED_RS_DIGEST = (
    "3f07c563f9453a4d243c80912e90522597f196f26ff1f1605ce9397c37dcaca7"
)


@pytest.fixture(scope="module")
def report():
    return run_differential()


def test_differential_grid_passes_documented_bounds(report):
    rendered = render_report(report)
    assert report.passed, rendered
    assert set(report.summaries) == set(DEFAULT_BOUNDS)
    for summary in report.summaries.values():
        assert summary.within_bound, rendered
        assert summary.max_rel_error <= DEFAULT_BOUNDS[summary.metric]
    assert (
        report.summaries["recovery_time"].rank_spearman >= SPEARMAN_THRESHOLD
    )
    assert "PASS" in rendered


def test_differential_grid_covers_benchmark_axes():
    cases = {case.name for case in default_grid()}
    # fig2a cache schemes, fig2b pg counts, fig2c stripe units,
    # fig2d failure modes, table3 codes, gray + HDD device axes.
    assert {"rs-kv-cache", "rs-data-cache"} <= cases
    assert {"rs-pg16", "rs-pg64"} <= cases
    assert {"rs-su-256k", "rs-su-1m"} <= cases
    assert {"rs-device-fault", "rs-two-devices"} <= cases
    assert {"clay-baseline", "lrc-8-2-2"} <= cases
    assert {"rs-hdd", "rs-gray-slow-disk"} <= cases


def test_wa_is_closed_form_exact(report):
    for case in report.results:
        assert case.rel_error("wa_actual") == 0.0, case.name


def test_twin_digest_is_pinned_and_rerun_identical():
    workload = Workload(num_objects=192, object_size=8 * MB)
    faults = [FaultSpec(level="node", count=1)]

    def run():
        return predict(PAPER_RS_PROFILE, workload, faults)

    first, second = run(), run()
    assert first.digest_json() == second.digest_json()
    assert first.digest() == PINNED_RS_DIGEST


def test_spearman_rank_basics():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)
    # Midranks: ties share their average rank instead of biasing order.
    assert spearman([1, 1, 2], [5, 5, 9]) == pytest.approx(1.0)
    assert spearman([], []) == 0.0
    assert spearman([3.0, 3.0], [1.0, 2.0]) == 0.0
    with pytest.raises(ValueError):
        spearman([1], [1, 2])


def test_relative_error_handles_zero_truth(report):
    # A gray case predicts no recovery; 0-vs-0 must read as exact, not
    # undefined, and a nonzero prediction against zero truth as inf.
    gray = next(c for c in report.results if c.name == "rs-gray-slow-disk")
    assert gray.rel_error("recovery_time") == 0.0
    assert not math.isinf(gray.rel_error("wa_actual"))


# -- tuner equivalence (the acceptance criterion) ---------------------------------

RS = ("jerasure", (("k", 9), ("m", 3)))
CLAY = ("clay", (("d", 11), ("k", 9), ("m", 3)))


def acceptance_space():
    # The same reference grid as benchmarks/test_tuner_budget.py: the
    # PR 3 acceptance surface the halving strategy was proven on.
    return TuningSpace(
        ExperimentProfile(name="tuner-bench", num_hosts=15),
        axes=[
            CategoricalAxis("pg_num", (16, 64, 256)),
            CategoricalAxis("cache_scheme", ("kv-optimized", "autotune")),
            CategoricalAxis("stripe_unit", (1 * MB, 4 * MB)),
            EcVariantAxis(variants=(RS, CLAY)),
        ],
        constraints=[pool_width_fits(), stripe_unit_divides(8 * MB)],
    )


def test_twin_backed_halving_matches_des_winner_at_half_budget():
    space = acceptance_space()
    full = Fidelity(96, label="full")
    budget = len(space.enumerate()) * full.cost

    des_only = tune(
        space,
        SuccessiveHalving(
            [Fidelity(8, label="screen"), Fidelity(24, label="mid"), full],
            eta=4,
        ),
        seed=42,
        object_size=8 * MB,
        budget=budget,
    )
    twin_backed = tune(
        space,
        SuccessiveHalving(
            [
                Fidelity(8, label="screen", backend="twin"),
                Fidelity(24, label="mid", backend="twin"),
                full,
            ],
            eta=4,
        ),
        seed=42,
        object_size=8 * MB,
        budget=budget,
    )
    assert (
        twin_backed.recommendation.chosen.signature
        == des_only.recommendation.chosen.signature
    )
    # Twin rungs are free, so the DES budget only pays for finalists:
    # strictly no more than half the DES-only object-run spend.
    assert twin_backed.spent <= des_only.spent // 2
    assert twin_backed.spent > 0


def test_twin_fidelity_cost_and_artifact_roundtrip():
    twin_rung = Fidelity(8, label="screen", backend="twin")
    assert twin_rung.cost == 0
    assert "backend=twin" in twin_rung.key()
    assert Fidelity.from_dict(twin_rung.to_dict()) == twin_rung
    des_rung = Fidelity(8, label="screen")
    # DES serialisation is unchanged: pre-twin artifacts stay readable
    # and byte-identical.
    assert "backend" not in des_rung.to_dict()
    assert "backend" not in des_rung.key()
    assert Fidelity.from_dict({"objects": 8, "runs": 1}) == Fidelity(8)
    with pytest.raises(ValueError):
        Fidelity(8, backend="surrogate")


def test_twin_rung_records_probe_predictions():
    from repro.tuner import ReadProbe, TenantProbe

    space = acceptance_space()
    point = space.enumerate()[0]
    evaluator = Evaluator(
        space,
        object_size=8 * MB,
        base_seed=42,
        probe=ReadProbe(),
        tenant_probe=TenantProbe(),
    )
    [measurement] = evaluator.evaluate_many(
        [point], Fidelity(8, backend="twin")
    )
    assert measurement.cost == 0
    assert evaluator.spent == 0
    assert measurement.degraded_p99 is not None and measurement.degraded_p99 > 0
    assert (
        measurement.tenant_slo_p99 is not None
        and measurement.tenant_slo_p99 >= measurement.degraded_p99
    )
