"""Sweep-rows pin: the grid strategy reproduces the old sweep rows.

``RECORDED_ROWS`` were recorded from the grid runner ``ecfault sweep``
used before the sweep became a :class:`~repro.tuner.GridSearch` over a
:class:`~repro.tuner.TuningSpace`: pg_num 4 and 8 × cache scheme
autotune and kv-optimized × RS(12,9) and Clay(12,9,11), 20 × 8 MB
objects, one node fault, two runs from base seed 3.  Every grid cell
must still reach ``run_cell`` with the same profile name and seeds and
measure the same floats, whether the evaluator runs serially or in a
process pool.
"""

import json

from repro.cluster.osd import CephConfig
from repro.core import ExperimentProfile
from repro.core.sweep import SweepResult, run_cell
from repro.tuner import (
    CategoricalAxis,
    EcVariantAxis,
    Fidelity,
    GridSearch,
    TuningSpace,
    tune,
)
from repro.workload import Workload

MB = 1024 * 1024

RS = ("jerasure", (("k", 9), ("m", 3)))
CLAY = ("clay", (("d", 11), ("k", 9), ("m", 3)))

SPACE = TuningSpace(
    ExperimentProfile(
        name="base", pg_num=16, num_hosts=15,
        ceph=CephConfig(mon_osd_down_out_interval=30.0),
    ),
    axes=[
        CategoricalAxis("pg_num", (4, 8)),
        CategoricalAxis("cache_scheme", ("autotune", "kv-optimized")),
        EcVariantAxis(variants=(RS, CLAY)),
    ],
)
GRID = GridSearch(Fidelity(20, runs=2))
SEED = 3


def _row(plugin, params, cache_scheme, pg_num, recovery, checking, wa):
    return SweepResult(
        label=f"{plugin}/cache_scheme={cache_scheme}/pg_num={pg_num}",
        settings={
            "ec_plugin": plugin, "ec_params": params, "pg_num": pg_num,
            "stripe_unit": 4 * MB, "cache_scheme": cache_scheme,
            "failure_domain": "host",
        },
        recovery_time=recovery,
        checking_fraction=checking,
        wa_actual=wa,
        runs=2,
    )


_RS = ("jerasure", {"k": 9, "m": 3})
_CLAY = ("clay", {"k": 9, "m": 3, "d": 11})

RECORDED_ROWS = [
    _row(*_RS, "autotune", 4,
         34.304172377062415, 0.8918271894627472, 6.000160217285156),
    _row(*_RS, "autotune", 8,
         34.34138166501211, 0.8903427394501988, 6.000160217285156),
    _row(*_RS, "kv-optimized", 4,
         34.481069059671945, 0.887291880998097, 6.000160217285156),
    _row(*_RS, "kv-optimized", 8,
         34.57029096221846, 0.8842330300965809, 6.000160217285156),
    _row(*_CLAY, "autotune", 4,
         34.065492234411, 0.8986537376524188, 6.000160217285156),
    _row(*_CLAY, "autotune", 8,
         34.37678654060918, 0.8892129798545543, 6.000160217285156),
    _row(*_CLAY, "kv-optimized", 4,
         34.373754064829, 0.8902891599142844, 6.000160217285156),
    _row(*_CLAY, "kv-optimized", 8,
         34.62901766702019, 0.8825153123235265, 6.000160217285156),
]


def _by_settings(rows):
    return {json.dumps(row.settings, sort_keys=True): row for row in rows}


def test_grid_search_reproduces_the_recorded_rows():
    rows = []

    def recording_run_cell(*args):
        rows.append(run_cell(*args))
        return rows[-1]

    outcome = tune(
        SPACE, GRID, seed=SEED, object_size=8 * MB,
        run_cell_fn=recording_run_cell,
    )
    recorded = _by_settings(RECORDED_ROWS)
    # Each cell's run_cell call: same profile name, seeds and row.
    assert _by_settings(rows) == recorded
    assert len(rows) == len(outcome.evaluations) == len(recorded)
    for measurement in outcome.evaluations:
        row = recorded[measurement.signature]
        assert measurement.settings == row.settings
        assert (
            measurement.recovery_time, measurement.checking_fraction,
            measurement.wa_actual, measurement.fidelity.runs,
        ) == (row.recovery_time, row.checking_fraction, row.wa_actual,
              row.runs)


def test_parallel_grid_search_writes_the_same_report(tmp_path):
    reports = []
    for workers in (1, 2):
        path = tmp_path / f"workers-{workers}.json"
        tune(SPACE, GRID, seed=SEED, object_size=8 * MB, workers=workers,
             artifact_path=path)
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    recorded = _by_settings(RECORDED_ROWS)
    evaluations = json.loads(reports[1])["evaluations"]
    assert sorted(
        (json.dumps(m["settings"], sort_keys=True), m["recovery_time"])
        for m in evaluations
    ) == sorted((key, row.recovery_time) for key, row in recorded.items())


def test_run_cell_without_faults_measures_wa_only():
    profile = SPACE.to_profile({"pg_num": 4, "cache_scheme": "autotune"})
    row = run_cell(profile, Workload(num_objects=10, object_size=8 * MB),
                   [], 1, 0)
    assert row.recovery_time == 0.0
    assert row.checking_fraction == 0.0
    assert row.wa_actual > 1.0
