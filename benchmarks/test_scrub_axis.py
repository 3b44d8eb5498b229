"""Scrub axis: detection latency vs scrub interval and checksum granularity.

A new configuration axis beyond the paper's §4 panels: silent corruption
is only found when a deep scrub touches the damaged PG, so the scrub
interval directly sets the window of exposure, while the checksum block
size trades onode metadata against repair-read granularity.  The sweep
runs every code family (RS, Clay, LRC, SHEC) over interval x csum-block
and records the full detect-repair cycle.
"""

from conftest import KB, emit

from repro.analysis import render_table
from repro.core import ExperimentProfile, FaultSpec, run_experiment
from repro.cluster import CephConfig
from repro.workload import Workload

CODES = [
    ("rs", "jerasure", {"k": 4, "m": 2}),
    ("clay", "clay", {"k": 4, "m": 2}),
    ("lrc", "lrc", {"k": 4, "l": 2, "r": 2}),
    ("shec", "shec", {"k": 4, "m": 2, "l": 2}),
]
INTERVALS = [60.0, 240.0, 960.0]
CSUM_BLOCKS = [4 * KB, 64 * KB]


def scrub_profile(label, plugin, params, interval, csum_block):
    return ExperimentProfile(
        name=f"{label}/scrub={interval:.0f}s/csum={csum_block // KB}KB",
        ec_plugin=plugin,
        ec_params=dict(params),
        num_hosts=10,
        pg_num=16,
        stripe_unit=64 * KB,
        ceph=CephConfig(mon_osd_down_out_interval=30.0),
        scrub_interval=interval,
        csum_block_size=csum_block,
        integrity_data_plane=True,
    )


def run_axis():
    workload = Workload(num_objects=12, object_size=256 * KB)
    cells = {}
    for label, plugin, params in CODES:
        for interval in INTERVALS:
            for csum_block in CSUM_BLOCKS:
                profile = scrub_profile(label, plugin, params, interval, csum_block)
                outcome = run_experiment(
                    profile,
                    workload,
                    # SHEC only guarantees single-failure recovery, so the
                    # comparable corruption load across codes is one chunk.
                    [FaultSpec(level="corrupt", count=1, corruption="bit_rot")],
                    seed=7,
                    warmup=30.0,
                    settle_time=60_000.0,
                )
                cells[(label, interval, csum_block)] = outcome
    return cells


def test_scrub_axis(benchmark, capsys):
    cells = benchmark.pedantic(run_axis, rounds=1, iterations=1)

    rows = []
    for (label, interval, csum_block), outcome in sorted(cells.items()):
        timeline = outcome.scrub_timeline
        stats = outcome.scrub_stats
        rows.append(
            [
                label,
                f"{interval:.0f}s",
                f"{csum_block // KB}KB",
                stats.errors_detected,
                stats.chunks_repaired,
                f"{timeline.detection_period:.0f}s",
                f"{timeline.total_cycle:.1f}s",
                f"{stats.repair_bytes_read / KB:.0f}KB",
            ]
        )
    table = render_table(
        "Scrub axis: interval x csum block x code (1 bit-rot chunk)",
        ["code", "scrub every", "csum block", "detected", "repaired",
         "detect after", "full cycle", "repair reads"],
        rows,
    )
    emit(capsys, "scrub_axis", table)

    # 100% detection and repair in every cell, for every code family.
    for outcome in cells.values():
        assert outcome.scrub_stats.errors_detected == 1
        assert outcome.scrub_stats.chunks_repaired == 1

    # Shape: the exposure window scales with the scrub interval (RS, Clay).
    for label in ("rs", "clay"):
        for csum_block in CSUM_BLOCKS:
            detect = [
                cells[(label, interval, csum_block)].scrub_timeline.detection_period
                for interval in INTERVALS
            ]
            assert detect[0] < detect[-1]
            assert all(a <= b for a, b in zip(detect, detect[1:]))

    # Shape: finer checksum blocks never read more during repair — the
    # damaged region is bounded by the bad blocks, not the whole chunk.
    for label, _, _ in CODES:
        for interval in INTERVALS:
            fine = cells[(label, interval, 4 * KB)].scrub_stats.repair_bytes_read
            coarse = cells[(label, interval, 64 * KB)].scrub_stats.repair_bytes_read
            assert fine <= coarse
