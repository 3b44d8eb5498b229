#!/usr/bin/env python
"""Silent corruption: bit rot, torn writes, misdirected writes.

A new fault axis beyond crashes: chunks are damaged *silently* — the OSD
stays up and nothing fails loudly.  Write-time crc32c block checksums
plus periodic deep scrub are the only line of defence.  For each
corruption model this example injects two bad chunks into one stripe
(the white-box guard refuses more than m), lets the deep-scrub state
machine detect them, EC-decode-repair them bit-identically, and walks
the cluster back HEALTH_ERR -> HEALTH_WARN -> HEALTH_OK.

Run:  python examples/silent_corruption.py
      python examples/silent_corruption.py --scrub-interval 120
"""

import argparse

from repro.cluster import CephConfig
from repro.core import (
    CorruptionModel,
    ExperimentProfile,
    FaultSpec,
    format_table,
    run_experiment,
)
from repro.workload import Workload

KB = 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=12)
    parser.add_argument("--scrub-interval", type=float, default=60.0)
    parser.add_argument("--corrupt-chunks", type=int, default=2)
    args = parser.parse_args()

    profile = ExperimentProfile(
        name="silent-corruption",
        ec_params={"k": 4, "m": 2},
        num_hosts=8,
        pg_num=16,
        stripe_unit=64 * KB,
        ceph=CephConfig(mon_osd_down_out_interval=30.0),
        scrub_interval=args.scrub_interval,
        integrity_data_plane=True,  # real bytes: encode, crc32c, decode-repair
    )
    workload = Workload(num_objects=args.objects, object_size=256 * KB)

    rows = []
    last = None
    for model in CorruptionModel.ALL:
        outcome = run_experiment(
            profile,
            workload,
            [FaultSpec(level="corrupt", count=args.corrupt_chunks,
                       corruption=model)],
            seed=7,
            warmup=30.0,
            settle_time=20_000.0,
        )
        timeline = outcome.scrub_timeline
        stats = outcome.scrub_stats
        rows.append(
            [
                model,
                stats.errors_detected,
                stats.chunks_repaired,
                f"{timeline.detection_period:.1f}s",
                f"{timeline.repair_period * 1000:.1f}ms",
                f"{timeline.total_cycle:.1f}s",
            ]
        )
        last = (model, timeline)

    print(
        format_table(
            "Silent corruption: detection and repair per model "
            f"(scrub every {args.scrub_interval:.0f}s)",
            ["model", "detected", "repaired", "detect after",
             "repair time", "full cycle"],
            rows,
        )
    )

    model, timeline = last
    print(f"\nHealth state machine for {model!r} (relative times):")
    for offset, label in timeline.annotations():
        print(f"  t+{offset:8.1f}s  {label}")
    print(
        "\nDetection dominates the cycle "
        f"({100 * timeline.detection_fraction:.1f}% here): a corruption sits"
        "\nundetected until the next deep scrub touches its PG, which is why"
        "\nthe scrub interval is a first-class configuration axis."
    )


if __name__ == "__main__":
    main()
