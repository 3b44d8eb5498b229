#!/usr/bin/env python
"""Stretch cluster: one region goes dark, and WAN bytes become the bill.

A 12-host cluster dealt across three regions loses one region — every
host in it, picked deterministically from the seed — for fifteen
simulated minutes, then the region returns and the cluster rebuilds its
stale shards.  The same seeded outage runs twice:

  naive  — recovery ignores geography: each PG's first acting OSD
           decodes, pulling helper chunks across the WAN wherever it
           happens to sit.
  aware  — the plan-aware primary election weighs each candidate
           region's cross-WAN pulls and pushes and decodes where the
           helpers already are.

Both runs move the same objects through the same Clay(4,2,d=5) code and
converge to the same healthy cluster; only the *routing* of repair
bytes differs — which is exactly the number the egress ledger meters in
dollars.  Each variant also runs twice at the same seed and must digest
byte-identically: geo recovery lives inside the deterministic
simulation contract.

Run:  python examples/stretch_cluster.py
      python examples/stretch_cluster.py --objects 24 --seed 11
"""

import argparse

from repro.core import ExperimentProfile, FaultSpec
from repro.geo import run_stretch_experiment
from repro.workload import Workload

MB = 1024 * 1024


def stretch_profile() -> ExperimentProfile:
    return ExperimentProfile(
        name="stretch-cluster",
        ec_plugin="clay",
        ec_params={"k": 4, "m": 2, "d": 5},
        num_hosts=12,
        num_regions=3,
        pg_num=32,
        stripe_unit=1 * MB,
    )


def run_outage(args, locality_aware: bool):
    return run_stretch_experiment(
        stretch_profile(),
        Workload(num_objects=args.objects, object_size=8 * MB),
        [FaultSpec(level="region_outage")],
        seed=args.seed,
        fault_duration=900.0,
        locality_aware=locality_aware,
    )


def report(label: str, out) -> None:
    print(f"  {label}:")
    print(
        f"    cross-region repair: {out.cross_region_repair_bytes / MB:8.1f} MB"
        f"  ({out.cross_region_pulls} pulls, {out.cross_region_pushes} pushes)"
    )
    print(f"    WAN transfers:       {out.wan_cross_region_transfers:8d}")
    print(f"    egress cost:         ${out.egress_cost:8.4f}")
    print(f"    objects recovered:   {out.objects_recovered:8d}")
    print(f"    digest:              {out.digest()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print("=== Region outage, restored after 900s, rebuilt to health ===")
    results = {}
    for label, aware in (("naive", False), ("aware", True)):
        first = run_outage(args, aware)
        again = run_outage(args, aware)
        assert first.digest() == again.digest(), (
            f"{label}: same-seed outage runs diverged"
        )
        results[label] = first
        report(label, first)
        print("    [determinism] two same-seed runs are byte-identical")

    naive, aware = results["naive"], results["aware"]
    assert aware.objects_recovered == naive.objects_recovered > 0
    assert aware.cross_region_repair_bytes < naive.cross_region_repair_bytes
    assert aware.egress_cost < naive.egress_cost

    saved = naive.cross_region_repair_bytes - aware.cross_region_repair_bytes
    ratio = naive.cross_region_repair_bytes / aware.cross_region_repair_bytes
    print(
        f"\n  -> locality-aware primaries moved {saved / MB:.1f} MB fewer"
        f" bytes over the WAN ({ratio:.2f}x) and cut the egress bill"
        f" ${naive.egress_cost - aware.egress_cost:.4f} for the same rebuild:"
        "\n     the repair plan decodes where the helpers are, instead of"
        "\n     hauling full reads into the recovering region."
    )


if __name__ == "__main__":
    main()
