#!/usr/bin/env python
"""Auto-tuning: budgeted configuration search instead of a full sweep.

The paper's §6 suggests its quantitative analysis "could potentially help
create more intelligent mechanisms for tuning EC-based DSS automatically".
Earlier versions of this example swept the whole pg_num x cache x code
grid exhaustively; this one runs the tuner's successive-halving strategy
over the same axes — screening every configuration at low fidelity and
promoting only the survivors to full fidelity — then reports how much of
the exhaustive budget that saved:

1. define the space: pg_num x cache scheme for RS(12,9) and Clay(12,9,11);
2. successive halving under a hard object-run budget;
3. rank the configuration axes by impact (from the tuner's own
   measurements) and recommend the best configuration under a
   write-amplification budget;
4. cross-check pg_num against the autoscaler's advice.

Run:  python examples/auto_tuning.py
      python examples/auto_tuning.py --objects 1000 --verify-exhaustive
"""

import argparse

from repro.analysis import rank_axes
from repro.cluster import autoscale_advice
from repro.core import ExperimentProfile, FaultSpec, format_table
from repro.tuner import (
    CategoricalAxis,
    EcVariantAxis,
    Evaluator,
    Fidelity,
    GridSearch,
    SuccessiveHalving,
    TuningSpace,
    WRITE_AMPLIFICATION,
    RECOVERY_TIME,
    pool_width_fits,
    tune,
)

MB = 1024 * 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=500,
                        help="full-fidelity object count")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--wa-budget", type=float, default=1.55)
    parser.add_argument("--verify-exhaustive", action="store_true",
                        help="also evaluate the exhaustive grid and compare")
    args = parser.parse_args()

    base = ExperimentProfile(name="tuning-base", stripe_unit=4 * MB)
    space = TuningSpace(
        base,
        axes=[
            CategoricalAxis("pg_num", (16, 256)),
            CategoricalAxis("cache_scheme", ("kv-optimized", "autotune")),
            EcVariantAxis(variants=(
                ("jerasure", (("k", 9), ("m", 3))),
                ("clay", (("d", 11), ("k", 9), ("m", 3))),
            )),
        ],
        constraints=[pool_width_fits()],
    )
    grid = len(space.enumerate())

    screen = Fidelity(max(1, args.objects // 8), runs=args.runs, label="screen")
    full = Fidelity(args.objects, runs=args.runs, label="full")
    strategy = SuccessiveHalving([screen, full], eta=4)
    exhaustive_cost = grid * full.cost

    print(f"tuning {grid} configurations "
          f"(exhaustive grid would cost {exhaustive_cost} object-runs)...")
    outcome = tune(
        space,
        strategy,
        seed=args.seed,
        object_size=64 * MB,
        faults=[FaultSpec(level="node")],
        budget=exhaustive_cost,  # never worse than the old sweep
        objectives=[RECOVERY_TIME, WRITE_AMPLIFICATION.with_budget(args.wa_budget)],
        on_progress=lambda m, ev: print(
            f"  [{ev.simulations}] {m.label} "
            f"@{m.fidelity.label}: {m.recovery_time:.1f}s"
        ),
    )

    print()
    print(
        format_table(
            "tuner measurements (final fidelity)",
            ["configuration", "recovery (s)", "WA"],
            [
                [m.label, f"{m.recovery_time:.1f}", f"{m.wa_actual:.3f}"]
                for m in sorted(outcome.front, key=lambda m: m.recovery_time)
            ],
        )
    )

    print()
    impacts = rank_axes(
        [m.to_sweep_result() for m in outcome.evaluations],
        ["pg_num", "cache_scheme", "ec_plugin"],
    )
    print(
        format_table(
            "what to tune first (axis impact on recovery time)",
            ["axis", "impact", "best", "worst"],
            [[i.axis, f"{i.impact_percent:.0f}%", i.best, i.worst] for i in impacts],
        )
    )

    print()
    print(outcome.recommendation.summary())
    saved = 1 - outcome.spent / exhaustive_cost
    print(f"\nbudget: spent {outcome.spent} of {exhaustive_cost} object-runs "
          f"the exhaustive grid needs — saved {saved * 100:.0f}% "
          f"({outcome.simulations} simulations for {grid} configurations)")

    if args.verify_exhaustive:
        print("\nverifying against the exhaustive grid...")
        results = GridSearch(full).search(
            space,
            Evaluator(space, object_size=64 * MB,
                      faults=[FaultSpec(level="node")], base_seed=args.seed),
        )
        exhaustive_best = min(
            (m for m in results if m.wa_actual <= args.wa_budget),
            key=lambda m: m.recovery_time,
            default=min(results, key=lambda m: m.recovery_time),
        )
        chosen = outcome.recommendation.chosen
        print(f"exhaustive best: {exhaustive_best.label} "
              f"({exhaustive_best.recovery_time:.1f}s)")
        print(f"tuner's pick:    {chosen.label} ({chosen.recovery_time:.1f}s)")
        assert chosen.recovery_time <= exhaustive_best.recovery_time * 1.0001, \
            "tuner should match the exhaustive optimum on this grid"
        print("tuner matched the exhaustive recommendation at a fraction "
              "of the cost")

    print()
    osds = base.num_hosts * base.osds_per_host
    for pg_num in (16, 256):
        advice = autoscale_advice(pg_num, osds, 12)
        print(f"autoscaler view of pg_num={pg_num}: {advice.summary()}")


if __name__ == "__main__":
    main()
