"""Run alternating parent/change pairs of the benchmark and summarise them.

    python3 scripts/bench_pairs.py --parent HEAD --claim wall_s:chaos_fuzz \\
        --plan chaos_fuzz:11:10 chaos_fuzz:42:5 paper_cell:11:10 \\
        --out BENCH_<n>.json

Run from the repository root.  The parent commit is ``git archive``d into
a temporary directory; the change is this checkout's working tree.  Each
``--plan`` item ``WORKLOAD:SEED:PAIRS`` runs that many pairs of

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 30 --trace 0

one run at a time, the parent first in even-numbered pairs, then one
traced run per side,

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 10 --trace 1

Every finished run is appended to a JSON-lines log next to the output
(``BENCH_<n>.runs.jsonl``), and runs already in it are not run again, so
an interrupted session resumes where it stopped.  A log written against
another parent commit is refused: delete it to start afresh.

The output holds the ``pairs``, ``end_to_end``, ``claim`` and
``no_regression`` sections of a ``BENCH_<n>.json`` file.  Per metric and
side it gives the median and the quartiles (``statistics.quantiles(n=4,
method='inclusive')``) of the runs; per metric it gives ``change_wins``
(pairs the change won, ties for neither side), ``worse_by`` (the change's
median relative to the parent's in the metric's worse direction, 0 when
better), whether that stays within the ``BENCHMARK.json`` bound, and
whether the runs spread too widely to tell (``unresolved``).  A gain is
claimed for a metric when the change wins at least nine tenths of the
pairs and the medians differ, in its favour, by more than the parent's
interquartile range.  The ``traced`` section gives, per workload and
seed, both sides' values of every per-layer metric that repeats exactly
(all but the host-time ones) and lists the metrics whose values differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Length of every timed run, as BENCHMARK.json's ``run_seconds`` sets it.
SECONDS = 30.0
#: Length of every traced run: untraced rounds for half, then one traced round.
TRACED_SECONDS = 10.0
ORDER = "pair i runs the parent first when i is even"
PROTOCOL = (
    "alternating parent/change pairs, one run at a time; " + ORDER + ". "
    "Quartiles are statistics.quantiles(n=4, method='inclusive') over the "
    "runs of one side. change_wins counts pairs where the change is better "
    "(lower, or higher for a higher-is-better metric); ties count for "
    "neither side. worse_by is the change's median relative to the "
    "parent's in the metric's worse direction (0 when better). A metric is "
    "unresolved when either side's IQR exceeds the bound relative to its "
    "median, unless every change run is better than every parent run."
)
GAIN_RULE = (
    "change wins >= 9/10 of pairs and the medians differ in the change's "
    "favour by more than the parent's IQR"
)
TRACED_RULE = (
    "every per-layer metric but the host-time ones (*.self_share, "
    "sim.host_us_per_event, and *_s other than *_sim_s) repeats exactly; "
    "differ lists those whose parent and change values are not equal"
)
NO_REGRESSION_RULE = (
    "every end-to-end metric on every workload: resolved, change median no "
    "worse than the parent's by more than the BENCHMARK.json bound, no "
    "higher failed_frac median and no more failed operations than the parent"
)


# -- summary math ---------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def side_summary(runs: Sequence[float]) -> Dict[str, Any]:
    q1, median, q3 = quartiles(runs)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(value, 4) for value in runs]}


def _relative(value: float, base: float) -> float:
    """``value / base``, with 0/0 read as 1 (no change)."""
    if base == 0:
        return 1.0 if value == 0 else float("inf")
    return value / base


def _spread(values: Sequence[float]) -> float:
    """The interquartile range of ``values`` relative to their median."""
    q1, median, q3 = quartiles(values)
    return _relative(q3 - q1, abs(median)) if q3 != q1 else 0.0


def compare(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Dict[str, Any]:
    """One metric's parent/change comparison over paired runs."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number (> 0) of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    ties = sum(1 for p, c in zip(parent, change) if p == c)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    ratio = _relative(c_median, p_median)
    worse_by = max(0.0, sign * (ratio - 1.0))
    iqr = p_q3 - p_q1
    # Every change run better than every parent run settles the metric
    # however widely either side spreads.
    if better == "lower":
        separated = max(change) < min(parent)
    else:
        separated = min(change) > max(parent)
    spread = max(_spread(parent), _spread(change))
    return {
        "parent": side_summary(parent),
        "change": side_summary(change),
        "change_wins": f"{wins}/{len(parent)}",
        "ties": ties,
        "change_over_parent_median": round(ratio, 4),
        "parent_iqr": round(iqr, 4),
        "worse_by": round(worse_by, 4),
        "within_bound": worse_by <= bound,
        "unresolved": spread > bound and not separated,
        "gain_rule_met": (wins >= 0.9 * len(parent)
                          and sign * (p_median - c_median) > iqr),
    }


def _operations(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "attempted_per_run": sorted({r["attempted"] for r in records}),
        "failed_total": sum(r["failed"] for r in records),
        "all_correct": all(r["correct"] for r in records),
    }


def summarise_cell(records: Sequence[Dict[str, Any]],
                   metrics: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Every end-to-end metric of one workload at one seed."""
    pairs = sorted({r["pair"] for r in records})
    by_side = {
        side: [next(r for r in records if r["pair"] == i and r["side"] == side)
               for i in pairs]
        for side in ("parent", "change")
    }
    cell: Dict[str, Any] = {
        "pairs": len(pairs),
        "order": ORDER,
        "rounds_per_run": {
            side: [min(r["rounds"] for r in runs), max(r["rounds"] for r in runs)]
            for side, runs in by_side.items()
        },
        "operations": {side: _operations(runs) for side, runs in by_side.items()},
    }
    for metric in metrics:
        name = metric["name"]
        cell[name] = compare(
            [r["metrics"][name] for r in by_side["parent"]],
            [r["metrics"][name] for r in by_side["change"]],
            metric["better"], metric["bound"],
        )
    return cell


def summarise(records: Sequence[Dict[str, Any]], metrics: Sequence[Dict[str, Any]],
              claim: Optional[Tuple[str, str]] = None) -> Dict[str, Any]:
    """The ``pairs``, ``end_to_end``, ``claim`` and ``no_regression`` sections."""
    cells: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    for record in records:
        cells.setdefault((record["workload"], record["seed"]), []).append(record)
    workloads = list(dict.fromkeys(workload for workload, _ in cells))
    seeds = sorted({seed for _, seed in cells})

    end_to_end: Dict[str, Dict[str, Any]] = {}
    for (workload, seed), cell_records in cells.items():
        end_to_end.setdefault(workload, {})[f"seed_{seed}"] = summarise_cell(
            cell_records, metrics)

    pairs: Dict[str, Any] = {}
    for seed in seeds:
        counts = {w: end_to_end[w][f"seed_{seed}"]["pairs"]
                  for w in workloads if f"seed_{seed}" in end_to_end[w]}
        same = len(set(counts.values())) == 1 and len(counts) == len(workloads)
        pairs[f"seed_{seed}"] = next(iter(counts.values())) if same else counts

    worst = (0.0, "")
    unresolved: List[str] = []
    regression_met = True
    for workload, by_seed in end_to_end.items():
        for seed_key, cell in by_seed.items():
            ops = cell["operations"]
            if ops["change"]["failed_total"] > ops["parent"]["failed_total"]:
                regression_met = False
            failed_frac = cell.get("failed_frac")
            if (failed_frac is not None and failed_frac["change"]["median"]
                    > failed_frac["parent"]["median"]):
                regression_met = False
            for metric in metrics:
                where = f"{workload} {seed_key} {metric['name']}"
                result = cell[metric["name"]]
                regression_met = regression_met and result["within_bound"]
                if result["unresolved"]:
                    unresolved.append(where)
                if result["worse_by"] > worst[0]:
                    worst = (result["worse_by"], where)

    summary: Dict[str, Any] = {
        "pairs": pairs,
        "claim": None,
        "no_regression": {"rule": NO_REGRESSION_RULE,
                          "met": regression_met and not unresolved,
                          "largest_worse_by": list(worst),
                          "unresolved": unresolved},
        "end_to_end": end_to_end,
    }
    if claim is not None:
        metric_name, workload = claim
        unit = next(m["unit"] for m in metrics if m["name"] == metric_name)
        section: Dict[str, Any] = {"metric": metric_name, "workload": workload,
                                   "rule": GAIN_RULE}
        medians: Dict[str, Dict[str, float]] = {"parent": {}, "change": {}}
        met = True
        for seed_key, cell in end_to_end[workload].items():
            result = cell[metric_name]
            ops = cell["operations"]
            gain = (result["gain_rule_met"]
                    and ops["change"]["failed_total"] <= ops["parent"]["failed_total"])
            section[seed_key] = {
                key: result[key]
                for key in ("change_wins", "change_over_parent_median", "parent_iqr")
            }
            section[seed_key]["gain_rule_met"] = gain
            met = met and gain
            for side in medians:
                medians[side][seed_key] = result[side]["median"]
        section[f"parent_median_{unit}"] = medians["parent"]
        section[f"change_median_{unit}"] = medians["change"]
        section["met"] = met
        summary["claim"] = section
    return summary


def repeats_exactly(metric: str) -> bool:
    """Whether a per-layer metric is a count or sim-time sum, not host time."""
    if metric.endswith(".self_share") or metric == "sim.host_us_per_event":
        return False
    return not metric.endswith("_s") or metric.endswith("_sim_s")


def traced_section(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Both sides' exact per-layer metrics per workload and seed, and which differ."""
    runs: Dict[str, Dict[str, Dict[str, Dict[str, Any]]]] = {}
    for record in sorted(records, key=lambda r: r["seed"]):
        by_seed = runs.setdefault(record["workload"], {})
        by_seed.setdefault(f"seed_{record['seed']}", {})[record["side"]] = record
    section: Dict[str, Any] = {"command": _command(TRACED_SECONDS, 1),
                               "rule": TRACED_RULE}
    for workload, by_seed in runs.items():
        section[workload] = {}
        for seed_key, by_side in by_seed.items():
            parent, change = (
                {name: value for name, value in sorted(by_side[side]["metrics"].items())
                 if repeats_exactly(name)}
                for side in ("parent", "change")
            )
            section[workload][seed_key] = {
                "parent": parent,
                "change": change,
                "differ": sorted(name for name in parent.keys() | change.keys()
                                 if parent.get(name) != change.get(name)),
                "correct": {side: by_side[side]["correct"]
                            for side in ("parent", "change")},
            }
    return section


# -- running ------------------------------------------------------------------------


def _command(seconds: float, trace: int) -> str:
    return ("python3 perfbench/run.py --workload <workload> --seed <seed> "
            f"--seconds {seconds:g} --trace {trace}")


def run_once(tree: Path, workload: str, seed: int,
             traced: bool = False) -> Dict[str, Any]:
    """One benchmark run in ``tree``: its verdict, metrics and (timed) rounds."""
    seconds = TRACED_SECONDS if traced else SECONDS
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(int(traced))],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    verdict = json.loads(lines[-1])
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: m["value"] for name, m in verdict["metrics"].items()},
    }
    if not traced:
        result["rounds"] = next(
            int(line.split()[-1]) for line in lines
            if line.startswith(f"workload {workload} seed {seed} rounds "))
    return result


def parse_plan(items: Sequence[str]) -> List[Tuple[str, int, int]]:
    plan = []
    for item in items:
        workload, seed, pairs = item.split(":")
        plan.append((workload, int(seed), int(pairs)))
    return plan


def collect(plan: Sequence[Tuple[str, int, int]], trees: Dict[str, Path],
            log: Path, parent_commit: str,
            run: Callable[[Path, str, int, bool], Dict[str, Any]] = run_once,
            ) -> List[Dict[str, Any]]:
    """Every planned run's record, running only those ``log`` lacks.

    Each plan item runs its timed pairs, then one traced run per side
    (``"pair": "traced"``).  Each new run is appended to ``log`` as soon
    as it finishes.
    """
    lines = log.read_text().splitlines() if log.exists() else []
    logged = [json.loads(line) for line in lines if line]
    stale = sorted({r["parent_commit"] for r in logged} - {parent_commit})
    if stale:
        raise SystemExit(f"{log} holds runs against parent {', '.join(stale)}; "
                         "delete it to start afresh")
    done = {(r["workload"], r["seed"], r["pair"], r["side"]): r for r in logged}
    records = []
    for workload, seed, pairs in plan:
        runs = [(pair, side) for pair in range(pairs) for side in
                (("parent", "change") if pair % 2 == 0 else ("change", "parent"))]
        runs += [("traced", "parent"), ("traced", "change")]
        for pair, side in runs:
            key = (workload, seed, pair, side)
            if key not in done:
                record = {"parent_commit": parent_commit, "workload": workload,
                          "seed": seed, "pair": pair, "side": side}
                record.update(run(trees[side], workload, seed, pair == "traced"))
                metric = "sim.events" if pair == "traced" else "wall_s"
                print(f"{workload} seed {seed} pair {pair} {side} "
                      f"{metric} {record['metrics'][metric]:g}",
                      file=sys.stderr, flush=True)
                with log.open("a") as out:
                    out.write(json.dumps(record, sort_keys=True) + "\n")
                done[key] = record
            records.append(done[key])
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="commit the working tree is compared against")
    parser.add_argument("--plan", nargs="+", required=True,
                        metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--claim", metavar="METRIC:WORKLOAD",
                        help="the metric and workload a gain is claimed on")
    parser.add_argument("--out", type=Path, required=True,
                        help="summary file; its runs are logged beside it")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_commit = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
        records = collect(parse_plan(args.plan), trees,
                          args.out.with_suffix(".runs.jsonl"), parent_commit)

    claim = tuple(args.claim.split(":")) if args.claim else None
    timed = [r for r in records if r["pair"] != "traced"]
    document = {
        "parent_commit": parent_commit,
        "command": _command(SECONDS, 0),
        "protocol": PROTOCOL,
        **summarise(timed, benchmark["end_to_end"], claim),
        "traced": traced_section([r for r in records if r["pair"] == "traced"]),
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
