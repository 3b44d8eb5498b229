"""Summary math of scripts/bench_pairs.py on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "failed_frac", "unit": "fraction", "better": "lower", "bound": 0.1},
    {"name": "coverage_pairs", "unit": "count", "better": "higher", "bound": 0.1},
]


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.3, 1.0, 1.2, 1.1]) == pytest.approx(
        (1.075, 1.15, 1.225))
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_compare_counts_wins_ties_and_the_gain_rule():
    result = bench_pairs.compare([1.0, 1.2, 1.1, 1.3], [0.9, 1.0, 1.15, 1.3],
                                 "lower", 0.25)
    assert result["change_wins"] == "2/4"
    assert result["ties"] == 1
    assert result["parent"]["median"] == 1.15
    assert result["parent_iqr"] == 0.15
    assert result["change_over_parent_median"] == round(1.075 / 1.15, 4)
    assert result["worse_by"] == 0.0 and result["within_bound"]
    assert not result["gain_rule_met"]  # 2 of 4 pairs is under nine tenths

    parent = [2.0, 2.1, 1.9, 2.2, 2.0, 1.8, 2.1, 2.0, 1.9, 2.3]
    change = [1.5, 1.6, 2.0, 1.5, 1.4, 1.6, 1.5, 1.5, 1.6, 1.5]
    gained = bench_pairs.compare(parent, change, "lower", 0.25)
    assert gained["change_wins"] == "9/10"
    assert gained["gain_rule_met"]
    # Nine wins but medians inside the parent's spread: no gain.
    close = [p - 0.01 for p in parent[:9]] + [2.4]
    assert not bench_pairs.compare(parent, close, "lower", 0.25)["gain_rule_met"]


def test_compare_measures_worse_by_in_the_metrics_worse_direction():
    slower = bench_pairs.compare([1.0, 1.0], [1.3, 1.3], "lower", 0.25)
    assert slower["worse_by"] == 0.3 and not slower["within_bound"]
    fewer = bench_pairs.compare([40, 40], [38, 38], "higher", 0.1)
    assert fewer["worse_by"] == 0.05 and fewer["within_bound"]
    more = bench_pairs.compare([39, 39], [38, 40], "higher", 0.1)
    assert more["change_wins"] == "1/2" and more["worse_by"] == 0.0
    # A zero median compares as a ratio of 1, not a division by zero.
    none_failed = bench_pairs.compare([0.0, 0.0], [0.0, 0.0], "lower", 0.1)
    assert none_failed["worse_by"] == 0.0 and not none_failed["unresolved"]


def test_compare_flags_a_spread_wider_than_the_bound_as_unresolved():
    tight = [1.0, 1.02, 0.98, 1.01]
    wide = [1.0, 1.6, 0.7, 1.3]  # IQR 0.45 around a median of 1.15
    assert not bench_pairs.compare(tight, tight, "lower", 0.25)["unresolved"]
    assert bench_pairs.compare(wide, tight, "lower", 0.25)["unresolved"]
    assert bench_pairs.compare(tight, wide, "lower", 0.25)["unresolved"]
    # Every change run better than every parent run resolves any spread.
    faster = [0.3, 0.6, 0.2, 0.5]
    assert not bench_pairs.compare(wide, faster, "lower", 0.25)["unresolved"]
    assert bench_pairs.compare(wide, faster, "higher", 0.25)["unresolved"]


def _record(workload, seed, pair, side, wall, failed=0, failed_frac=0.2):
    return {"workload": workload, "seed": seed, "pair": pair, "side": side,
            "correct": failed == 0, "attempted": 5, "failed": failed,
            "rounds": 10 if side == "parent" else 14,
            "metrics": {"wall_s": wall, "failed_frac": failed_frac,
                        "coverage_pairs": 39}}


def test_summarise_writes_the_bench_sections():
    records = []
    for pair in range(10):
        records.append(_record("fast", 11, pair, "parent", 2.0 + pair / 100))
        records.append(_record("fast", 11, pair, "change", 1.5 + pair / 100))
        records.append(_record("flat", 11, pair, "parent", 1.0))
        records.append(_record("flat", 11, pair, "change", 1.1))
    for pair in range(5):
        records.append(_record("fast", 42, pair, "parent", 2.0))
        records.append(_record("fast", 42, pair, "change", 1.6))
    summary = bench_pairs.summarise(records, METRICS, ("wall_s", "fast"))

    assert summary["pairs"] == {"seed_11": 10, "seed_42": {"fast": 5}}
    cell = summary["end_to_end"]["fast"]["seed_11"]
    assert cell["rounds_per_run"] == {"parent": [10, 10], "change": [14, 14]}
    assert cell["operations"]["change"] == {
        "attempted_per_run": [5], "failed_total": 0, "all_correct": True}
    assert cell["wall_s"]["change_wins"] == "10/10"

    claim = summary["claim"]
    assert claim["seed_11"]["gain_rule_met"] and claim["seed_42"]["gain_rule_met"]
    assert claim["parent_median_s"] == {"seed_11": 2.045, "seed_42": 2.0}
    assert claim["met"]
    assert summary["no_regression"]["met"]
    assert summary["no_regression"]["largest_worse_by"] == [0.1, "flat seed_11 wall_s"]
    assert summary["no_regression"]["unresolved"] == []


def test_summarise_fails_no_regression_on_more_failed_operations():
    records = [_record("w", 11, 0, "parent", 1.0),
               _record("w", 11, 0, "change", 0.9, failed=1)]
    summary = bench_pairs.summarise(records, METRICS, ("wall_s", "w"))
    assert not summary["no_regression"]["met"]
    assert not summary["claim"]["met"]


def test_summarise_fails_no_regression_on_a_higher_failed_frac():
    # 0.21 over 0.20 is within failed_frac's bound, but it must not rise.
    records = [_record("w", 11, 0, "parent", 1.0),
               _record("w", 11, 0, "change", 0.9, failed_frac=0.21)]
    summary = bench_pairs.summarise(records, METRICS)
    assert summary["end_to_end"]["w"]["seed_11"]["failed_frac"]["within_bound"]
    assert not summary["no_regression"]["met"]


def test_summarise_fails_no_regression_on_an_unresolved_metric():
    walls = [(1.0, 1.0), (1.6, 1.6), (0.7, 0.7), (1.3, 1.3)]
    records = [_record("w", 11, pair, side, wall)
               for pair, sides in enumerate(walls)
               for side, wall in zip(("parent", "change"), sides)]
    no_regression = bench_pairs.summarise(records, METRICS)["no_regression"]
    assert no_regression["unresolved"] == ["w seed_11 wall_s"]
    assert not no_regression["met"]


#: A traced run's per-layer metrics: counts and sim-time sums repeat
#: exactly, the host-time ones never do.
TRACED = {"sim.events": 100, "sim.host_us_per_event": 3.1,
          "sim.self_share": 0.5, "cluster.disk.busy_sim_s": 4.25,
          "core.build_s": 0.05, "tenancy.served_frac": 1.0}


def _fake_run(calls, change_traced=None):
    """A stand-in for ``run_once`` that records its calls."""
    def run(tree, workload, seed, traced):
        calls.append((tree.name, workload, seed, traced))
        if traced:
            metrics = dict(TRACED)
            if tree.name == "change":
                metrics.update(change_traced or {"sim.host_us_per_event": 2.9})
            return {"correct": True, "attempted": 5, "failed": 0,
                    "metrics": metrics}
        return {"correct": True, "attempted": 5, "failed": 0, "rounds": 10,
                "metrics": {"wall_s": 1.0 if tree.name == "parent" else 0.9}}
    return run


def test_collect_logs_each_run_and_skips_logged_runs(tmp_path):
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    log = tmp_path / "BENCH.runs.jsonl"
    calls = []
    first = bench_pairs.collect([("w", 11, 1)], trees, log, "abc1234",
                                run=_fake_run(calls))
    assert calls == [("parent", "w", 11, False), ("change", "w", 11, False),
                     ("parent", "w", 11, True), ("change", "w", 11, True)]
    assert [(r["pair"], r["side"]) for r in first] == [
        (0, "parent"), (0, "change"), ("traced", "parent"), ("traced", "change")]
    assert len(log.read_text().splitlines()) == 4

    # A second call with one more pair runs only that pair, change first;
    # the logged traced runs are not run again.
    calls.clear()
    second = bench_pairs.collect([("w", 11, 2)], trees, log, "abc1234",
                                 run=_fake_run(calls))
    assert calls == [("change", "w", 11, False), ("parent", "w", 11, False)]
    assert second[:2] == first[:2] and second[4:] == first[2:]
    assert [(r["pair"], r["side"]) for r in second[2:4]] == [(1, "change"),
                                                            (1, "parent")]
    assert len(log.read_text().splitlines()) == 6

    with pytest.raises(SystemExit, match="abc1234"):
        bench_pairs.collect([("w", 11, 2)], trees, log, "def5678",
                            run=_fake_run(calls))


def test_repeats_exactly_leaves_out_host_time():
    exact = [name for name in TRACED if bench_pairs.repeats_exactly(name)]
    assert exact == ["sim.events", "cluster.disk.busy_sim_s",
                     "tenancy.served_frac"]


def test_traced_section_compares_the_exact_metrics(tmp_path):
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    plan = [("a", 11, 1), ("b", 42, 1), ("b", 11, 1)]
    records = bench_pairs.collect(
        plan, trees, tmp_path / "BENCH.runs.jsonl", "abc1234",
        run=_fake_run([], change_traced={"sim.events": 125,
                                         "sim.self_share": 0.4}))
    traced = bench_pairs.traced_section(
        [r for r in records if r["pair"] == "traced"])

    assert traced["command"].endswith("--seconds 10 --trace 1")
    assert list(traced["b"]) == ["seed_11", "seed_42"]
    cell = traced["a"]["seed_11"]
    assert cell["parent"] == {"cluster.disk.busy_sim_s": 4.25,
                              "sim.events": 100, "tenancy.served_frac": 1.0}
    assert cell["change"]["sim.events"] == 125
    # A host-time difference (self share) is not reported as one.
    assert cell["differ"] == ["sim.events"]
    assert cell["correct"] == {"parent": True, "change": True}
