"""The adversary layer: corpus retention, mutators, and the fuzz loop."""

import json
import random

import pytest

from repro.adversary import (
    FITNESS_AXES,
    Corpus,
    CorpusEntry,
    MUTATORS,
    mutate,
    run_fuzz,
    splice,
)
from repro.adversary.mutators import _rebuild
from repro.chaos.artifact import load_artifact
from repro.chaos.campaign import CampaignSpec, ScheduledAction
from repro.chaos.sampler import sample_campaign
from repro.core.fault_injector import BYZ_LEVELS
from tests.test_chaos_shrink import failing_spec

pytestmark = pytest.mark.chaos


def entry(spec, fitness, coverage, lineage="seed-0"):
    return CorpusEntry(
        spec=spec,
        fitness=dict(fitness),
        coverage=frozenset(coverage),
        lineage=lineage,
        outcome_hash="0" * 64,
    )


SPEC = sample_campaign(0)
PAIR_A = ("node", "jerasure", "active+clean")
PAIR_B = ("device", "jerasure", "recovering")


# -- corpus retention -----------------------------------------------------------


def test_corpus_keeps_novel_coverage_and_rejects_duplicates():
    corpus = Corpus()
    assert corpus.consider(entry(SPEC, {"repair_bytes": 5.0}, {PAIR_A}))
    # Same coverage, no fitness record: nothing novel, not retained.
    assert not corpus.consider(entry(SPEC, {"repair_bytes": 5.0}, {PAIR_A}))
    # A new coverage pair alone earns retention.
    assert corpus.consider(entry(SPEC, {"repair_bytes": 1.0}, {PAIR_B}))
    assert len(corpus.entries) == 2
    assert corpus.considered == 3
    assert corpus.seen_coverage == {PAIR_A, PAIR_B}


def test_corpus_keeps_strict_fitness_records_only():
    corpus = Corpus()
    corpus.consider(entry(SPEC, {"repair_bytes": 5.0}, {PAIR_A}))
    # A tie is not a record.
    assert not corpus.consider(entry(SPEC, {"repair_bytes": 5.0}, {PAIR_A}))
    # A strictly higher value on any axis is.
    assert corpus.consider(entry(SPEC, {"repair_bytes": 6.0}, {PAIR_A}))
    assert corpus.best_fitness["repair_bytes"] == 6.0


def test_corpus_summary_and_save_schema(tmp_path):
    corpus = Corpus()
    corpus.consider(entry(SPEC, {"repair_bytes": 5.0}, {PAIR_A}))
    summary = corpus.summary()
    assert summary["entries"] == 1
    assert summary["considered"] == 1
    assert summary["coverage_pairs"] == 1
    assert summary["coverage"] == [list(PAIR_A)]
    assert summary["lineages"] == ["seed-0"]

    paths = corpus.save(tmp_path)
    names = sorted(path.name for path in paths)
    assert names == ["corpus-0000.json", "summary.json"]
    blob = json.loads((tmp_path / "corpus-0000.json").read_text())
    assert set(blob) == {"spec", "fitness", "coverage", "lineage",
                        "outcome_hash"}
    # The archived spec is replayable.
    assert CampaignSpec.from_dict(blob["spec"]) == SPEC


# -- mutators -------------------------------------------------------------------


def test_every_mutator_yields_a_valid_spec_or_none():
    rng = random.Random(1)
    specs = [sample_campaign(seed) for seed in range(4)]
    specs.append(sample_campaign(99, byzantine=True))
    for spec in specs:
        for mutator in MUTATORS:
            for _ in range(10):
                mutant = mutator(rng, spec)
                if mutant is None:
                    continue
                # Reconstructing through the validating constructor must
                # not raise, and the seed gene is never touched.
                CampaignSpec.from_dict(mutant.to_dict())
                assert mutant.seed == spec.seed


def test_mutation_is_deterministic_under_a_seeded_rng():
    spec = sample_campaign(3)
    others = [sample_campaign(4), sample_campaign(5)]
    first = [mutate(random.Random(7), spec, others) for _ in range(1)]
    second = [mutate(random.Random(7), spec, others) for _ in range(1)]
    assert first == second


def test_rebuild_appends_restore_after_a_trailing_inject():
    # A mutation that leaves the schedule ending on an inject would trip
    # the convergence oracle trivially; _rebuild keeps mutants in the
    # expected-to-converge family by appending a restore.
    spec = sample_campaign(3)
    dangling = [
        ScheduledAction(at=100.0, kind="inject", level="node", count=1),
    ]
    mutant = _rebuild(spec, dangling)
    assert mutant.actions[-1].kind == "restore"
    assert mutant.actions[-1].at > mutant.actions[0].at


def test_retarget_keeps_byz_mutants_inside_the_byz_family():
    rng = random.Random(2)
    spec = sample_campaign(99, byzantine=True)
    from repro.adversary.mutators import retarget_action

    for _ in range(20):
        mutant = retarget_action(rng, spec)
        if mutant is None:
            continue
        for action in mutant.actions:
            if action.kind == "inject":
                assert action.level in BYZ_LEVELS


def test_splice_rebases_the_suffix_in_time():
    rng = random.Random(5)
    first = sample_campaign(1)
    second = sample_campaign(2)
    for _ in range(10):
        spliced = splice(rng, first, second)
        if spliced is None:
            continue
        times = [action.at for action in spliced.actions]
        assert times == sorted(times)
        assert spliced.seed == first.seed


# -- the fuzz loop --------------------------------------------------------------


def test_run_fuzz_rejects_a_zero_budget():
    with pytest.raises(ValueError, match="budget"):
        run_fuzz(root_seed=0, budget=0)


def test_run_fuzz_is_deterministic():
    first = run_fuzz(root_seed=3, budget=6)
    second = run_fuzz(root_seed=3, budget=6)
    assert first.summary() == second.summary()
    assert first.runs == 6
    assert set(first.corpus.best_fitness) <= set(FITNESS_AXES)


def test_run_fuzz_mixes_seed_and_mutant_lineages():
    kinds = []
    report = run_fuzz(
        root_seed=3, budget=8,
        on_run=lambda index, kind, spec, result, error: kinds.append(kind),
    )
    assert kinds[:2] == ["seed", "seed"]  # SEED_FRACTION of 8
    assert "mutant" in kinds[2:]
    assert report.runs == 8


def test_failures_are_shrunk_into_repro_artifacts(tmp_path, monkeypatch):
    # Make the very first seed sample a known-failing campaign, so the
    # fuzzer's violation path (shrink + artifact emission) runs for real.
    import repro.adversary.fuzzer as fuzzer_mod

    bad = failing_spec()
    monkeypatch.setattr(
        fuzzer_mod, "sample_campaign",
        lambda seed, levels=None, byzantine=False: bad,
    )
    report = run_fuzz(root_seed=0, budget=1, corpus_dir=tmp_path)
    assert not report.ok
    assert len(report.failures) == 1
    [artifact_path] = report.artifacts
    artifact = load_artifact(artifact_path)
    # The artifact carries the 1-minimal schedule plus the original.
    assert len(artifact.spec.actions) == 1
    assert artifact.original_spec == bad
    assert {v.invariant for v in artifact.violations} == {
        "health-convergence"
    }
    # The corpus itself was still archived alongside the repro.
    assert (tmp_path / "summary.json").exists()


# -- press_capacity mutator -----------------------------------------------------


def test_press_capacity_jumps_to_the_data_ceiling():
    from repro.adversary import press_capacity
    from repro.chaos.sampler import _OBJECT_SIZES

    rng = random.Random(2)
    spec = sample_campaign(1)
    mutant = press_capacity(rng, spec)
    assert mutant is not None
    assert mutant.num_objects == 32
    assert mutant.object_size == max(_OBJECT_SIZES)
    # Already at the ceiling: the mutator declines instead of no-oping.
    assert press_capacity(rng, mutant) is None


def test_press_capacity_is_registered():
    from repro.adversary import press_capacity

    assert press_capacity in MUTATORS


# -- corpus archiving and reuse --------------------------------------------------


def test_corpus_entry_round_trips_through_json():
    original = entry(SPEC, {"axis": 1.5}, [PAIR_A, PAIR_B], "mutant-3")
    rebuilt = CorpusEntry.from_dict(
        json.loads(json.dumps(original.to_dict()))
    )
    assert rebuilt == original


def test_load_corpus_reproduces_the_saved_records(tmp_path):
    from repro.adversary import load_corpus

    report = run_fuzz(root_seed=5, budget=4, corpus_dir=tmp_path)
    loaded = load_corpus(tmp_path)
    assert loaded.seen_coverage == report.corpus.seen_coverage
    assert loaded.best_fitness == report.corpus.best_fitness
    assert [e.lineage for e in loaded.entries] == [
        e.lineage for e in report.corpus.entries
    ]
    assert loaded.considered == len(report.corpus.entries)


def test_saving_a_smaller_corpus_drops_the_older_entries(tmp_path):
    from repro.adversary import load_corpus

    larger = Corpus()
    for pair in (PAIR_A, PAIR_B, ("flap", "clay", "degraded")):
        larger.consider(entry(SPEC, {}, {pair}))
    larger.save(tmp_path)
    (tmp_path / "repro-7-00.json").write_text("{}\n")
    smaller = Corpus()
    smaller.consider(entry(SPEC, {}, {PAIR_A}))
    smaller.save(tmp_path)
    assert len(load_corpus(tmp_path).entries) == 1
    assert (tmp_path / "repro-7-00.json").exists()


def test_corpus_in_resumed_session_is_deterministic(tmp_path):
    first_dir = tmp_path / "session-1"
    run_fuzz(root_seed=5, budget=4, corpus_dir=first_dir)

    resumed = [
        run_fuzz(
            root_seed=6, budget=3, corpus_dir=tmp_path / f"resume-{i}",
            corpus_in=first_dir,
        )
        for i in range(2)
    ]
    assert resumed[0].corpus.summary() == resumed[1].corpus.summary()
    assert resumed[0].runs == resumed[1].runs == 3


def test_corpus_in_carries_coverage_so_repeats_are_not_novel(tmp_path):
    first_dir = tmp_path / "session-1"
    first = run_fuzz(root_seed=5, budget=4, corpus_dir=first_dir)

    resumed = run_fuzz(
        root_seed=5, budget=4, corpus_dir=tmp_path / "session-2",
        corpus_in=first_dir,
    )
    # The prior session's discoveries are on the books from run one.
    assert resumed.corpus.seen_coverage >= first.corpus.seen_coverage
    # Replayed entries + this session's novel finds, never duplicates.
    lineages = [e.lineage for e in resumed.corpus.entries]
    assert lineages[: len(first.corpus.entries)] == [
        e.lineage for e in first.corpus.entries
    ]
