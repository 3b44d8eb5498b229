"""Coverage/fitness-guided campaign fuzzing over the chaos engine.

One fuzz session = ``budget`` campaign runs.  The first slice seeds the
corpus with blind samples (the same distribution ``ecfault chaos``
draws); the rest mutate retained corpus entries with the typed operators
in :mod:`repro.adversary.mutators`.  A run earns corpus retention by
reaching a novel (fault-level x EC-plugin x PG-state) coverage pair or
by setting a fitness record; invariant violations are shrunk with ddmin
and emitted as 1-minimal JSON repro artifacts.

Everything is derived deterministically from ``root_seed``: same seed,
same budget, same corpus, same artifacts, always.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..chaos.artifact import ReproArtifact, save_artifact
from ..chaos.campaign import CampaignSpec
from ..chaos.engine import CampaignInvalid, CampaignResult, run_campaign
from ..chaos.sampler import _EC_CHOICES, sample_campaign
from ..chaos.shrink import shrink_campaign
from ..sim.rng import SeedSequence, substream_seed
from .corpus import Corpus, CorpusEntry, load_corpus
from .mutators import (
    allowed_levels,
    duplicate_action,
    escalate_action,
    fault_round,
    mutate,
    press_data,
    reshape_to,
)

__all__ = [
    "FITNESS_AXES",
    "FuzzReport",
    "MarginProbe",
    "durability_margin",
    "log_trim_margin",
    "run_fuzz",
]

#: The fitness vector's axes; every run scores all of them.
FITNESS_AXES = (
    "repair_bytes",
    "convergence_time",
    "wan_egress",
    "durability_near_miss",
    "log_trim_near_miss",
)

#: Fraction of the budget spent seeding the corpus with blind samples.
SEED_FRACTION = 0.25


# -- near-miss margins ----------------------------------------------------------


def durability_margin(cluster) -> float:
    """Surviving-tolerance margin: how many more shards could die.

    The minimum over populated objects of ``tolerance - |damage|``,
    where damage is the stripe's damaged shards
    (:meth:`~repro.cluster.ceph.CephCluster.damaged_shards`) — the set
    the durability invariant judges.  Equals the full tolerance on an
    undamaged cluster; zero exactly at the invariant boundary (one more
    lost shard is a violation).
    """
    code = cluster.pool.code
    tolerance = float(code.fault_tolerance())
    margin = tolerance
    for pg in cluster.pool.pgs.values():
        if not pg.objects:
            continue
        down = cluster.down_shards(pg)
        for obj in pg.objects:
            damage = len(cluster.damaged_shards(pg, obj, down))
            margin = min(margin, tolerance - damage)
    return margin


def log_trim_margin(cluster) -> Optional[float]:
    """Distance to the pg_log divergence floor, or None when no divergence.

    While a shard's divergence pins the log, entries accumulate toward
    ``hard_limit``; at zero margin the next trim drops past the floor
    and delta recovery degrades to a full backfill.  Only PGs with an
    *active* divergence floor count — an unpinned log trims freely and
    has no boundary to approach.
    """
    margin: Optional[float] = None
    for pg in cluster.pool.pgs.values():
        log = pg.log
        if log is None or log.divergence_floor() is None:
            continue
        room = float(log.hard_limit - len(log.entries))
        margin = room if margin is None else min(margin, room)
    return margin


class MarginProbe:
    """A step-wise observer rode through a campaign as an extra check.

    Shaped like an invariant checker (``cluster -> [violations]``) but
    never emits violations — it records the minima of the near-miss
    margins and the set of PG states the campaign visited, which become
    the run's fitness and coverage after the engine returns.
    """

    def __init__(self) -> None:
        self.tolerance: Optional[float] = None
        self.min_durability_margin: Optional[float] = None
        self.min_log_trim_margin: Optional[float] = None
        self.log_hard_limit: Optional[float] = None
        self.pg_states_seen: Set[str] = set()

    def __call__(self, cluster) -> list:
        if self.tolerance is None:
            self.tolerance = float(cluster.pool.code.fault_tolerance())
        margin = durability_margin(cluster)
        if (self.min_durability_margin is None
                or margin < self.min_durability_margin):
            self.min_durability_margin = margin
        trim = log_trim_margin(cluster)
        if trim is not None:
            if self.log_hard_limit is None:
                self.log_hard_limit = float(max(
                    pg.log.hard_limit
                    for pg in cluster.pool.pgs.values()
                    if pg.log is not None
                ))
            if (self.min_log_trim_margin is None
                    or trim < self.min_log_trim_margin):
                self.min_log_trim_margin = trim
        self.pg_states_seen.update(cluster.scrub.pg_states.values())
        if not cluster.recovery.idle:
            self.pg_states_seen.add("recovering")
        return []

    def fitness_margins(self) -> Dict[str, float]:
        """The near-miss components of the fitness vector (higher = closer)."""
        near_durability = 0.0
        if self.tolerance is not None and self.min_durability_margin is not None:
            near_durability = self.tolerance - self.min_durability_margin
        near_trim = 0.0
        if (self.log_hard_limit is not None
                and self.min_log_trim_margin is not None):
            near_trim = self.log_hard_limit - self.min_log_trim_margin
        return {
            "durability_near_miss": near_durability,
            "log_trim_near_miss": near_trim,
        }


# -- scoring --------------------------------------------------------------------


def score_run(spec: CampaignSpec, result: CampaignResult,
              probe: MarginProbe) -> Tuple[Dict[str, float], frozenset]:
    """The (fitness vector, coverage pairs) one campaign run produced."""
    recovery = result.digest.get("recovery", {})
    scrub = result.digest.get("scrub", {})
    repair_bytes = float(
        recovery.get("bytes_read", 0)
        + recovery.get("bytes_written", 0)
        + recovery.get("delta_bytes_read", 0)
        + recovery.get("delta_bytes_written", 0)
        + scrub.get("repair_bytes_read", 0)
        + scrub.get("repair_bytes_written", 0)
    )
    wan = result.digest.get("wan", {})
    fitness = {
        "repair_bytes": repair_bytes,
        "convergence_time": float(result.finished_at),
        "wan_egress": float(wan.get("cross_region_bytes", 0)),
        **probe.fitness_margins(),
    }
    levels = {
        action.level for action in spec.actions if action.kind == "inject"
    }
    coverage = frozenset(
        (level, spec.ec_plugin, state)
        for level in levels
        for state in probe.pg_states_seen
    )
    return fitness, coverage


# -- the fuzz loop --------------------------------------------------------------


@dataclass
class FuzzReport:
    """Everything one fuzz session produced."""

    root_seed: int
    budget: int
    runs: int = 0
    invalid: int = 0
    mutants_rejected: int = 0
    corpus: Corpus = field(default_factory=Corpus)
    #: (spec, result) of every run that violated an invariant.
    failures: List[Tuple[CampaignSpec, CampaignResult]] = field(
        default_factory=list
    )
    #: Paths of shrunk repro artifacts written under the corpus dir.
    artifacts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> Dict[str, Any]:
        """The JSON document ``ecfault fuzz`` prints (the CLI contract)."""
        return {
            "root_seed": self.root_seed,
            "budget": self.budget,
            "runs": self.runs,
            "invalid": self.invalid,
            "mutants_rejected": self.mutants_rejected,
            "failures": len(self.failures),
            "artifacts": list(self.artifacts),
            "corpus": self.corpus.summary(),
        }


def run_fuzz(
    root_seed: int,
    budget: int,
    levels: Optional[Sequence[str]] = None,
    byzantine: bool = False,
    corpus_dir=None,
    corpus_in=None,
    on_run=None,
) -> FuzzReport:
    """One deterministic fuzz session of ``budget`` campaign runs.

    ``levels``/``byzantine`` shape the seed samples exactly as they do
    ``run_chaos``.  ``corpus_dir`` (optional) receives the retained
    corpus entries, the summary, and any shrunk repro artifacts.
    ``corpus_in`` (optional) pre-seeds the session's corpus from a
    directory a previous session saved: the archived entries replay
    through ``consider`` before the budget starts, so mutation rounds
    draw on the prior session's discoveries from run one, and novelty
    is judged against everything both sessions have seen.  Determinism
    extends across the reuse: same ``corpus_in`` + same seed + same
    budget, same session, always.
    ``on_run(index, kind, spec, result_or_none, error_or_none)`` mirrors
    the chaos progress callback (``kind`` is ``seed`` or ``mutant``).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    report = FuzzReport(root_seed=root_seed, budget=budget)
    if corpus_in is not None:
        report.corpus = load_corpus(corpus_in)
    rng = SeedSequence(root_seed).stream("adversary-fuzzer")
    seed_runs = max(1, min(budget, round(budget * SEED_FRACTION)))

    for index in range(budget):
        kind = "seed" if index < seed_runs else "mutant"
        lineage = f"{kind}-{index}"
        if kind == "seed":
            spec = sample_campaign(
                substream_seed(root_seed, f"fuzz-seed-{index}"),
                levels=levels,
                byzantine=byzantine,
            )
        else:
            exploit = (index - seed_runs) % _EXPLOIT_CADENCE == (
                _EXPLOIT_CADENCE - 1
            )
            spec = _next_mutant(rng, report, exploit=exploit)
            if spec is None:
                # Mutators dried up (tiny corpus, every mutation
                # invalid): fall back to a fresh blind sample so the
                # budget is never silently under-spent.
                report.mutants_rejected += 1
                spec = sample_campaign(
                    substream_seed(root_seed, f"fuzz-reseed-{index}"),
                    levels=levels,
                    byzantine=byzantine,
                )
        probe = MarginProbe()
        report.runs += 1
        try:
            result = run_campaign(spec, extra_checks=(probe,))
        except CampaignInvalid as exc:
            report.invalid += 1
            if on_run is not None:
                on_run(index, kind, spec, None, exc)
            continue
        fitness, coverage = score_run(spec, result, probe)
        report.corpus.consider(
            CorpusEntry(
                spec=spec,
                fitness=fitness,
                coverage=coverage,
                lineage=lineage,
                outcome_hash=result.outcome_hash,
            )
        )
        if not result.passed:
            report.failures.append((spec, result))
            if corpus_dir is not None:
                path = _shrink_and_save(spec, result, corpus_dir,
                                        len(report.failures))
                if path is not None:
                    report.artifacts.append(str(path))
        if on_run is not None:
            on_run(index, kind, spec, result, None)

    if corpus_dir is not None:
        report.corpus.save(corpus_dir)
    return report


#: One in this many mutant rounds exploits the repair-bytes record
#: holder instead of exploring.  A fixed cadence, not a probability:
#: exploitation compounds (each retained record becomes the next
#: round's base), so a handful of evenly-spaced rounds buy the fitness
#: record while the rest of the budget keeps buying coverage.
_EXPLOIT_CADENCE = 5


def _exploit_repair_record(rng, report: "FuzzReport"):
    """Hill-climb the corpus's best repair-bytes campaign.

    Takes the current record holder and pushes the genes that axis
    feeds on: more and bigger objects (``press_data``), replayed
    injects (``duplicate_action`` — each replay is another full
    recovery round) and an escalated count (``escalate_action``).
    Each retained improvement becomes the next round's base, so
    repeated exploitation compounds.
    """
    best = max(
        report.corpus.entries,
        key=lambda entry: entry.fitness.get("repair_bytes", 0.0),
    )
    spec = best.spec
    mutated = press_data(rng, spec) or spec
    for operator in (duplicate_action, escalate_action, duplicate_action):
        candidate = operator(rng, mutated)
        if candidate is not None:
            mutated = candidate
    return None if mutated is spec else mutated


def _aim_at_coverage_gap(rng, spec: CampaignSpec,
                         seen) -> Optional[CampaignSpec]:
    """Steer a mutant toward the least-covered (plugin, level) cells.

    This is what makes the loop coverage-*guided* rather than merely
    coverage-*retaining*: retention only filters what random mutation
    happens to produce, aiming steers production toward plugins and
    fault levels the corpus has not paired yet.  Two directed steps,
    each skipped when inapplicable: reshape the geometry to the plugin
    with the fewest covered pairs, then append a fault round at a level
    not yet paired with the resulting plugin.  Ties and the final
    choice inside a cell stay rng-driven, so aiming narrows the search
    without collapsing it.
    """
    plugin_counts: Dict[str, int] = {}
    for _level, plugin, _state in seen:
        plugin_counts[plugin] = plugin_counts.get(plugin, 0) + 1
    plugins = sorted({plugin for plugin, _params in _EC_CHOICES})
    target = min(plugins, key=lambda p: (plugin_counts.get(p, 0), p))
    reshaped = reshape_to(rng, spec, target)
    if reshaped is not None:
        spec = reshaped
    covered = {level for level, plugin, _s in seen if plugin == spec.ec_plugin}
    missing = [
        level for level in allowed_levels(spec) if level not in covered
    ]
    if missing:
        extended = fault_round(rng, spec, rng.choice(missing))
        if extended is not None:
            spec = extended
    return spec


def _next_mutant(rng, report: FuzzReport,
                 exploit: bool = False) -> Optional[CampaignSpec]:
    """Pick a corpus entry and mutate it 1-3 times; None when dried up.

    ``exploit`` rounds hill-climb the repair-bytes record holder;
    explore rounds mutate a random entry and then re-aim the mutant at
    the corpus's emptiest coverage cell.
    """
    if not report.corpus.entries:
        return None
    if exploit:
        exploited = _exploit_repair_record(rng, report)
        if exploited is not None:
            return exploited
    for _ in range(8):  # a few tries before declaring the round dry
        entry = rng.choice(report.corpus.entries)
        spec = entry.spec
        others = [e.spec for e in report.corpus.entries if e is not entry]
        mutated = None
        for _ in range(rng.randrange(1, 4)):
            candidate = mutate(rng, mutated or spec, others)
            if candidate is not None:
                mutated = candidate
        if mutated is not None:
            aimed = _aim_at_coverage_gap(
                rng, mutated, report.corpus.seen_coverage
            )
            if aimed is not None:
                mutated = aimed
            return mutated
    return None


def _shrink_and_save(spec: CampaignSpec, result: CampaignResult,
                     corpus_dir, index: int) -> Optional[Path]:
    """ddmin the failing schedule and write the 1-minimal repro artifact."""
    try:
        shrunk_spec, shrunk_result = shrink_campaign(spec)
    except ValueError:
        # The failure did not reproduce on re-run (should not happen —
        # campaigns are deterministic — but never lose the original).
        shrunk_spec, shrunk_result = spec, result
    artifact = ReproArtifact(
        spec=shrunk_spec,
        violations=shrunk_result.violations,
        outcome_hash=shrunk_result.outcome_hash,
        original_spec=spec,
    )
    return save_artifact(
        artifact, Path(corpus_dir) / f"repro-{spec.seed}-{index:02d}.json"
    )
