"""The fuzzer's corpus: campaigns worth mutating again.

An entry earns its place by *novelty*: it reached a coverage pair no
earlier entry reached, or it set a new record on some fitness axis.
Everything is deterministic — same runs considered in the same order
produce the same corpus — and JSON-serialisable so a fuzz session can be
archived (and its summary asserted by the CLI contract tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Tuple

from ..chaos.campaign import CampaignSpec

__all__ = ["CorpusEntry", "Corpus", "load_corpus"]

#: One coverage point: (fault level, EC plugin, PG state observed).
CoveragePair = Tuple[str, str, str]


@dataclass(frozen=True)
class CorpusEntry:
    """One retained campaign with the scores that earned retention."""

    spec: CampaignSpec
    fitness: Dict[str, float]
    coverage: FrozenSet[CoveragePair]
    #: Where the entry came from: ``seed-<i>`` or ``mutant-<i>``.
    lineage: str
    outcome_hash: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "fitness": dict(self.fitness),
            "coverage": sorted(list(pair) for pair in self.coverage),
            "lineage": self.lineage,
            "outcome_hash": self.outcome_hash,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CorpusEntry":
        return cls(
            spec=CampaignSpec.from_dict(data["spec"]),
            fitness=dict(data["fitness"]),
            coverage=frozenset(tuple(pair) for pair in data["coverage"]),
            lineage=data["lineage"],
            outcome_hash=data["outcome_hash"],
        )


@dataclass
class Corpus:
    """Novelty-retaining set of campaigns, plus the global records."""

    entries: List[CorpusEntry] = field(default_factory=list)
    seen_coverage: set = field(default_factory=set)
    best_fitness: Dict[str, float] = field(default_factory=dict)
    considered: int = 0

    def consider(self, entry: CorpusEntry) -> bool:
        """Admit the entry iff it is novel; update records either way.

        Novel means: at least one coverage pair never seen before, or a
        strictly higher value on at least one fitness axis.  The records
        are updated *after* the judgement so two identical record-setters
        do not both enter.
        """
        self.considered += 1
        new_pairs = entry.coverage - self.seen_coverage
        new_records = [
            axis
            for axis, value in entry.fitness.items()
            if value > self.best_fitness.get(axis, float("-inf"))
        ]
        keep = bool(new_pairs) or bool(new_records)
        self.seen_coverage |= entry.coverage
        for axis, value in entry.fitness.items():
            if value > self.best_fitness.get(axis, float("-inf")):
                self.best_fitness[axis] = value
        if keep:
            self.entries.append(entry)
        return keep

    def summary(self) -> Dict[str, Any]:
        """The JSON summary the ``ecfault fuzz`` contract promises."""
        return {
            "entries": len(self.entries),
            "considered": self.considered,
            "coverage_pairs": len(self.seen_coverage),
            "coverage": sorted(list(pair) for pair in self.seen_coverage),
            "best_fitness": {
                axis: self.best_fitness[axis]
                for axis in sorted(self.best_fitness)
            },
            "lineages": [entry.lineage for entry in self.entries],
        }

    def save(self, corpus_dir) -> List[Path]:
        """Write every entry (and the summary) as JSON under corpus_dir.

        Entries an earlier, larger corpus saved there are removed, since
        :func:`load_corpus` reads every ``corpus-*.json``; repro
        artifacts are left alone.
        """
        corpus_dir = Path(corpus_dir)
        corpus_dir.mkdir(parents=True, exist_ok=True)
        for stale in corpus_dir.glob("corpus-*.json"):
            stale.unlink()
        paths = []
        for index, entry in enumerate(self.entries):
            path = corpus_dir / f"corpus-{index:04d}.json"
            path.write_text(
                json.dumps(entry.to_dict(), indent=2, sort_keys=True) + "\n"
            )
            paths.append(path)
        summary_path = corpus_dir / "summary.json"
        summary_path.write_text(
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"
        )
        paths.append(summary_path)
        return paths


def load_corpus(corpus_dir) -> Corpus:
    """Rebuild a corpus from a directory :meth:`Corpus.save` wrote.

    Entries replay through :meth:`Corpus.consider` in their saved order.
    Every archived entry was admitted when it was first considered, and
    rejected entries contributed no retained state, so the replay ends
    with exactly the coverage set and fitness records the saving session
    had — the property the ``--corpus-in`` determinism contract rests on
    (``considered`` restarts at the admitted count, which is all the
    saved session's survivors).
    """
    corpus_dir = Path(corpus_dir)
    corpus = Corpus()
    for path in sorted(corpus_dir.glob("corpus-*.json")):
        entry = CorpusEntry.from_dict(json.loads(path.read_text()))
        corpus.consider(entry)
    return corpus
