"""Resumable JSON tuning reports.

Every ``ecfault tune`` run checkpoints one JSON artifact after each
evaluation: the space fingerprint, seed, strategy and its search
settings, budget ledger, every measurement so far, and — once the run
completes — the Pareto front and the recommendation.  Because the
evaluator is deterministic and memoises by configuration signature, a
run resumed from a truncated artifact replays the strategy's decision
sequence against the cached measurements, re-simulates nothing it
already paid for, and lands on the same final recommendation as an
uninterrupted run.

Writes are atomic (temp file + ``os.replace``), so a tuning process
killed mid-checkpoint never leaves an unparseable artifact behind.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from .evaluator import Measurement
from .pareto import Objective

__all__ = [
    "TuningArtifact",
    "TuningArtifactError",
    "save_tuning_artifact",
    "load_tuning_artifact",
]

FORMAT = "ecfault-tuning-report"
VERSION = 1


class TuningArtifactError(ValueError):
    """The file is not a valid tuning report."""


@dataclass(frozen=True)
class TuningArtifact:
    """One tuning run's complete, replayable record."""

    seed: int
    strategy: str
    space: Dict[str, Any]
    budget: Optional[int]
    spent: int
    evaluations: Tuple[Measurement, ...]
    objectives: Tuple[Objective, ...] = ()
    #: What the search measures: the strategy's fidelities and the
    #: probe settings (None in a report that predates this key).
    search: Optional[Dict[str, Any]] = None
    #: Signatures of the non-dominated front (present when complete).
    front: Tuple[str, ...] = ()
    #: The scalarised pick's signature + label (present when complete).
    recommendation: Optional[Dict[str, Any]] = None
    complete: bool = False

    def with_evaluation(self, measurement: Measurement, spent: int) -> "TuningArtifact":
        return replace(
            self,
            evaluations=self.evaluations + (measurement,),
            spent=spent,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": FORMAT,
            "version": VERSION,
            "seed": self.seed,
            "strategy": self.strategy,
            "space": self.space,
            "budget": self.budget,
            "spent": self.spent,
            "evaluations": [m.to_dict() for m in self.evaluations],
            "objectives": [o.to_dict() for o in self.objectives],
            "search": self.search,
            "front": list(self.front),
            "recommendation": self.recommendation,
            "complete": self.complete,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "TuningArtifact":
        if not isinstance(data, dict):
            raise TuningArtifactError("artifact root must be a JSON object")
        if data.get("format") != FORMAT:
            raise TuningArtifactError(
                f"not a {FORMAT} artifact (format={data.get('format')!r})"
            )
        if data.get("version") != VERSION:
            raise TuningArtifactError(
                f"unsupported artifact version {data.get('version')!r} "
                f"(supported: {VERSION})"
            )
        try:
            return cls(
                seed=int(data["seed"]),
                strategy=str(data["strategy"]),
                space=dict(data["space"]),
                budget=data["budget"],
                spent=int(data["spent"]),
                evaluations=tuple(
                    Measurement.from_dict(m) for m in data["evaluations"]
                ),
                objectives=tuple(
                    Objective.from_dict(o) for o in data.get("objectives", [])
                ),
                search=data.get("search"),
                front=tuple(data.get("front", [])),
                recommendation=data.get("recommendation"),
                complete=bool(data.get("complete", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TuningArtifactError(f"malformed tuning artifact: {exc}") from exc


def save_tuning_artifact(artifact: TuningArtifact, path) -> pathlib.Path:
    """Atomically write an artifact as canonical JSON; returns the path."""
    target = pathlib.Path(path)
    if target.parent:
        target.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(artifact.to_dict(), indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=str(target.parent or ".")
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def load_tuning_artifact(path) -> TuningArtifact:
    """Read and validate a tuning artifact.

    Raises :class:`TuningArtifactError` on anything that is not a
    well-formed report (unreadable file, bad JSON, wrong format marker,
    missing fields).
    """
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except OSError as exc:
        raise TuningArtifactError(f"cannot read artifact {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TuningArtifactError(f"artifact {path} is not valid JSON: {exc}") from exc
    return TuningArtifact.from_dict(data)
