"""The tuning loop: strategy x evaluator x artifact, end to end.

:func:`tune` wires the pieces together: it builds the budgeted
evaluator, replays any prior artifact into its cache (resume), runs the
strategy, computes the Pareto front and scalarised recommendation over
the top-fidelity measurements, and checkpoints a resumable artifact
after every single evaluation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.fault_injector import FaultSpec
from .artifact import (
    TuningArtifact,
    TuningArtifactError,
    load_tuning_artifact,
    save_tuning_artifact,
)
from .evaluator import Evaluator, Measurement, ReadProbe, TenantProbe
from .pareto import Objective, ParetoRecommendation, default_objectives, recommend
from .space import TuningSpace
from .strategies import Strategy

__all__ = ["TuningOutcome", "top_fidelity_measurements", "tune"]

MB = 1024 * 1024


@dataclass(frozen=True)
class TuningOutcome:
    """Everything one tuning run produced."""

    artifact: TuningArtifact
    evaluations: Tuple[Measurement, ...]
    front: Tuple[Measurement, ...]
    recommendation: Optional[ParetoRecommendation]
    spent: int
    simulations: int

    @property
    def budget(self) -> Optional[int]:
        return self.artifact.budget


def top_fidelity_measurements(
    evaluations: Sequence[Measurement],
) -> List[Measurement]:
    """The measurements taken at the most expensive fidelity present.

    Fronts must compare like with like: recovery time scales with the
    simulated object count, so mixing rungs would crown low-fidelity
    noise.  The recommendation, and ``ecfault analyze``, therefore use
    only the final (highest-cost) rung.
    """
    if not evaluations:
        return []
    top = max(m.fidelity.cost for m in evaluations)
    return [m for m in evaluations if m.fidelity.cost == top]


def _differences(recorded: Any, requested: Any, path: str) -> List[str]:
    """One line per leaf where a report's JSON value and this run's differ."""
    if isinstance(recorded, dict) and isinstance(requested, dict):
        return [
            line
            for key in sorted(set(recorded) | set(requested))
            for line in _differences(
                recorded.get(key), requested.get(key), f"{path}.{key}"
            )
        ]
    if recorded == requested:
        return []
    return [f"{path}: {json.dumps(recorded, sort_keys=True)} in the report, "
            f"{json.dumps(requested, sort_keys=True)} requested"]


def _refuse_mismatch(what: str, key: str, recorded: Any, requested: Any) -> None:
    """Refuse to resume a report whose ``key`` differs from this run's,
    naming each differing field with both values."""
    differences = _differences(recorded, requested, key)
    if differences:
        raise TuningArtifactError(
            f"artifact does not match this run's {what}: "
            + "; ".join(differences)
        )


def tune(
    space: TuningSpace,
    strategy: Strategy,
    *,
    seed: int = 0,
    object_size: int = 8 * MB,
    faults: Optional[Sequence[FaultSpec]] = None,
    budget: Optional[int] = None,
    workers: int = 1,
    probe: Optional[ReadProbe] = None,
    tenant_probe: Optional[TenantProbe] = None,
    objectives: Optional[Sequence[Objective]] = None,
    artifact_path=None,
    resume: bool = False,
    run_cell_fn: Optional[Callable] = None,
    on_progress: Optional[Callable[[Measurement, Evaluator], None]] = None,
) -> TuningOutcome:
    """Run one budgeted tuning session; returns the full outcome.

    With ``resume=True`` and an existing ``artifact_path``, prior
    evaluations are replayed into the evaluator's cache and the budget
    ledger is restored, so the strategy re-traces its deterministic
    decision path without re-simulating anything already paid for.  The
    artifact must match this run's space (the base profile's fields
    included), seed, strategy, search settings (the strategy's
    fidelities, the probes, the object size and the faults) and budget;
    only the objectives, which re-rank the same measurements, may
    change.  A mismatch raises :class:`TuningArtifactError` naming each
    differing field with both values.
    """
    if objectives is None:
        objectives = default_objectives(
            include_p99=probe is not None,
            include_tenant_p99=tenant_probe is not None,
        )
    objectives = tuple(objectives)
    log: List[Measurement] = []
    state: Dict[str, TuningArtifact] = {}

    def record(measurement: Measurement) -> None:
        log.append(measurement)
        state["artifact"] = state["artifact"].with_evaluation(
            measurement, evaluator.spent
        )
        if artifact_path is not None:
            save_tuning_artifact(state["artifact"], artifact_path)
        if on_progress is not None:
            on_progress(measurement, evaluator)

    evaluator = Evaluator(
        space,
        object_size=object_size,
        faults=faults,
        base_seed=seed,
        budget=budget,
        workers=workers,
        probe=probe,
        tenant_probe=tenant_probe,
        run_cell_fn=run_cell_fn,
        on_result=record,
    )
    # Through JSON, as a reloaded report holds it (tuples become lists).
    search = json.loads(json.dumps({
        **strategy.describe(),
        "probe": probe.to_dict() if probe is not None else None,
        "tenant_probe": (
            tenant_probe.to_dict() if tenant_probe is not None else None
        ),
        "object_size": evaluator.object_size,
        "faults": [asdict(spec) for spec in evaluator.faults],
    }))

    prior: Optional[TuningArtifact] = None
    if resume:
        if artifact_path is None:
            raise ValueError("resume=True requires an artifact_path")
        prior = load_tuning_artifact(artifact_path)
        _refuse_mismatch("tuning space", "space", prior.space, space.describe())
        if prior.seed != seed:
            raise TuningArtifactError(
                f"artifact seed {prior.seed} != requested seed {seed}"
            )
        if prior.strategy != strategy.name:
            raise TuningArtifactError(
                f"artifact strategy {prior.strategy!r} != {strategy.name!r}"
            )
        _refuse_mismatch("search settings", "search", prior.search, search)
        if prior.budget != budget:
            raise TuningArtifactError(
                f"artifact budget {prior.budget!r} != requested {budget!r}"
            )
        log.extend(prior.evaluations)
        evaluator.seed_cache(prior.evaluations)
        evaluator.spent = prior.spent

    state["artifact"] = TuningArtifact(
        seed=seed,
        strategy=strategy.name,
        space=space.describe(),
        budget=budget,
        spent=evaluator.spent,
        evaluations=tuple(log),
        objectives=objectives,
        search=search,
    )

    strategy.search(space, evaluator)

    finals = top_fidelity_measurements(log)
    recommendation = recommend(finals, objectives) if finals else None
    final_artifact = replace(
        state["artifact"],
        spent=evaluator.spent,
        evaluations=tuple(log),
        front=tuple(m.signature for m in recommendation.front)
        if recommendation
        else (),
        recommendation=(
            {
                "signature": recommendation.chosen.signature,
                "label": recommendation.chosen.label,
                "settings": recommendation.chosen.settings,
                "feasible": recommendation.feasible,
            }
            if recommendation
            else None
        ),
        complete=True,
    )
    if artifact_path is not None:
        save_tuning_artifact(final_artifact, artifact_path)
    return TuningOutcome(
        artifact=final_artifact,
        evaluations=tuple(log),
        front=tuple(recommendation.front) if recommendation else (),
        recommendation=recommendation,
        spent=evaluator.spent,
        simulations=evaluator.simulations,
    )
