"""High-level experiment API: one call per (profile, workload, faults).

This is the public entry point the examples and benchmarks use::

    result = run_experiment(profile, workload, [FaultSpec(level="node")])
    result.total_recovery_time

``repeat_experiment`` mirrors §4.1's "average recovery time of three
runs": same configuration, different seeds, averaged.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from ..workload.generator import Workload
from .controller import Controller
from .coordinator import ExperimentOutcome
from .fault_injector import FaultSpec
from .profile import ExperimentProfile

__all__ = [
    "run_experiment", "iter_experiments", "repeat_experiment", "RepeatedResult",
]


def run_experiment(
    profile: ExperimentProfile,
    workload: Workload,
    faults: Optional[Sequence[FaultSpec]] = None,
    seed: int = 0,
    settle_time: float = 60.0,
    max_sim_time: float = 200_000.0,
) -> ExperimentOutcome:
    """Build a fresh target DSS for ``profile`` and run one experiment.

    The faults are held (see :meth:`Controller.run_experiment`).
    """
    controller = Controller(profile, seed=seed)
    return controller.run_experiment(
        workload,
        list(faults or []),
        settle_time=settle_time,
        max_sim_time=max_sim_time,
    )


@dataclass(frozen=True)
class RepeatedResult:
    """Aggregate over repeated runs of one configuration."""

    outcomes: tuple

    @property
    def recovery_times(self) -> List[float]:
        return [o.total_recovery_time for o in self.outcomes]

    @property
    def mean_recovery_time(self) -> float:
        return statistics.fmean(self.recovery_times)

    @property
    def stdev_recovery_time(self) -> float:
        times = self.recovery_times
        return statistics.stdev(times) if len(times) > 1 else 0.0

    @property
    def mean_checking_fraction(self) -> float:
        return statistics.fmean(
            o.timeline.checking_fraction for o in self.outcomes
        )


def iter_experiments(
    profile: ExperimentProfile,
    workload: Workload,
    faults: Sequence[FaultSpec],
    runs: int = 3,
    base_seed: int = 0,
    **options,
) -> Iterator[ExperimentOutcome]:
    """:func:`run_experiment` ``runs`` times, run ``r`` at seed
    ``base_seed + r``, each outcome yielded before the next run starts."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    for run in range(runs):
        yield run_experiment(
            profile, workload, faults, seed=base_seed + run, **options
        )


def repeat_experiment(
    profile: ExperimentProfile,
    workload: Workload,
    faults: Sequence[FaultSpec],
    runs: int = 3,
    base_seed: int = 0,
    settle_time: float = 60.0,
    max_sim_time: float = 200_000.0,
) -> RepeatedResult:
    """Run the same configuration ``runs`` times with distinct seeds."""
    return RepeatedResult(outcomes=tuple(iter_experiments(
        profile, workload, faults, runs, base_seed,
        settle_time=settle_time, max_sim_time=max_sim_time,
    )))
