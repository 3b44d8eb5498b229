"""High-level experiment API: one call per (profile, workload, faults).

This is the public entry point the examples and benchmarks use::

    result = run_experiment(profile, workload, [FaultSpec(level="node")])
    result.total_recovery_time

:func:`iter_experiments` is the seed loop behind §4.1's "average
recovery time of three runs": same configuration, different seeds.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..workload.generator import Workload
from .controller import Controller
from .coordinator import ExperimentOutcome
from .fault_injector import FaultSpec
from .profile import ExperimentProfile

__all__ = ["run_experiment", "iter_experiments"]


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

