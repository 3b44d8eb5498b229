"""High-level experiment API: one call per (profile, workload, faults).

This is the public entry point the examples and benchmarks use::

    result = run_experiment(profile, workload, [FaultSpec(level="node")])
    result.total_recovery_time

:func:`run_experiment` is the one place a target DSS is built and its
cycle run; every preset (:func:`~repro.tenancy.experiment.
run_tenant_experiment`, :func:`~repro.geo.experiment.
run_stretch_experiment`) calls it.  :func:`iter_experiments` is the seed
loop behind §4.1's "average recovery time of three runs": same
configuration, different seeds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from ..workload.generator import Workload
from .controller import Controller
from .coordinator import Coordinator, ExperimentOutcome
from .fault_injector import FaultSpec
from .profile import ExperimentProfile

if TYPE_CHECKING:
    from ..tenancy import TenantFleetSpec

__all__ = ["run_experiment", "iter_experiments"]


def run_experiment(
    profile: ExperimentProfile,
    workload: Workload,
    faults: Optional[Sequence[FaultSpec]] = None,
    seed: int = 0,
    fleet_spec: Optional["TenantFleetSpec"] = None,
    warmup: float = 60.0,
    fault_duration: Optional[float] = None,
    settle_time: float = 200_000.0,
) -> ExperimentOutcome:
    """Build a fresh target DSS for ``profile`` and run one cycle.

    The keywords after ``seed`` are :meth:`Coordinator.run`'s: by default
    the faults are held after a 60 s warmup, with a 200,000 s budget per
    wait.  A bad timing is rejected before any cluster is built.
    """
    Coordinator.check_timing(warmup, fault_duration, settle_time)
    return Controller(profile, seed=seed).coordinator.run(
        workload,
        faults or (),
        fleet_spec,
        warmup=warmup,
        fault_duration=fault_duration,
        settle_time=settle_time,
    )


def iter_experiments(
    profile: ExperimentProfile,
    workload: Workload,
    faults: Sequence[FaultSpec],
    runs: int = 3,
    base_seed: int = 0,
) -> Iterator[ExperimentOutcome]:
    """:func:`run_experiment` ``runs`` times, run ``r`` at seed
    ``base_seed + r``, each outcome yielded before the next run starts."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    for run in range(runs):
        yield run_experiment(profile, workload, faults, seed=base_seed + run)
