"""One grid cell: a configuration's measurements averaged over seeds.

:func:`run_cell` is the single-configuration quantum the tuner's
evaluator runs for every point of a grid (``ecfault sweep`` is the
tuner's :class:`~repro.tuner.GridSearch`), and :class:`SweepResult` is
the row it returns, which :func:`~repro.twin.twin_run_cell` and
:func:`~repro.analysis.rank_axes` speak too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..workload.generator import Workload
from .experiment import iter_experiments
from .fault_injector import FaultSpec
from .profile import ExperimentProfile

__all__ = ["SweepResult", "run_cell"]


@dataclass(frozen=True)
class SweepResult:
    """One grid cell's measurements (averaged over seeds)."""

    label: str
    settings: Dict[str, Any]
    recovery_time: float
    checking_fraction: float
    wa_actual: float
    runs: int


def run_cell(
    profile: ExperimentProfile,
    workload: Workload,
    faults: List[FaultSpec],
    runs: int,
    base_seed: int,
) -> SweepResult:
    """Run one grid cell: ``runs`` experiments averaged into a result row.

    The runs are :func:`~repro.core.experiment.iter_experiments`'s, so
    run ``r`` uses seed ``base_seed + r``, and only their floats are
    kept.  Module-level so the tuner's worker processes can pickle it.
    """
    times: List[float] = []
    fractions: List[float] = []
    was: List[float] = []
    for outcome in iter_experiments(
        profile, workload, faults, runs=runs, base_seed=base_seed
    ):
        was.append(outcome.wa.actual)
        if outcome.timeline is not None:
            times.append(outcome.timeline.total_recovery)
            fractions.append(outcome.timeline.checking_fraction)
        del outcome  # release this run's cluster before the next is built
    settings = {
        "ec_plugin": profile.ec_plugin,
        "ec_params": dict(profile.ec_params),
        "pg_num": profile.pg_num,
        "stripe_unit": profile.stripe_unit,
        "cache_scheme": profile.cache_scheme,
        "failure_domain": profile.failure_domain,
    }
    return SweepResult(
        label=profile.name,
        settings=settings,
        recovery_time=sum(times) / len(times) if times else 0.0,
        checking_fraction=sum(fractions) / len(fractions) if fractions else 0.0,
        wa_actual=sum(was) / len(was),
        runs=runs,
    )
