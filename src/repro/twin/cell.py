"""Drop-in analytical replacement for :func:`repro.core.sweep.run_cell`.

Same signature, same :class:`~repro.core.sweep.SweepResult` row shape, so
every consumer of the DES cell quantum — the tuner's evaluator, which
also runs the sweep grid, and artifact serialisation — can be pointed
at the twin without knowing the difference.  The twin is deterministic, so ``runs`` and
``base_seed`` do not change the numbers; they are kept in the signature
(and ``runs`` echoed into the row) for interface fidelity.
"""

from __future__ import annotations

from typing import List

from ..core.fault_injector import FaultSpec
from ..core.profile import ExperimentProfile
from ..core.sweep import SweepResult
from ..workload.generator import Workload
from .model import AnalyticalTwin

__all__ = ["twin_run_cell"]


def twin_run_cell(
    profile: ExperimentProfile,
    workload: Workload,
    faults: List[FaultSpec],
    runs: int,
    base_seed: int,
) -> SweepResult:
    """Evaluate one grid cell analytically; returns a DES-shaped row."""
    prediction = AnalyticalTwin().predict(profile, workload, faults)
    return SweepResult(
        label=prediction.label,
        settings=prediction.settings,
        recovery_time=prediction.recovery_time,
        checking_fraction=prediction.checking_fraction,
        wa_actual=prediction.wa_actual,
        runs=runs,
    )
