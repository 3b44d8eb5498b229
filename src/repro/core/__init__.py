"""ECFault — the paper's framework: Controller, Workers, Loggers.

The public experiment API most users want is
:func:`~repro.core.experiment.run_experiment` plus
:class:`~repro.core.profile.ExperimentProfile` and
:class:`~repro.core.fault_injector.FaultSpec`.
"""

from .controller import Controller
from .coordinator import Coordinator, ExperimentOutcome, ExperimentTimeout
from .experiment import run_experiment
from .fault_injector import (
    FAULT_LEVELS,
    GRAY_LEVELS,
    Colocation,
    CorruptionModel,
    FaultInjector,
    FaultSpec,
    FaultToleranceError,
)
from .logbus import BusMessage, LogBus
from .logger import ClassifiedRecord, LogCollector, NodeLogger, classify
from .profile import PAPER_CLAY_PROFILE, PAPER_RS_PROFILE, ExperimentProfile
from .report import Series, format_grouped_bars, format_table, normalise
from .sweep import SweepResult, run_cell
from .timeline import (
    FlapTimeline,
    RecoveryTimeline,
    ScrubTimeline,
    TimelineError,
    build_flap_timeline,
    build_scrub_timeline,
    build_timeline,
)
from .trace import (
    Anomaly,
    PgSpan,
    export_logs_jsonl,
    export_timeline_csv,
    find_anomalies,
    pg_recovery_spans,
)
from .wa import WaReport, chunk_stored_size, estimate_wa, measure_wa, theoretical_wa
from .worker import Worker, deploy_workers

__all__ = [
    "Controller",
    "Coordinator",
    "ExperimentOutcome",
    "ExperimentTimeout",
    "run_experiment",
    "FAULT_LEVELS",
    "GRAY_LEVELS",
    "Colocation",
    "CorruptionModel",
    "FaultInjector",
    "FaultSpec",
    "FaultToleranceError",
    "BusMessage",
    "LogBus",
    "ClassifiedRecord",
    "LogCollector",
    "NodeLogger",
    "classify",
    "PAPER_CLAY_PROFILE",
    "PAPER_RS_PROFILE",
    "ExperimentProfile",
    "run_cell",
    "SweepResult",
    "Series",
    "format_grouped_bars",
    "format_table",
    "normalise",
    "Anomaly",
    "PgSpan",
    "export_logs_jsonl",
    "export_timeline_csv",
    "find_anomalies",
    "pg_recovery_spans",
    "FlapTimeline",
    "RecoveryTimeline",
    "ScrubTimeline",
    "TimelineError",
    "build_timeline",
    "build_scrub_timeline",
    "build_flap_timeline",
    "WaReport",
    "chunk_stored_size",
    "estimate_wa",
    "measure_wa",
    "theoretical_wa",
    "Worker",
    "deploy_workers",
]
