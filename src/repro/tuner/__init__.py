"""Budgeted configuration auto-tuning (the paper's §6 "intelligent
mechanisms for tuning EC-based DSS automatically").

The subsystem turns the repo from "measure configurations" into "find
good configurations under a simulation budget":

* :mod:`~repro.tuner.space` — a typed parameter-space DSL with
  cross-axis constraints;
* :mod:`~repro.tuner.evaluator` — a budget-accounted, memoising,
  parallel-safe evaluator over the simulator;
* :mod:`~repro.tuner.strategies` — the exhaustive grid and successive
  halving;
* :mod:`~repro.tuner.pareto` — multi-objective fronts and scalarised
  recommendations under user budgets;
* :mod:`~repro.tuner.artifact` / :mod:`~repro.tuner.runner` — resumable
  JSON tuning reports and the end-to-end :func:`tune` loop behind
  ``ecfault tune`` and ``ecfault sweep``.
"""

from .artifact import (
    TuningArtifact,
    TuningArtifactError,
    load_tuning_artifact,
    save_tuning_artifact,
)
from .evaluator import (
    BudgetExhaustedError,
    Evaluator,
    Fidelity,
    Measurement,
    ReadProbe,
    TenantProbe,
    measure_degraded_p99,
    measure_tenant_slo_p99,
)
from .pareto import (
    DEGRADED_P99,
    RECOVERY_TIME,
    TENANT_SLO_P99,
    WRITE_AMPLIFICATION,
    Objective,
    ParetoRecommendation,
    default_objectives,
    dominates,
    pareto_front,
    recommend,
)
from .runner import TuningOutcome, top_fidelity_measurements, tune
from .space import (
    Axis,
    CategoricalAxis,
    Constraint,
    EcVariantAxis,
    TuningSpace,
    pool_width_fits,
    stripe_unit_divides,
)
from .strategies import GridSearch, Strategy, SuccessiveHalving

__all__ = [
    "TuningArtifact",
    "TuningArtifactError",
    "load_tuning_artifact",
    "save_tuning_artifact",
    "BudgetExhaustedError",
    "Evaluator",
    "Fidelity",
    "Measurement",
    "ReadProbe",
    "TenantProbe",
    "measure_degraded_p99",
    "measure_tenant_slo_p99",
    "DEGRADED_P99",
    "RECOVERY_TIME",
    "TENANT_SLO_P99",
    "WRITE_AMPLIFICATION",
    "Objective",
    "ParetoRecommendation",
    "default_objectives",
    "dominates",
    "pareto_front",
    "recommend",
    "TuningOutcome",
    "top_fidelity_measurements",
    "tune",
    "Axis",
    "CategoricalAxis",
    "Constraint",
    "EcVariantAxis",
    "TuningSpace",
    "pool_width_fits",
    "stripe_unit_divides",
    "Strategy",
    "GridSearch",
    "SuccessiveHalving",
]
