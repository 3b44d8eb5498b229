"""Differential validation: the twin against the DES, case by case.

The twin is only useful if its error is *known*.  This module runs the
same configuration through both evaluators — :func:`repro.core.sweep.run_cell`
(the truth source) and :func:`repro.twin.cell.twin_run_cell` — over a grid
that spans the benchmark axes (fig2a cache schemes, fig2b pg counts,
fig2c stripe units, fig2d failure modes, table3 WA geometry, the gray
axis, HDD device class), then summarises two things per metric:

* **relative error** (median and max) — is each prediction close?
* **Spearman rank correlation** — does the twin *order* configurations
  the way the DES does?  This is the property the tuner actually relies
  on: a low-fidelity rung only has to rank candidates, not price them.

Bounds live in :data:`DEFAULT_BOUNDS`; the calibration report rendered
by :func:`render_report` is checked in under ``benchmarks/results/`` so
the documented error envelope travels with the code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.stats import spearman
from ..cluster.bluestore import CACHE_SCHEMES
from ..core.fault_injector import FaultSpec
from ..core.profile import ExperimentProfile
from ..core.sweep import run_cell
from ..workload.generator import Workload
from .cell import twin_run_cell

__all__ = [
    "DEFAULT_BOUNDS",
    "SPEARMAN_THRESHOLD",
    "DifferentialCase",
    "CaseResult",
    "MetricSummary",
    "CalibrationReport",
    "spearman",
    "default_grid",
    "run_differential",
    "render_report",
]

MB = 1024 * 1024
KB = 1024

#: Documented per-metric relative-error bounds (max over the grid).  WA
#: is closed-form-exact; total recovery time is dominated by the exact
#: checking-period arithmetic; the EC recovery period alone is a
#: queueing approximation and carries the widest envelope.
DEFAULT_BOUNDS: Dict[str, float] = {
    "wa_actual": 0.01,
    "recovery_time": 0.05,
    "ec_recovery_period": 0.30,
}

#: Minimum acceptable rank agreement on recovery time (the tuner's
#: ordering requirement, per the acceptance criteria).
SPEARMAN_THRESHOLD = 0.9


@dataclass(frozen=True)
class DifferentialCase:
    """One grid point: a profile + workload + fault load, run both ways."""

    name: str
    profile: ExperimentProfile
    workload: Workload
    faults: Tuple[FaultSpec, ...] = (FaultSpec(level="node", count=1),)
    seed: int = 3


@dataclass(frozen=True)
class CaseResult:
    """Both evaluations of one case plus per-metric relative errors."""

    name: str
    des: Dict[str, float]
    twin: Dict[str, float]

    def rel_error(self, metric: str) -> float:
        """|twin - des| / |des|; exact-zero agreement reads as 0.0."""
        truth = self.des[metric]
        predicted = self.twin[metric]
        if truth == 0.0:
            return 0.0 if predicted == 0.0 else math.inf
        return abs(predicted - truth) / abs(truth)


@dataclass(frozen=True)
class MetricSummary:
    """Error envelope of one metric over the whole grid."""

    metric: str
    bound: float
    median_rel_error: float
    max_rel_error: float
    rank_spearman: float
    cases: int

    @property
    def within_bound(self) -> bool:
        return self.max_rel_error <= self.bound


@dataclass(frozen=True)
class CalibrationReport:
    """The differential sweep's full outcome, ready to render and assert."""

    results: Tuple[CaseResult, ...]
    summaries: Dict[str, MetricSummary]
    spearman_threshold: float = SPEARMAN_THRESHOLD

    @property
    def passed(self) -> bool:
        if not self.summaries:
            return False
        if any(not s.within_bound for s in self.summaries.values()):
            return False
        recovery = self.summaries.get("recovery_time")
        if recovery is not None and recovery.cases >= 3:
            return recovery.rank_spearman >= self.spearman_threshold
        return True


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def default_grid(
    num_objects: int = 192, object_size: int = 8 * MB
) -> List[DifferentialCase]:
    """The differential grid: one case per benchmark axis worth ranking.

    Sized by ``num_objects`` so the tier-1 test can run a small, fast
    instance of the *same* grid the benchmark sweep runs larger.
    """
    workload = Workload(num_objects=num_objects, object_size=object_size)
    node = (FaultSpec(level="node", count=1),)

    def rs(name: str, **overrides) -> ExperimentProfile:
        settings = dict(
            name=name, ec_plugin="jerasure", ec_params={"k": 9, "m": 3}
        )
        settings.update(overrides)
        return ExperimentProfile(**settings)

    cases = [
        DifferentialCase("rs-baseline", rs("rs-baseline"), workload, node),
        # fig2a: cache schemes move metadata hit rates, hence read costs.
        DifferentialCase(
            "rs-kv-cache", rs("rs-kv-cache", cache_scheme="kv-optimized"),
            workload, node,
        ),
        DifferentialCase(
            "rs-data-cache", rs("rs-data-cache", cache_scheme="data-optimized"),
            workload, node,
        ),
        # fig2b: placement-group count changes recovery parallelism.
        DifferentialCase(
            "rs-pg16", rs("rs-pg16", pg_num=16), workload, node
        ),
        DifferentialCase(
            "rs-pg64", rs("rs-pg64", pg_num=64), workload, node
        ),
        # fig2c: stripe unit moves the IOPS/bandwidth balance.
        DifferentialCase(
            "rs-su-256k", rs("rs-su-256k", stripe_unit=256 * KB),
            workload, node,
        ),
        DifferentialCase(
            "rs-su-1m", rs("rs-su-1m", stripe_unit=1 * MB), workload, node
        ),
        # table3 / code geometry: sub-packetised and locality codes.
        DifferentialCase(
            "clay-baseline",
            rs("clay-baseline", ec_plugin="clay",
               ec_params={"k": 9, "m": 3, "d": 11}),
            workload, node,
        ),
        DifferentialCase(
            "lrc-8-2-2",
            rs("lrc-8-2-2", ec_plugin="lrc",
               ec_params={"k": 8, "l": 2, "r": 2}),
            workload, node,
        ),
        # fig2d: failure modes (device-level, multi-device).
        DifferentialCase(
            "rs-device-fault", rs("rs-device-fault"), workload,
            (FaultSpec(level="device", count=1),),
        ),
        DifferentialCase(
            "rs-two-devices", rs("rs-two-devices"), workload,
            (FaultSpec(level="device", count=2),),
        ),
        # device class: HDD flips the cluster into the IOPS-bound regime.
        DifferentialCase(
            "rs-hdd", rs("rs-hdd", device_class="hdd"), workload, node
        ),
        # gray axis: no osdmap change — both evaluators must report a
        # zero-length recovery cycle.
        DifferentialCase(
            "rs-gray-slow-disk", rs("rs-gray-slow-disk"), workload,
            (FaultSpec(level="slow_device", count=2, factor=4.0),),
        ),
    ]
    assert all(case.profile.cache_scheme in CACHE_SCHEMES for case in cases)
    return cases


def run_differential(
    cases: Optional[Sequence[DifferentialCase]] = None,
) -> CalibrationReport:
    """Run every case once through DES and twin, at the case's seed,
    and summarise the error envelope against :data:`DEFAULT_BOUNDS`."""
    cases = list(cases) if cases is not None else default_grid()
    results: List[CaseResult] = []
    for case in cases:
        des_row = run_cell(
            case.profile, case.workload, list(case.faults), 1, case.seed
        )
        twin_row = twin_run_cell(
            case.profile, case.workload, list(case.faults), 1, case.seed
        )
        results.append(
            CaseResult(
                name=case.name,
                des={
                    "recovery_time": des_row.recovery_time,
                    "wa_actual": des_row.wa_actual,
                    "checking_fraction": des_row.checking_fraction,
                    "ec_recovery_period": des_row.recovery_time
                    * (1.0 - des_row.checking_fraction),
                },
                twin={
                    "recovery_time": twin_row.recovery_time,
                    "wa_actual": twin_row.wa_actual,
                    "checking_fraction": twin_row.checking_fraction,
                    "ec_recovery_period": twin_row.recovery_time
                    * (1.0 - twin_row.checking_fraction),
                },
            )
        )
    summaries: Dict[str, MetricSummary] = {}
    for metric, bound in DEFAULT_BOUNDS.items():
        errors = [r.rel_error(metric) for r in results]
        # Rank agreement only means something across cases the DES
        # actually distinguishes (drop the zero-recovery gray cases).
        ranked = [r for r in results if r.des[metric] > 0.0]
        rho = spearman(
            [r.des[metric] for r in ranked],
            [r.twin[metric] for r in ranked],
        ) if len(ranked) >= 3 else 1.0
        summaries[metric] = MetricSummary(
            metric=metric,
            bound=bound,
            median_rel_error=_median(errors),
            max_rel_error=max(errors) if errors else 0.0,
            rank_spearman=rho,
            cases=len(ranked),
        )
    return CalibrationReport(results=tuple(results), summaries=summaries)


def render_report(report: CalibrationReport) -> str:
    """Plain-text calibration report (checked in under benchmarks/results)."""
    lines = ["Twin calibration: analytical model vs DES", ""]
    header = (
        f"{'case':<20} {'DES rec(s)':>11} {'twin rec(s)':>11} {'err':>7}"
        f" {'DES WA':>8} {'twin WA':>8} {'err':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.results:
        rec_err = row.rel_error("recovery_time")
        wa_err = row.rel_error("wa_actual")
        lines.append(
            f"{row.name:<20} {row.des['recovery_time']:>11.1f}"
            f" {row.twin['recovery_time']:>11.1f}"
            f" {rec_err:>6.1%}"
            f" {row.des['wa_actual']:>8.3f} {row.twin['wa_actual']:>8.3f}"
            f" {wa_err:>6.1%}"
        )
    lines.append("")
    for metric, summary in sorted(report.summaries.items()):
        verdict = "ok" if summary.within_bound else "EXCEEDED"
        lines.append(
            f"{metric}: median err {summary.median_rel_error:.1%}, "
            f"max err {summary.max_rel_error:.1%} "
            f"(bound {summary.bound:.0%}: {verdict}), "
            f"rank spearman {summary.rank_spearman:.3f} "
            f"over {summary.cases} cases"
        )
    lines.append(
        f"overall: {'PASS' if report.passed else 'FAIL'} "
        f"(spearman threshold {report.spearman_threshold})"
    )
    return "\n".join(lines)
