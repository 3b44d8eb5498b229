"""Per-tenant SLO accounting: latency tails, throughput, WA attribution.

Takes one tenant's raw samples and turns them into what an operator
(and the tuner) can act on: p50/p99/p999 latency, achieved throughput,
the tenant's share of write amplification, and — when the tenant
declared an :class:`~repro.tenancy.spec.SloSpec` — the *violation
windows*: fixed windows of the run where the tenant's p99 exceeded its
bound or its throughput fell under the floor.  Windows are what make
violations attributable: the chaos fairness invariant demands every
violation window overlap a fault window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.stats import percentile
from .fleet import TenantFleet, TenantRuntime
from .spec import SloSpec

__all__ = [
    "TenantReport",
    "build_tenant_report",
    "fleet_reports",
    "slo_violation_windows",
    "merge_windows",
]


def merge_windows(
    windows: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Coalesce touching/overlapping (start, end) windows, sorted."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def slo_violation_windows(
    samples,
    slo: SloSpec,
    started_at: float,
    duration: float,
) -> List[Tuple[float, float]]:
    """Fixed-window SLO judgement over one tenant's read samples.

    The run is cut into ``slo.window``-second windows from
    ``started_at``; a window violates when the p99 latency of the reads
    *issued* in it exceeds ``slo.p99_latency``, or (with a nonzero
    floor) its completed read throughput drops below
    ``slo.throughput_floor``.  Windows with no samples at all only
    violate the floor — an idle tenant cannot miss a latency bound.
    Adjacent violating windows merge into one reported interval.
    """
    if duration <= 0:
        return []
    buckets: Dict[int, List[Any]] = {}
    for sample in samples:
        index = int((sample.issued_at - started_at) // slo.window)
        if index >= 0:
            buckets.setdefault(index, []).append(sample)
    count = max(1, math.ceil(duration / slo.window))
    violations: List[Tuple[float, float]] = []
    for index in range(count):
        start = started_at + index * slo.window
        end = min(start + slo.window, started_at + duration)
        window_samples = buckets.get(index, [])
        bad = False
        if window_samples:
            p99 = percentile([s.latency for s in window_samples], 99)
            bad = p99 > slo.p99_latency
        if not bad and slo.throughput_floor > 0:
            span = max(end - start, 1e-9)
            completed = sum(
                s.bytes_read
                for s in window_samples
                if s.issued_at + s.latency <= end
            )
            bad = completed / span < slo.throughput_floor
        if bad:
            violations.append((start, end))
    return merge_windows(violations)


@dataclass(frozen=True)
class TenantReport:
    """One tenant's accounting over a run (a row of ``ecfault run --fleet``)."""

    name: str
    reads_ok: int
    read_failures: int
    degraded_fraction: float
    p50: Optional[float]
    p99: Optional[float]
    p999: Optional[float]
    read_bytes: int
    throughput: float
    writes_ok: int
    write_failures: int
    logical_write_bytes: int
    stored_write_bytes: int
    #: stored/logical over this tenant's committed writes — the tenant's
    #: write-amplification attribution (0 when it never wrote).
    wa_attributed: float
    slo: Optional[SloSpec]
    slo_violations: Tuple[Tuple[float, float], ...] = field(default=())

    @property
    def slo_met(self) -> Optional[bool]:
        """True/False under a declared SLO, None without one."""
        if self.slo is None:
            return None
        return not self.slo_violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "reads_ok": self.reads_ok,
            "read_failures": self.read_failures,
            "degraded_fraction": self.degraded_fraction,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "read_bytes": self.read_bytes,
            "throughput": self.throughput,
            "writes_ok": self.writes_ok,
            "write_failures": self.write_failures,
            "logical_write_bytes": self.logical_write_bytes,
            "stored_write_bytes": self.stored_write_bytes,
            "wa_attributed": self.wa_attributed,
            "slo": self.slo.to_dict() if self.slo is not None else None,
            "slo_met": self.slo_met,
            "slo_violations": [list(window) for window in self.slo_violations],
        }


def build_tenant_report(
    runtime: TenantRuntime, started_at: float, duration: float
) -> TenantReport:
    """Fold one tenant's raw samples into a :class:`TenantReport`."""
    reads = runtime.load.stats
    writes = runtime.load.write_stats
    latencies = [s.latency for s in reads.samples]
    read_bytes = sum(s.bytes_read for s in reads.samples)
    span = max(duration, 1e-9)
    logical = writes.logical_bytes
    stored = writes.stored_bytes
    slo = runtime.spec.slo
    return TenantReport(
        name=runtime.spec.name,
        reads_ok=len(reads.samples),
        read_failures=reads.failures,
        degraded_fraction=reads.degraded_fraction,
        p50=percentile(latencies, 50) if latencies else None,
        p99=percentile(latencies, 99) if latencies else None,
        p999=percentile(latencies, 99.9) if latencies else None,
        read_bytes=read_bytes,
        throughput=read_bytes / span,
        writes_ok=len(writes.samples),
        write_failures=writes.failures,
        logical_write_bytes=logical,
        stored_write_bytes=stored,
        wa_attributed=stored / logical if logical else 0.0,
        slo=slo,
        slo_violations=tuple(
            slo_violation_windows(reads.samples, slo, started_at, duration)
        )
        if slo is not None
        else (),
    )


def fleet_reports(fleet: TenantFleet) -> List[TenantReport]:
    """Per-tenant reports in spec order (requires the fleet to have run)."""
    if fleet.started_at is None:
        raise RuntimeError("fleet has not run; nothing to report")
    return [
        build_tenant_report(
            fleet.tenants[tenant.name], fleet.started_at, fleet.duration
        )
        for tenant in fleet.spec.tenants
    ]
