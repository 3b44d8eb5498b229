"""Stretch-cluster experiments: one run, WAN ledger included.

:func:`run_stretch_experiment` runs one experiment cycle on a stretch
cluster, and :meth:`GeoOutcome.of` folds the WAN fabric's counters and
egress ledger, read off the outcome's cluster, into a :class:`GeoOutcome`
with a canonical digest — the same replay contract the chaos engine
uses, scoped to the stretch-cluster metrics.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.coordinator import ExperimentOutcome
from ..core.digest import canonical_json
from ..core.experiment import run_experiment
from ..core.fault_injector import FaultSpec
from ..core.profile import ExperimentProfile
from ..workload.generator import Workload

__all__ = ["GeoOutcome", "run_stretch_experiment"]


@dataclass(frozen=True)
class GeoOutcome:
    """Everything geo-observable one stretch experiment produced."""

    profile_name: str
    num_regions: int
    locality_aware: bool
    #: Held faults: the recovery timeline's detection -> recovery
    #: finished.  Restored faults: the first recovery I/O to the last PG
    #: finished (0.0 when nothing recovered).
    total_recovery_time: float
    objects_recovered: int
    #: Recovery-side accounting (what the repair paths charged).
    cross_region_bytes_read: int
    cross_region_bytes_written: int
    cross_region_pulls: int
    cross_region_pushes: int
    #: Fabric-side accounting (what the WAN actually delivered).
    wan_cross_region_bytes: int
    wan_cross_region_transfers: int
    wan_partition_refusals: int
    egress_bytes_by_region: Tuple[int, ...]
    egress_cost: float

    @classmethod
    def of(
        cls, profile: ExperimentProfile, outcome: ExperimentOutcome
    ) -> "GeoOutcome":
        """The stretch bill of ``outcome``, a run of the multi-region
        ``profile``: the recovery ledger's cross-region split beside
        what the WAN fabric delivered and metered."""
        stats = outcome.recovery_stats
        if outcome.converged is None:  # the faults were held
            recovery_time = (
                outcome.timeline.total_recovery
                if outcome.timeline is not None
                else 0.0
            )
        else:
            recovery_time = (
                stats.finished_at - stats.io_started_at
                if stats.io_started_at is not None
                and stats.finished_at is not None
                else 0.0
            )
        wan = outcome.cluster.topology.wan
        assert wan is not None  # guaranteed by num_regions > 1
        egress: List[int] = list(wan.ledger.egress_bytes_by_region)
        while len(egress) < profile.num_regions:
            egress.append(0)
        return cls(
            profile_name=profile.name,
            num_regions=profile.num_regions,
            locality_aware=profile.ceph.recovery_locality_aware,
            total_recovery_time=recovery_time,
            objects_recovered=stats.objects_recovered,
            cross_region_bytes_read=stats.cross_region_bytes_read,
            cross_region_bytes_written=stats.cross_region_bytes_written,
            cross_region_pulls=stats.cross_region_pulls,
            cross_region_pushes=stats.cross_region_pushes,
            wan_cross_region_bytes=wan.cross_region_bytes,
            wan_cross_region_transfers=wan.cross_region_transfers,
            wan_partition_refusals=wan.wan_partition_refusals,
            egress_bytes_by_region=tuple(egress),
            egress_cost=wan.ledger.total_cost,
        )

    @property
    def cross_region_repair_bytes(self) -> int:
        """Total repair bytes that crossed a region boundary."""
        return self.cross_region_bytes_read + self.cross_region_bytes_written

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["egress_bytes_by_region"] = list(self.egress_bytes_by_region)
        return data

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (same seed, same digest)."""
        payload = canonical_json(self.to_dict()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def run_stretch_experiment(
    profile: ExperimentProfile,
    workload: Workload,
    faults: Optional[Sequence[FaultSpec]] = None,
    seed: int = 0,
    locality_aware: bool = True,
    warmup: float = 60.0,
    fault_duration: Optional[float] = None,
    settle_time: float = 200_000.0,
) -> GeoOutcome:
    """Run one experiment on a stretch cluster and harvest the WAN ledger.

    ``profile`` must describe a multi-region cluster (``num_regions > 1``
    — that is what makes the WAN fabric and region rule exist).
    ``locality_aware`` toggles the recovery manager's in-region helper
    preference, which is the A/B the geo benchmark and the
    ``stretch_cluster`` example compare.

    The timing is :func:`~repro.core.experiment.run_experiment`'s.  A
    ``fault_duration`` restores every fault that many sim seconds after
    injection and gives the cluster ``settle_time`` to converge — the
    shape region-level faults need, since a spread-wide region outage
    leaves displaced PGs unplaceable until the region returns.  ``None``
    holds the faults (wait for the victims' mark-out and full recovery,
    ``settle_time`` per wait), which suits permanent node/device faults.
    """
    if profile.num_regions <= 1:
        raise ValueError(
            "run_stretch_experiment needs a multi-region profile "
            f"(num_regions={profile.num_regions})"
        )
    profile = profile.with_overrides(
        ceph=replace(profile.ceph, recovery_locality_aware=locality_aware)
    )
    outcome = run_experiment(
        profile,
        workload,
        faults,
        seed=seed,
        warmup=warmup,
        fault_duration=fault_duration,
        settle_time=settle_time,
    )
    return GeoOutcome.of(profile, outcome)
