"""Write-amplification measurement and estimation (§4.4).

Two sides of Table 3 live here:

* :func:`measure_wa` — the *Actual WA Factor*: OSD-level storage usage
  (allocations + metadata, straight from the BlueStore accounting)
  divided by the client write volume.
* :func:`estimate_wa` — the paper's estimation formula built on the
  division-and-padding policy::

      S_chunk = S_unit * ceil(S_object / (k * S_unit))
      WA      = (n * S_chunk + S_meta) / S_object

  which lower-bounds the actual WA more tightly than the theoretical
  n/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cluster.ceph import CephCluster

__all__ = [
    "WaReport",
    "theoretical_wa",
    "chunk_stored_size",
    "estimate_wa",
    "measure_wa",
]


@dataclass(frozen=True)
class WaReport:
    """One WA measurement: the Table 3 row plus its inputs."""

    code_label: str
    n: int
    k: int
    stripe_unit: int
    workload_bytes: int
    used_bytes: int

    @property
    def theoretical(self) -> float:
        """n/k, the factor "widely used for calculating EC storage overhead"."""
        return self.n / self.k

    @property
    def actual(self) -> float:
        """The Actual WA Factor: OSD usage / client write volume."""
        if self.workload_bytes == 0:
            return 0.0
        return self.used_bytes / self.workload_bytes

    @property
    def excess_percent(self) -> float:
        """The Table 3 "Diff. %": how far actual exceeds theoretical."""
        return (self.actual / self.theoretical - 1.0) * 100.0


def theoretical_wa(n: int, k: int) -> float:
    """The theoretical amplification factor n/k."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return n / k


def chunk_stored_size(object_size: int, k: int, stripe_unit: int) -> int:
    """The paper's S_chunk = S_unit * ceil(S_object / (k * S_unit))."""
    if object_size < 0 or k < 1 or stripe_unit < 1:
        raise ValueError("invalid geometry")
    return stripe_unit * max(1, math.ceil(object_size / (k * stripe_unit)))


def estimate_wa(
    object_size: int,
    n: int,
    k: int,
    stripe_unit: int,
    meta_bytes: int = 0,
) -> float:
    """The paper's WA estimate (n * S_chunk + S_meta) / S_object.

    With ``meta_bytes`` unknown (the common case — "the value of S_meta
    may not be readily available"), the result is a lower bound on the
    actual WA that is still tighter than n/k.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if object_size <= 0:
        raise ValueError("object_size must be positive")
    if meta_bytes < 0:
        raise ValueError("meta_bytes must be non-negative")
    s_chunk = chunk_stored_size(object_size, k, stripe_unit)
    return (n * s_chunk + meta_bytes) / object_size


def measure_wa(cluster: CephCluster, workload_bytes: int) -> WaReport:
    """Measure the Actual WA Factor on a cluster after workload ingest.

    Reads the OSD-level usage (the sum of every OSD's allocations and
    metadata) — the same measurement point as the paper's Table 3.
    """
    if workload_bytes < 0:
        raise ValueError("workload_bytes must be non-negative")
    code = cluster.pool.code
    return WaReport(
        code_label=f"{code.plugin_name}({code.n},{code.k})",
        n=code.n,
        k=code.k,
        stripe_unit=cluster.pool.stripe_unit,
        workload_bytes=workload_bytes,
        used_bytes=cluster.used_bytes_total(),
    )
