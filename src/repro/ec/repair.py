"""Repair-traffic accounting helpers.

Turns a :class:`~repro.ec.base.RepairPlan` plus concrete chunk geometry
into byte/operation counts the cluster simulator (and the benchmarks)
charge to disks and NICs.  Keeping this arithmetic in one place means the
"Clay reads 1/q of each helper" property is applied identically in unit
tests, the simulator, and the figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .base import RepairPlan

__all__ = ["RepairTraffic", "traffic_for_plan"]


@dataclass(frozen=True)
class RepairTraffic:
    """Concrete I/O cost of one stripe repair.

    ``read_bytes_by_chunk`` maps chunk index -> bytes read from that
    helper; ``read_ops_by_chunk`` the disk operations issued there.
    ``write_bytes`` is what lands on the replacement device(s).
    """

    read_bytes_by_chunk: Dict[int, int]
    read_ops_by_chunk: Dict[int, int]
    write_bytes: int
    write_ops: int
    decode_work: float


def traffic_for_plan(
    plan: RepairPlan, chunk_bytes: int, units_per_chunk: int
) -> RepairTraffic:
    """Expand a repair plan into byte/op counts for one stripe.

    ``chunk_bytes`` is the stored size of one chunk; ``units_per_chunk``
    is how many stripe-unit extents a full sequential chunk read touches
    (each extent is one disk operation; sub-chunk plans multiply that by
    the plan's per-extent ``io_ops``).
    """
    if chunk_bytes <= 0 or units_per_chunk <= 0:
        raise ValueError("chunk_bytes and units_per_chunk must be positive")
    read_bytes: Dict[int, int] = {}
    read_ops: Dict[int, int] = {}
    for read in plan.reads:
        read_bytes[read.chunk_index] = int(round(chunk_bytes * read.fraction))
        if read.fraction >= 1.0:
            read_ops[read.chunk_index] = units_per_chunk
        else:
            read_ops[read.chunk_index] = max(units_per_chunk, 1) * read.io_ops
    write_bytes = chunk_bytes * len(plan.lost)
    write_ops = units_per_chunk * len(plan.lost)
    return RepairTraffic(
        read_bytes_by_chunk=read_bytes,
        read_ops_by_chunk=read_ops,
        write_bytes=write_bytes,
        write_ops=write_ops,
        decode_work=plan.decode_work,
    )

