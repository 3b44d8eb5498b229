"""Object-to-chunk layout: the division-and-padding policy (§4.4).

An object written to an erasure-coded pool is split into k data chunks of
``object_size / k``.  An undersized chunk is padded up to ``stripe_unit``;
an oversized chunk is divided into ``ceil(object_size / (k * stripe_unit))``
encoding units, the last of which is padded to ``stripe_unit``.  Hence the
paper's per-chunk storage formula::

    S_chunk = S_unit * ceil(S_object / (k * S_unit))

Everything downstream — the simulator's I/O charging, the WA measurement,
and the Table 3 / formula-validation benchmarks — derives chunk geometry
from :func:`layout_object` so the policy exists in exactly one place.

The module also owns the *data integrity* primitives BlueStore attaches to
that geometry: a pure-Python crc32c (Castagnoli, the polynomial BlueStore
uses for its per-block checksums) and :func:`block_checksums`, which cuts
a chunk into ``csum_block_size`` blocks and checksums each one.  The scrub
subsystem (:mod:`repro.cluster.scrub`) verifies chunks against exactly
these values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = [
    "ChunkLayout",
    "layout_object",
    "crc32c",
    "block_checksums",
    "blocks_in",
]


def _make_crc32c_table() -> List[int]:
    poly = 0x82F63B78  # Castagnoli, reflected.
    table = []
    for index in range(256):
        crc = index
        for _ in range(8):
            crc = (crc >> 1) ^ (poly if crc & 1 else 0)
        table.append(crc)
    return table


_CRC32C_TABLE = _make_crc32c_table()


def crc32c(data: bytes, value: int = 0) -> int:
    """crc32c (Castagnoli) of ``data``, continuing from ``value``.

    The same checksum BlueStore stores per ``csum_block`` in the onode;
    table-driven pure Python, fast enough for the chunk sizes the
    data-plane tests and examples use.
    """
    crc = value ^ 0xFFFFFFFF
    table = _CRC32C_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def blocks_in(nbytes: int, csum_block_size: int) -> int:
    """Number of checksum blocks covering ``nbytes`` of chunk data."""
    if csum_block_size <= 0:
        raise ValueError(f"csum_block_size must be positive, got {csum_block_size}")
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    return max(1, -(-nbytes // csum_block_size))


def block_checksums(data: bytes, csum_block_size: int) -> Tuple[int, ...]:
    """Per-block crc32c values of one chunk at the given granularity.

    A zero-length chunk still carries one checksum (of the empty block):
    the onode anchors csum metadata the same way it anchors an extent.
    """
    count = blocks_in(len(data), csum_block_size)
    return tuple(
        crc32c(data[i * csum_block_size : (i + 1) * csum_block_size])
        for i in range(count)
    )


@dataclass(frozen=True)
class ChunkLayout:
    """Geometry of one object's EC stripe set.

    ``units`` is the number of stripe-unit encoding extents per chunk;
    ``chunk_stored_bytes`` the padded on-disk size of every chunk.
    """

    object_size: int
    n: int
    k: int
    stripe_unit: int
    units: int
    chunk_stored_bytes: int


def layout_object(object_size: int, n: int, k: int, stripe_unit: int) -> ChunkLayout:
    """Apply the division-and-padding policy to one object.

    Raises ``ValueError`` for non-positive geometry.  A zero-byte object
    still occupies one unit per chunk (the onode must anchor an extent),
    matching BlueStore behaviour.
    """
    if object_size < 0:
        raise ValueError(f"negative object size: {object_size}")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if stripe_unit <= 0:
        raise ValueError(f"stripe_unit must be positive, got {stripe_unit}")
    units = max(1, -(-object_size // (k * stripe_unit)))
    return ChunkLayout(
        object_size=object_size,
        n=n,
        k=k,
        stripe_unit=stripe_unit,
        units=units,
        chunk_stored_bytes=units * stripe_unit,
    )
