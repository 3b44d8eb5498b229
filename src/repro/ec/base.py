"""Erasure-code plugin interface and registry.

Mirrors Ceph's EC plugin architecture (Table 1 of the paper): a pool's
profile names a plugin (``jerasure``, ``isa``, ``clay``, ``lrc``,
``shec``) plus per-plugin parameters, and the pool resolves it through the
registry here.  Every plugin implements the same byte-level contract:

* ``encode`` splits an object into k data chunks and computes m parity
  chunks (systematic codes only — all of Ceph's are);
* ``decode_chunks`` reconstructs the requested missing chunks from any
  sufficient subset;
* ``repair_plan`` describes the I/O a real repair would perform — which
  chunks are read, what fraction of each (sub-packetised codes read less
  than a full chunk), and how many disk operations the read decomposes
  into.  The cluster simulator charges exactly this plan, so repair-traffic
  differences between codes *emerge* from the code implementations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Type

import numpy as np

__all__ = [
    "ChunkUnavailableError",
    "InsufficientChunksError",
    "RepairRead",
    "RepairPlan",
    "ErasureCode",
    "register_plugin",
    "create_plugin",
    "available_plugins",
]


class ChunkUnavailableError(ValueError):
    """A requested chunk index does not exist for this code."""


class InsufficientChunksError(ValueError):
    """The surviving chunk set cannot reconstruct the requested data."""


@dataclass(frozen=True)
class RepairRead:
    """One helper read in a repair plan.

    ``fraction`` is the portion of the helper chunk that must be read
    (1.0 for Reed–Solomon; alpha-fractional for sub-packetised codes).
    ``io_ops`` is how many distinct disk operations the read decomposes
    into *per stripe-unit-sized extent*; sub-chunk reads are scattered, so
    Clay issues many small operations where RS issues one sequential one.
    """

    chunk_index: int
    fraction: float
    io_ops: int


@dataclass(frozen=True)
class RepairPlan:
    """The I/O recipe to rebuild ``lost`` from ``reads``.

    ``decode_work`` is a dimensionless CPU-cost multiplier relative to a
    plain RS decode of the same amount of data (1.0 = same cost).
    """

    lost: tuple
    reads: tuple
    decode_work: float = 1.0

    def read_fraction_total(self) -> float:
        """Total data read, in units of one chunk."""
        return sum(read.fraction for read in self.reads)


class ErasureCode(ABC):
    """Base class for all erasure-code plugins.

    Chunks are indexed 0..n-1 with 0..k-1 the systematic data chunks and
    k..n-1 the parity chunks, matching Ceph's shard numbering.
    """

    #: Registry name, set by the :func:`register_plugin` decorator.
    plugin_name: str = ""
    #: Relative CPU cost of one byte of encode/decode work.
    cpu_cost_factor: float = 1.0

    def __init__(self, k: int, m: int):
        if k < 1 or m < 1:
            raise ValueError(f"k and m must be positive (k={k}, m={m})")
        self.k = k
        self.m = m

    @property
    def n(self) -> int:
        """Total chunk count per stripe."""
        return self.k + self.m

    @property
    def sub_chunk_count(self) -> int:
        """Sub-packetisation level alpha (1 for scalar codes like RS)."""
        return 1

    @property
    def storage_overhead(self) -> float:
        """Theoretical write amplification n/k (the paper's baseline)."""
        return self.n / self.k

    def fault_tolerance(self) -> int:
        """Guaranteed number of tolerated concurrent chunk failures."""
        return self.m

    def placement_affinity(self, spread: int) -> Optional[List[int]]:
        """Preferred region slot per chunk for a ``spread``-region stripe.

        Codes whose repair sets are sub-stripe-local (LRC local groups)
        return a slot index in ``[0, spread)`` per chunk so a stretch
        cluster can keep each repair set inside one region; ``None``
        (the default) means the placement rule's balanced contiguous
        blocks are as good as anything.  A returned assignment must use
        every slot and keep every slot at or under ``ceil(n / spread)``
        chunks — callers fall back to ``None`` semantics otherwise.
        """
        return None

    # -- data path ---------------------------------------------------------

    @abstractmethod
    def encode(self, data: bytes) -> List[np.ndarray]:
        """Split+encode ``data`` into n equal-size uint8 chunk arrays.

        Data is zero-padded so chunk sizes are equal; ``chunk_size`` for a
        payload is ``ceil(len(data) / k)`` rounded up to the code's minimum
        alignment (``sub_chunk_count``).
        """

    @abstractmethod
    def decode_chunks(
        self, available: Mapping[int, np.ndarray], wanted: Iterable[int]
    ) -> Dict[int, np.ndarray]:
        """Reconstruct the ``wanted`` chunk indices from ``available``."""

    def decode(self, available: Mapping[int, np.ndarray], data_size: int) -> bytes:
        """Reconstruct the original payload of ``data_size`` bytes."""
        wanted = [i for i in range(self.k) if i not in available]
        recovered = dict(available)
        if wanted:
            recovered.update(self.decode_chunks(available, wanted))
        parts = [np.asarray(recovered[i]).tobytes() for i in range(self.k)]
        return b"".join(parts)[:data_size]

    # -- repair description --------------------------------------------------

    def repair_plan(self, lost: Iterable[int], alive: Iterable[int]) -> RepairPlan:
        """Plan the reads needed to rebuild ``lost`` from ``alive``.

        The default is the conventional MDS repair: read any k surviving
        chunks in full.  Sub-packetised and locally-repairable codes
        override this.
        """
        lost_set = self._validate_failure(lost, alive)
        alive_list = sorted(set(alive))
        reads = tuple(
            RepairRead(chunk_index=i, fraction=1.0, io_ops=1)
            for i in alive_list[: self.k]
        )
        return RepairPlan(lost=tuple(sorted(lost_set)), reads=reads)

    def chunk_size(self, data_size: int) -> int:
        """Bytes per chunk for a payload, including alignment padding."""
        if data_size < 0:
            raise ValueError("data_size must be non-negative")
        base = -(-data_size // self.k) if data_size else 1
        align = self.sub_chunk_count
        return -(-base // align) * align

    # -- shared helpers ------------------------------------------------------

    def _validate_failure(self, lost: Iterable[int], alive: Iterable[int]) -> set:
        lost_set = set(lost)
        alive_set = set(alive)
        for idx in lost_set | alive_set:
            if not 0 <= idx < self.n:
                raise ChunkUnavailableError(f"chunk index {idx} out of range 0..{self.n - 1}")
        if lost_set & alive_set:
            raise ValueError(f"chunks both lost and alive: {sorted(lost_set & alive_set)}")
        if len(alive_set) < self.k:
            raise InsufficientChunksError(
                f"{len(alive_set)} survivors < k={self.k}; data is unrecoverable"
            )
        return lost_set

    def _split_payload(self, data: bytes) -> List[np.ndarray]:
        """Split ``data`` into k zero-padded equal chunks."""
        size = self.chunk_size(len(data))
        buffer = np.zeros(size * self.k, dtype=np.uint8)
        raw = np.frombuffer(data, dtype=np.uint8)
        buffer[: len(raw)] = raw
        return [buffer[i * size : (i + 1) * size].copy() for i in range(self.k)]


_REGISTRY: Dict[str, Type[ErasureCode]] = {}


def register_plugin(name: str) -> Callable[[Type[ErasureCode]], Type[ErasureCode]]:
    """Class decorator adding an :class:`ErasureCode` to the registry."""

    def wrap(cls: Type[ErasureCode]) -> Type[ErasureCode]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate EC plugin name: {name!r}")
        cls.plugin_name = name
        _REGISTRY[name] = cls
        return cls

    return wrap


def create_plugin(name: str, **params) -> ErasureCode:
    """Instantiate a registered plugin by name with its parameters."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown EC plugin {name!r}; available: {known}") from None
    return cls(**params)


def available_plugins() -> List[str]:
    """Names of all registered plugins, sorted."""
    return sorted(_REGISTRY)
