"""Workload specification and generation.

The paper's default workload is 10,000 x 64 MB object writes (§4.1,
"comparable to previous work").  The benchmarks write fewer objects so
they stay fast while the figures — which the paper reports normalised —
keep their shape; the §4.3 breakdown sweep varies workload size
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..sim.rng import SeedSequence

__all__ = ["ObjectWrite", "Workload", "PAPER_DEFAULT"]

MB = 1024 * 1024


@dataclass(frozen=True)
class ObjectWrite:
    """One client write: an object name and its size in bytes."""

    name: str
    size: int


@dataclass(frozen=True)
class Workload:
    """A stream of object writes.

    ``size_jitter`` adds +/- that fraction of uniform size variation so
    padding effects are exercised on non-round sizes too (0 disables it,
    matching the paper's fixed-size workload).
    """

    num_objects: int = 10_000
    object_size: int = 64 * MB
    size_jitter: float = 0.0
    name_prefix: str = "obj"

    def __post_init__(self):
        if self.num_objects < 0:
            raise ValueError("num_objects must be non-negative")
        if self.object_size <= 0:
            raise ValueError("object_size must be positive")
        if not 0.0 <= self.size_jitter < 1.0:
            raise ValueError("size_jitter must be in [0, 1)")

    def writes(self, seeds: Optional[SeedSequence] = None) -> Iterator[ObjectWrite]:
        """Generate the write stream (deterministic for a given seed)."""
        rng = (seeds or SeedSequence(0)).stream("workload")
        for index in range(self.num_objects):
            size = self.object_size
            if self.size_jitter:
                spread = self.size_jitter * self.object_size
                size = max(1, int(self.object_size + rng.uniform(-spread, spread)))
            yield ObjectWrite(name=f"{self.name_prefix}-{index:08d}", size=size)


#: The paper's §4.1 default: 10,000 x 64 MB object writes.
PAPER_DEFAULT = Workload(num_objects=10_000, object_size=64 * MB)
