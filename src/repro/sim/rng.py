"""Deterministic random-number management.

Every stochastic component (placement, workload, fault target selection,
latency jitter) draws from its own named stream derived from a single
experiment seed.  Component streams are independent of each other, so e.g.
changing the workload does not perturb placement — a property the paper's
controlled sweeps rely on implicitly and our tests rely on explicitly.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["SeedSequence", "substream_seed"]


def substream_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for the named component stream."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeedSequence:
    """Factory of independent, reproducible :class:`random.Random` streams."""

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)

    def stream(self, name: str) -> random.Random:
        """Return a fresh RNG for the named component."""
        return random.Random(substream_seed(self.root_seed, name))

    def derive(self, name: str) -> "SeedSequence":
        """A child sequence whose streams are independent of this one's.

        Used by the chaos harness to give every campaign its own seed
        universe derived from one run-level seed.
        """
        return SeedSequence(substream_seed(self.root_seed, name))
