"""Seeded exponential backoff with jitter (the gray-failure retry policy).

One tiny, pure policy shared by every defense layer — the client read
path, the recovery state machine, and scrub repair — so their retry
behaviour is uniform and testable in isolation.  Delays double per
attempt with a multiplicative jitter in ``[1.0, 1.5)`` drawn from the
caller's seeded stream; because the x2 growth dominates the jitter
range, schedules are *provably monotone non-decreasing* up to the cap,
and byte-identical for a fixed seed.
"""

from __future__ import annotations

import random
__all__ = ["DEFAULT_BACKOFF_CAP", "retry_backoff"]

#: Upper bound on a single backoff delay (seconds); keeps a long retry
#: chain from sleeping past the fault window it is waiting out.
DEFAULT_BACKOFF_CAP = 30.0


def retry_backoff(
    attempt: int,
    base: float,
    rng: random.Random,
    cap: float = DEFAULT_BACKOFF_CAP,
) -> float:
    """Delay before retry number ``attempt`` (1-based).

    ``base * 2^(attempt-1)`` stretched by a jitter factor in
    ``[1.0, 1.5)``, clamped to ``cap``.  Consecutive delays from one
    stream never shrink: the worst case ratio is
    ``2 * 1.0 / 1.5 = 4/3 > 1``.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    if base <= 0:
        raise ValueError(f"backoff base must be positive, got {base}")
    if cap <= 0:
        raise ValueError(f"backoff cap must be positive, got {cap}")
    delay = base * (2.0 ** (attempt - 1)) * (1.0 + 0.5 * rng.random())
    return min(delay, cap)
