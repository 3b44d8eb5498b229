"""Canonical digest encoding shared by every outcome type.

Outcome digests are the replay contract: the same seed must reproduce
the same bytes.  Every digest in the package is serialised by
:func:`canonical_json`, and counters that later subsystems added to
older stats are dropped at zero by :func:`prune_zero` so digests of
runs that never touch those subsystems keep their bytes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable

__all__ = ["canonical_json", "prune_zero"]


def canonical_json(payload: Any) -> str:
    """Sorted keys, compact separators, ASCII only: byte-comparable JSON."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def prune_zero(payload: Dict[str, Any], keys: Iterable[str]) -> Dict[str, Any]:
    """Drop each of ``keys`` whose value is exactly 0; returns ``payload``."""
    for key in keys:
        if payload.get(key) == 0:
            del payload[key]
    return payload
