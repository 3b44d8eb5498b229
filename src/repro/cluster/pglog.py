"""Per-PG versioned write logs (Ceph's ``pg_log``).

Every committed write to a placement group appends one entry carrying a
PG-monotone version and the set of shards the write could *not* reach
(down at commit time).  The log is what makes transient failures cheap:
when a briefly-down OSD comes back **up** before the down->out interval,
peering diffs shard versions against the log and repairs only the
objects dirtied during the outage (*delta recovery*) instead of
rebuilding the whole PG (*full backfill*).

Three rules keep the log sound:

* **Version monotonicity** — versions are assigned at commit and only at
  commit, so the entry sequence is strictly increasing even with many
  writes in flight.  Staged (in-flight) writes hold no version; an
  aborted write *rolls back* without ever entering the log — exactly the
  divergent-entry rollback that keeps a primary crash mid-RMW from
  leaving a torn stripe (the physical partial pushes are undone by the
  writer, the log never learns the write happened).
* **Bounded length with a divergence floor** — the log trims down to
  ``max_entries``, but never past the oldest entry some stale shard
  still needs for delta recovery.  If a shard stays divergent so long
  that the log would exceed ``hard_limit``, the shard is marked
  *backfill-required* (its delta information is surrendered), the floor
  advances, and delta recovery for that shard falls back to a full
  object sweep — Ceph's "log too short, backfilling" arc.
* **Per-shard staleness** — each object tracks the version every shard
  last applied.  A shard that missed a write is *stale* until a full
  overwrite lands on it or recovery repairs it; stale shards never serve
  reads and never act as repair sources.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

__all__ = ["PgLogEntry", "PgLog"]

#: Entry kinds: object creation, full-stripe overwrite, partial-stripe
#: read-modify-write.
ENTRY_KINDS = ("create", "full", "rmw")


@dataclass(frozen=True)
class PgLogEntry:
    """One committed write, as the PG log remembers it."""

    version: int
    object_name: str
    kind: str
    #: Shard positions the write modified (parities included).  Shards
    #: outside this set were untouched but stay *consistent* with the
    #: new version (their content is unchanged by definition).
    touched: Tuple[int, ...]
    #: Subset of ``touched`` that never received the write (down or
    #: unreachable at commit) — the dirty set delta recovery replays.
    missing: Tuple[int, ...]
    at: float


class PgLog:
    """Bounded, version-monotone write log of one placement group."""

    def __init__(
        self,
        n_shards: int,
        max_entries: int = 3000,
        hard_limit: Optional[int] = None,
    ):
        if n_shards < 2:
            raise ValueError(f"need >= 2 shards, got {n_shards}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.n_shards = n_shards
        self.max_entries = max_entries
        self.hard_limit = hard_limit if hard_limit is not None else 2 * max_entries
        if self.hard_limit < max_entries:
            raise ValueError("hard_limit must be >= max_entries")
        #: Last committed version (0 = nothing ever committed).
        self.head = 0
        #: Version of the newest *trimmed* entry (retained entries all
        #: have ``version > tail``).
        self.tail = 0
        self.entries: Deque[PgLogEntry] = deque()
        #: Writes staged but not yet committed (in-flight).  They hold no
        #: version; an abort simply unstages (the rollback rule).
        self.inflight = 0
        #: name -> committed object version.
        self.object_version: Dict[str, int] = {}
        #: name -> per-shard last-applied version.
        self.shard_versions: Dict[str, List[int]] = {}
        #: shard -> names of objects stale on that shard.
        self._stale_objs: Dict[int, Set[str]] = {}
        #: (shard, name) -> version of the first unresolved miss — the
        #: entry delta recovery must still be able to see.
        self._stale_since: Dict[Tuple[int, str], int] = {}
        #: Shards whose divergence outlived the log (trimmed past the
        #: floor): delta recovery must fall back to a full backfill.
        self.backfill_shards: Set[int] = set()
        #: (name, shard) pairs whose chunk was never physically stored
        #: (degraded create): repair must allocate, not overwrite.
        self.unstored: Set[Tuple[str, int]] = set()

    # -- the write-side protocol --------------------------------------------------

    def stage(self) -> None:
        """Mark one write in flight (no version is assigned yet)."""
        self.inflight += 1

    def rollback(self) -> None:
        """Abort a staged write: it never enters the log.

        The physical side (partial chunk pushes) is the writer's to undo;
        the log's contract is that an uncommitted write is invisible — no
        version was burned, no entry appended, no shard marked stale.
        """
        if self.inflight < 1:
            raise RuntimeError("rollback without a staged write")
        self.inflight -= 1

    def commit(
        self,
        object_name: str,
        kind: str,
        touched: Tuple[int, ...],
        missing: Tuple[int, ...],
        at: float,
        staged: bool = True,
    ) -> PgLogEntry:
        """Commit one write: assign the next version, update shard state.

        ``missing`` must be a subset of ``touched``.  Shards in
        ``touched - missing`` applied the write and become current;
        shards in ``missing`` become (or stay) stale; untouched shards
        advance to the new version only if they were already current —
        a stale shard stays stale at its old version.
        """
        if kind not in ENTRY_KINDS:
            raise ValueError(f"unknown entry kind {kind!r}; allowed: {ENTRY_KINDS}")
        touched_set = set(touched)
        missing_set = set(missing)
        if not missing_set <= touched_set:
            raise ValueError(
                f"missing shards {sorted(missing_set - touched_set)} not in touched set"
            )
        bad = [s for s in touched_set if not 0 <= s < self.n_shards]
        if bad:
            raise ValueError(f"shards {bad} outside [0, {self.n_shards})")
        if staged and self.inflight < 1:
            raise RuntimeError("commit without a staged write")
        first = object_name not in self.object_version
        if first and kind != "create":
            raise ValueError(
                f"first entry for {object_name!r} must be a create, got {kind!r}"
            )
        # Every check passed: only now does the commit take its version.
        if staged:
            self.inflight -= 1
        version = self.head + 1
        self.head = version
        if first:
            self.shard_versions[object_name] = [0] * self.n_shards
        self.object_version[object_name] = version
        versions = self.shard_versions[object_name]
        if not (missing_set or self._stale_objs or self.unstored
                or self.backfill_shards):
            # The write reached every shard it touched, and no object is
            # stale (``_stale_since`` mirrors ``_stale_objs``), unstored
            # or backfilling: the loop below would make every shard
            # current and clear nothing.
            versions[:] = [version] * self.n_shards
        else:
            for shard in range(self.n_shards):
                if shard in missing_set:
                    self._mark_stale(object_name, shard, version)
                elif shard in touched_set:
                    # The write landed: the shard is current (a full
                    # overwrite refreshes even a previously-stale chunk).
                    versions[shard] = version
                    self._clear_stale(object_name, shard)
                elif not self._is_stale(object_name, shard):
                    # Untouched and previously current: content unchanged,
                    # still consistent with the new object version.
                    versions[shard] = version
                # Untouched and stale: stays stale at its old version.
        entry = PgLogEntry(
            version=version,
            object_name=object_name,
            kind=kind,
            touched=tuple(sorted(touched_set)),
            missing=tuple(sorted(missing_set)),
            at=at,
        )
        self.entries.append(entry)
        self.trim()
        return entry

    # -- staleness bookkeeping ----------------------------------------------------

    def _mark_stale(self, name: str, shard: int, version: int) -> None:
        objs = self._stale_objs.setdefault(shard, set())
        if name not in objs:
            objs.add(name)
            self._stale_since[(shard, name)] = version

    def _clear_stale(self, name: str, shard: int) -> None:
        objs = self._stale_objs.get(shard)
        if objs is not None:
            objs.discard(name)
            if not objs:
                del self._stale_objs[shard]
        self._stale_since.pop((shard, name), None)
        self.unstored.discard((name, shard))
        if shard not in self._stale_objs:
            self.backfill_shards.discard(shard)

    def _is_stale(self, name: str, shard: int) -> bool:
        return name in self._stale_objs.get(shard, ())

    def note_unstored(self, name: str, shard: int) -> None:
        """Record that this shard's chunk was never physically stored."""
        self.unstored.add((name, shard))

    def note_divergent(self, name: str, shard: int) -> None:
        """An *uncommitted* write physically landed on this shard before
        its op aborted: the chunk's content no longer matches the
        committed object version, so it must be repaired like any stale
        shard (Ceph's divergent-entry rollback).  No-op for an object
        the log has never committed (an aborted create leaves nothing)."""
        version = self.object_version.get(name)
        if version is not None:
            self._mark_stale(name, shard, version)

    def is_unstored(self, name: str, shard: int) -> bool:
        return (name, shard) in self.unstored

    # -- recovery-side queries ------------------------------------------------------

    def stale_shards(self, name: str) -> Set[int]:
        """Shard positions holding stale (or never-stored) data for an object."""
        return {
            shard
            for shard, objs in self._stale_objs.items()
            if name in objs
        }

    def stale_since(self, name: str, shard: int) -> Optional[int]:
        """Version of the first write this shard missed for the object."""
        return self._stale_since.get((shard, name))

    def dirty_state(self) -> Tuple[frozenset, frozenset, int]:
        """Snapshot of unresolved divergence (stall detection).

        Two identical snapshots around a repair round with no
        intervening commit mean the round made no progress (e.g. every
        dirty chunk is on a full device) and requeueing would loop.
        """
        return (
            frozenset(self._stale_since),
            frozenset(self.backfill_shards),
            self.head,
        )

    def shard_dirty(self, shard: int) -> bool:
        """Does this shard need repair on any object (stale or backfill)?"""
        return bool(self._stale_objs.get(shard)) or shard in self.backfill_shards

    def dirty_shards(self) -> Set[int]:
        """All shard positions with unrepaired divergence."""
        return {
            shard for shard in range(self.n_shards) if self.shard_dirty(shard)
        }

    def delta_objects(self, shard: int) -> Optional[List[str]]:
        """Objects delta recovery must replay for a shard, oldest first.

        Returns ``None`` when the log was trimmed past the shard's
        divergence point — the log is no longer authoritative and the
        caller must fall back to a full backfill of the shard.
        """
        if shard in self.backfill_shards:
            return None
        names = self._stale_objs.get(shard, set())
        return sorted(names, key=lambda n: (self._stale_since[(shard, n)], n))

    def record_repair(self, name: str, shard: int, version: Optional[int] = None) -> bool:
        """A repair landed current content for (object, shard).

        ``version`` is the object version the repair's content reflects
        (captured when the repair read its sources).  If the object moved
        on since — a write raced the repair — the shard stays stale and
        ``False`` is returned so the caller re-queues.
        """
        current = self.object_version.get(name)
        if current is None:
            return True
        if version is not None and version != current:
            return False
        self.shard_versions[name][shard] = current
        self._clear_stale(name, shard)
        return True

    def clear_backfill(self, shard: int) -> None:
        """A full backfill of the shard completed: divergence resolved."""
        self.backfill_shards.discard(shard)

    # -- trim ------------------------------------------------------------------------

    def divergence_floor(self) -> Optional[int]:
        """Oldest entry version some stale shard still needs (None = none).

        Shards already marked backfill-required have surrendered their
        claim on the log and do not hold the floor down.
        """
        floor: Optional[int] = None
        for (shard, _name), version in self._stale_since.items():
            if shard in self.backfill_shards:
                continue
            if floor is None or version < floor:
                floor = version
        return floor

    def trim(self) -> int:
        """Trim to ``max_entries``, never past the divergence floor —
        unless the hard cap forces it, in which case the blocking shards
        are marked backfill-required first.  Returns entries dropped."""
        dropped = 0
        while len(self.entries) > self.max_entries:
            oldest = self.entries[0]
            floor = self.divergence_floor()
            if floor is not None and oldest.version >= floor:
                if len(self.entries) <= self.hard_limit:
                    break
                # Hard cap: surrender delta state for every shard whose
                # divergence is at or below the entry being dropped.
                for (shard, _name), version in list(self._stale_since.items()):
                    if version <= oldest.version:
                        self.backfill_shards.add(shard)
            self.entries.popleft()
            self.tail = oldest.version
            dropped += 1
        return dropped
