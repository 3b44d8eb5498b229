"""Property tests for the per-PG write log (pg_log).

The delta-recovery machinery leans on three log guarantees, exercised
here under arbitrary interleavings of commits, aborts, repairs and trims:

* **Version monotonicity & convergence** — versions are strictly
  increasing; at every point the set of shards whose applied version
  lags the object version is exactly the log's stale set, and once every
  stale shard is repaired all live shards agree on the object version.
* **Divergence-floor trim** — the log never trims an entry some stale
  shard still needs, unless the hard cap forces it, in which case the
  blocking shards are marked backfill-required *first* (their delta
  claim is surrendered, never silently dropped).
* **Rollback invisibility** — an aborted (staged, never committed)
  write changes nothing observable: no version burned, no entry, no
  staleness.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.pglog import PgLog, PgLogEntry


def _check_core_invariants(log: PgLog) -> None:
    """The always-true facts, asserted after every operation."""
    # Entries are version-sorted, strictly increasing, all newer than tail.
    versions = [entry.version for entry in log.entries]
    assert versions == sorted(versions)
    assert len(set(versions)) == len(versions)
    assert all(v > log.tail for v in versions)
    if versions:
        assert versions[-1] == log.head
    # Bounded length: trim keeps the log within the hard cap.
    assert len(log.entries) <= log.hard_limit
    # The divergence floor is honoured: any entry a non-backfill stale
    # shard still needs is retained (tail strictly below the floor).
    floor = log.divergence_floor()
    if floor is not None:
        assert log.tail < floor, (
            f"log trimmed past divergence floor {floor} (tail={log.tail}) "
            "without marking the shard backfill-required"
        )
    # Staleness <=> version lag, per object and shard.
    for name, version in log.object_version.items():
        stale = log.stale_shards(name)
        lagging = {
            shard
            for shard, applied in enumerate(log.shard_versions[name])
            if applied != version
        }
        assert stale == lagging
        for shard in stale:
            since = log.stale_since(name, shard)
            assert since is not None and since <= version


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_any_interleaving_is_monotone_and_convergent(data):
    n = data.draw(st.integers(min_value=2, max_value=6), label="n_shards")
    max_entries = data.draw(st.integers(min_value=1, max_value=25),
                            label="max_entries")
    log = PgLog(n, max_entries=max_entries)
    names = [f"o{i}" for i in range(data.draw(
        st.integers(min_value=1, max_value=4), label="objects"))]
    committed_heads = []

    for _ in range(data.draw(st.integers(min_value=1, max_value=50),
                             label="steps")):
        op = data.draw(
            st.sampled_from(("create", "full", "rmw", "rollback", "repair")),
            label="op",
        )
        name = data.draw(st.sampled_from(names), label="name")
        if op == "rollback":
            # A staged-then-aborted write must be invisible.
            before = (
                log.head,
                dict(log.object_version),
                {m: log.stale_shards(m) for m in names},
                len(log.entries),
            )
            log.stage()
            log.rollback()
            after = (
                log.head,
                dict(log.object_version),
                {m: log.stale_shards(m) for m in names},
                len(log.entries),
            )
            assert before == after
        elif op == "repair":
            dirty = sorted(
                (m, s) for m in log.object_version
                for s in log.stale_shards(m)
            )
            if dirty:
                m, s = data.draw(st.sampled_from(dirty), label="repair_target")
                current = log.object_version[m]
                raced = data.draw(st.booleans(), label="raced")
                if raced and current > 1:
                    # Content captured at an older version: the repair
                    # must be refused and the shard stays stale.
                    assert log.record_repair(m, s, current - 1) is False
                    assert s in log.stale_shards(m)
                else:
                    assert log.record_repair(m, s, current) is True
                    assert s not in log.stale_shards(m)
        else:
            exists = name in log.object_version
            if op == "create" and exists:
                op = "full"
            elif op in ("full", "rmw") and not exists:
                op = "create"
            if op == "rmw":
                touched = sorted(data.draw(
                    st.sets(st.integers(min_value=0, max_value=n - 1),
                            min_size=1, max_size=n),
                    label="touched",
                ))
            else:
                touched = list(range(n))
            missing = sorted(data.draw(
                st.sets(st.sampled_from(touched), max_size=len(touched)),
                label="missing",
            ))
            log.stage()
            head_before = log.head
            entry = log.commit(name, op, tuple(touched), tuple(missing),
                               at=float(len(committed_heads)))
            assert isinstance(entry, PgLogEntry)
            assert entry.version == head_before + 1 == log.head
            committed_heads.append(log.head)
        _check_core_invariants(log)

    # Versions were assigned strictly monotonically across the run.
    assert committed_heads == sorted(committed_heads)
    assert len(set(committed_heads)) == len(committed_heads)

    # Drain every remaining divergence the way recovery would: backfill
    # the surrendered shards, delta-repair the rest — afterwards all
    # shards agree on every object's version (convergence).
    for shard in sorted(log.backfill_shards):
        for name in list(log.object_version):
            if shard in log.stale_shards(name):
                assert log.record_repair(name, shard,
                                         log.object_version[name])
        log.clear_backfill(shard)
    for name in list(log.object_version):
        for shard in sorted(log.stale_shards(name)):
            assert log.record_repair(name, shard, log.object_version[name])
    assert not log.dirty_shards()
    for name, version in log.object_version.items():
        assert all(v == version for v in log.shard_versions[name])
    _check_core_invariants(log)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trim_never_drops_entries_a_divergent_peer_needs(data):
    """Sustained divergence: the floor holds until the hard cap, and the
    hard cap surrenders the blocking shard to backfill before dropping."""
    n = data.draw(st.integers(min_value=2, max_value=5), label="n_shards")
    max_entries = data.draw(st.integers(min_value=1, max_value=8),
                            label="max_entries")
    hard_limit = data.draw(
        st.integers(min_value=max_entries, max_value=3 * max_entries),
        label="hard_limit",
    )
    log = PgLog(n, max_entries=max_entries, hard_limit=hard_limit)
    stale_shard = data.draw(st.integers(min_value=0, max_value=n - 1),
                            label="stale_shard")
    writes = data.draw(st.integers(min_value=2, max_value=4 * hard_limit),
                       label="writes")

    log.stage()
    log.commit("obj", "create", tuple(range(n)), (stale_shard,), at=0.0)
    divergence_version = log.head
    for i in range(writes):
        log.stage()
        # Later writes miss nothing; the first miss stays unresolved.
        log.commit("obj", "full",
                   tuple(s for s in range(n) if s != stale_shard), (),
                   at=float(i + 1))
        if stale_shard not in log.backfill_shards:
            # While the shard still holds a delta claim, the entry that
            # first missed it must be retained.
            assert log.tail < divergence_version
            assert log.entries[0].version <= divergence_version
            assert log.delta_objects(stale_shard) == ["obj"]
        else:
            # Hard cap reached: the claim was surrendered, delta recovery
            # must report "fall back to backfill" for this shard.
            assert log.delta_objects(stale_shard) is None
        assert len(log.entries) <= hard_limit

    if writes + 1 > hard_limit:
        assert stale_shard in log.backfill_shards


def test_first_entry_must_be_create():
    log = PgLog(4)
    log.stage()
    with pytest.raises(ValueError, match="must be a create"):
        log.commit("obj", "full", (0, 1, 2, 3), (), at=0.0)


def test_refused_commit_burns_no_version():
    """A commit refused for a non-create first entry changes nothing:
    the staged write stays in flight and the next commit takes version 1."""
    log = PgLog(4)
    log.stage()
    with pytest.raises(ValueError, match="must be a create"):
        log.commit("obj", "rmw", (0, 3), (), at=0.0)
    assert (log.head, log.inflight, list(log.entries)) == (0, 1, [])
    assert "obj" not in log.object_version
    entry = log.commit("obj", "create", (0, 1, 2, 3), (), at=1.0)
    assert entry.version == 1
    assert (log.head, log.inflight) == (1, 0)


def test_missing_must_be_subset_of_touched():
    log = PgLog(4)
    log.stage()
    log.commit("obj", "create", (0, 1, 2, 3), (), at=0.0)
    log.stage()
    with pytest.raises(ValueError, match="not in touched"):
        log.commit("obj", "rmw", (0, 3), (1,), at=1.0)


def test_note_divergent_marks_committed_objects_only():
    log = PgLog(4)
    # Aborted create: nothing committed, nothing to repair.
    log.note_divergent("ghost", 2)
    assert not log.dirty_shards()
    log.stage()
    log.commit("obj", "create", (0, 1, 2, 3), (), at=0.0)
    log.note_divergent("obj", 2)
    assert log.stale_shards("obj") == {2}
    assert log.stale_since("obj", 2) == log.object_version["obj"]


def test_full_overwrite_refreshes_stale_shard():
    log = PgLog(4)
    log.stage()
    log.commit("obj", "create", (0, 1, 2, 3), (1,), at=0.0)
    assert log.stale_shards("obj") == {1}
    log.stage()
    log.commit("obj", "full", (0, 1, 2, 3), (), at=1.0)
    assert not log.stale_shards("obj")
    assert all(v == log.object_version["obj"]
               for v in log.shard_versions["obj"])


# -- the commit fast path's guards --------------------------------------------------
#
# ``commit`` skips its per-shard loop only when the write missed no shard
# and no object is stale, no chunk unstored and no shard backfilling.
# Each case below trips one guard, and its expected state is what the
# per-shard loop produces; the skip would leave a different one.


def _commit(log, name, kind, touched, missing=()):
    log.stage()
    return log.commit(name, kind, touched, missing, at=float(log.head))


def _state(log):
    return (
        {name: list(versions) for name, versions in log.shard_versions.items()},
        {name: {shard: log.stale_since(name, shard)
                for shard in sorted(log.stale_shards(name))}
         for name in log.object_version},
        set(log.unstored),
        set(log.backfill_shards),
    )


def test_commit_on_a_log_holding_a_stale_object():
    log = PgLog(4)
    _commit(log, "a", "create", (0, 1, 2, 3), missing=(1,))
    _commit(log, "b", "create", (0, 1, 2, 3))
    _commit(log, "a", "rmw", (0, 3))
    # Shard 1 of "a" stays stale at version 0; untouched current shard
    # 2 advances with the write.
    assert _state(log) == (
        {"a": [3, 0, 3, 3], "b": [2, 2, 2, 2]},
        {"a": {1: 1}, "b": {}},
        set(),
        set(),
    )


def test_commit_on_a_log_holding_an_unstored_chunk():
    log = PgLog(4)
    _commit(log, "a", "create", (0, 1, 2, 3))
    _commit(log, "b", "create", (0, 1, 2, 3))
    log.note_unstored("a", 2)
    log.note_unstored("b", 3)
    _commit(log, "a", "rmw", (0, 2))
    # The write landed on "a"'s shard 2, so that chunk exists now;
    # "b"'s shard 3 was not touched and stays unstored.
    assert _state(log) == (
        {"a": [3, 3, 3, 3], "b": [2, 2, 2, 2]},
        {"a": {}, "b": {}},
        {("b", 3)},
        set(),
    )


def test_commit_on_a_log_holding_a_backfill_shard():
    """Through its own methods the log only marks a shard backfilling
    while it holds a stale object, which trips the stale guard first;
    set one directly so that this guard alone decides."""
    log = PgLog(4)
    _commit(log, "a", "create", (0, 1, 2, 3))
    log.backfill_shards.add(1)
    _commit(log, "b", "create", (0, 1, 2, 3))
    # Shard 1 holds no stale object, so a write that touched it ends
    # the backfill requirement.
    assert _state(log) == (
        {"a": [1, 1, 1, 1], "b": [2, 2, 2, 2]},
        {"a": {}, "b": {}},
        set(),
        set(),
    )


def test_commit_of_a_write_that_missed_a_shard():
    log = PgLog(4)
    _commit(log, "a", "create", (0, 1, 2, 3))
    _commit(log, "a", "full", (0, 1, 2, 3), missing=(2,))
    # The missed shard stays at the create's version, stale since the
    # write it missed.
    assert _state(log) == (
        {"a": [2, 2, 1, 2]},
        {"a": {2: 2}},
        set(),
        set(),
    )


def test_commit_fast_path_makes_every_shard_current():
    log = PgLog(4)
    _commit(log, "a", "create", (0, 1, 2, 3))
    entry = _commit(log, "a", "rmw", (0, 3))
    assert entry.touched == (0, 3) and entry.missing == ()
    assert _state(log) == ({"a": [2, 2, 2, 2]}, {"a": {}}, set(), set())
