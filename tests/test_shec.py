"""Shingled Erasure Code: windows, local repair, recoverability."""

import itertools

import numpy as np
import pytest

from repro.ec import InsufficientChunksError, ShingledErasureCode


@pytest.fixture(scope="module")
def shec():
    return ShingledErasureCode(8, 4, 5)


def test_construction_validation():
    with pytest.raises(ValueError):
        ShingledErasureCode(4, 2, 0)
    with pytest.raises(ValueError):
        ShingledErasureCode(4, 2, 5)  # l > k


def test_windows_shingle_and_wrap(shec):
    windows = [shec.window_members(i) for i in range(shec.m)]
    assert windows[0] == [0, 1, 2, 3, 4]
    assert windows[1] == [2, 3, 4, 5, 6]
    assert windows[2] == [4, 5, 6, 7, 0]  # wraps
    # Every data chunk is covered by at least one window.
    covered = set().union(*map(set, windows))
    assert covered == set(range(8))
    with pytest.raises(ValueError):
        shec.window_members(4)


def test_fault_tolerance_conservative(shec):
    assert shec.fault_tolerance() == 1


def test_encode_shape(shec):
    chunks = shec.encode(b"q" * 333)
    assert len(chunks) == 12
    assert len({len(c) for c in chunks}) == 1


def test_parity_row_sparsity(shec):
    for i in range(shec.m):
        row = shec.generator[shec.k + i]
        nonzero = {j for j in range(shec.k) if row[j]}
        assert nonzero == set(shec.window_members(i))


def test_every_single_failure_recovers(shec):
    data = bytes(range(250)) * 2
    chunks = shec.encode(data)
    for idx in range(shec.n):
        available = {i: chunks[i] for i in range(shec.n) if i != idx}
        rebuilt = shec.decode_chunks(available, [idx])
        assert np.array_equal(rebuilt[idx], chunks[idx])


def test_single_repair_plan_is_local(shec):
    alive = [i for i in range(shec.n) if i != 3]
    plan = shec.repair_plan([3], alive)
    # Window reads: l-1 data chunks + 1 parity = l chunks < k.
    assert len(plan.reads) == shec.window
    assert plan.read_fraction_total() < shec.k


def test_parity_repair_plan_reads_window(shec):
    alive = [i for i in range(shec.n) if i != 9]
    plan = shec.repair_plan([9], alive)
    assert {r.chunk_index for r in plan.reads} == set(shec.window_members(1))


def test_multi_failure_patterns(shec):
    data = bytes(range(199))
    chunks = shec.encode(data)
    recoverable = unrecoverable = 0
    for erased in itertools.combinations(range(shec.n), 3):
        available = {i: chunks[i] for i in range(shec.n) if i not in erased}
        if shec.can_recover(erased):
            recoverable += 1
            rebuilt = shec.decode_chunks(available, list(erased))
            for idx in erased:
                assert np.array_equal(rebuilt[idx], chunks[idx])
        else:
            unrecoverable += 1
            with pytest.raises(InsufficientChunksError):
                shec.decode_chunks(available, list(erased))
    assert recoverable > 0  # shingling recovers many multi-failures...
    assert unrecoverable > 0  # ...but not all (tolerance guarantee is 1)


def test_storage_overhead_between_rep_and_mds(shec):
    assert shec.storage_overhead == pytest.approx(12 / 8)
