"""Locally Repairable Codes: locality, cascading repair, global solve."""

import itertools

import numpy as np
import pytest

from repro.ec import InsufficientChunksError, LocallyRepairableCode


@pytest.fixture(scope="module")
def lrc():
    return LocallyRepairableCode(6, l=2, r=2)  # n = 10


def test_construction_validation():
    with pytest.raises(ValueError):
        LocallyRepairableCode(5, l=2, r=2)  # l must divide k
    with pytest.raises(ValueError):
        LocallyRepairableCode(4, l=0, r=2)


def test_layout(lrc):
    assert lrc.n == 10
    assert lrc.k == 6
    assert lrc.locality == 2
    assert lrc.group_size == 3
    assert lrc.group_of(0) == 0
    assert lrc.group_of(5) == 1
    assert lrc.group_of(6) == 0  # first local parity
    assert lrc.group_of(7) == 1
    assert lrc.group_of(8) == -1  # global parity
    assert lrc.group_members(0) == [0, 1, 2, 6]


def test_fault_tolerance(lrc):
    assert lrc.fault_tolerance() == 3  # r + 1


def test_local_parity_is_group_xor(lrc):
    data = bytes(range(180))
    chunks = lrc.encode(data)
    expected = chunks[0] ^ chunks[1] ^ chunks[2]
    assert np.array_equal(chunks[6], expected)


def test_single_failure_local_repair(lrc):
    data = bytes(range(200))
    chunks = lrc.encode(data)
    for idx in range(lrc.n):
        available = {i: chunks[i] for i in range(lrc.n) if i != idx}
        rebuilt = lrc.decode_chunks(available, [idx])
        assert np.array_equal(rebuilt[idx], chunks[idx])


def test_local_repair_plan_reads_group_only(lrc):
    alive = [i for i in range(10) if i != 1]
    plan = lrc.repair_plan([1], alive)
    assert len(plan.reads) == 3  # group size - 1 data + local parity
    assert {r.chunk_index for r in plan.reads} == {0, 2, 6}
    assert plan.decode_work < 1.0  # XOR repair is cheaper than RS decode


def test_global_parity_loss_plan_reads_k(lrc):
    alive = [i for i in range(10) if i != 8]
    plan = lrc.repair_plan([8], alive)
    assert len(plan.reads) == lrc.k


def test_multi_failure_same_group_uses_global(lrc):
    data = bytes(range(240))
    chunks = lrc.encode(data)
    erased = (0, 1)  # two in group 0: local repair impossible
    available = {i: chunks[i] for i in range(10) if i not in erased}
    rebuilt = lrc.decode_chunks(available, list(erased))
    for idx in erased:
        assert np.array_equal(rebuilt[idx], chunks[idx])


def test_cascading_local_repairs(lrc):
    """One failure per group: two independent local repairs."""
    data = bytes(range(100))
    chunks = lrc.encode(data)
    erased = (0, 4)
    available = {i: chunks[i] for i in range(10) if i not in erased}
    rebuilt = lrc.decode_chunks(available, list(erased))
    for idx in erased:
        assert np.array_equal(rebuilt[idx], chunks[idx])


def test_all_triple_failures_recoverable(lrc):
    """The r+1 = 3 guarantee: every 3-failure pattern decodes."""
    data = bytes(range(120))
    chunks = lrc.encode(data)
    for erased in itertools.combinations(range(10), 3):
        assert lrc.can_recover(erased), erased
        available = {i: chunks[i] for i in range(10) if i not in erased}
        rebuilt = lrc.decode_chunks(available, list(erased))
        for idx in erased:
            assert np.array_equal(rebuilt[idx], chunks[idx])


def test_some_quadruple_failures_recoverable_some_not(lrc):
    recoverable = 0
    unrecoverable = 0
    for erased in itertools.combinations(range(10), 4):
        if lrc.can_recover(erased):
            recoverable += 1
        else:
            unrecoverable += 1
    assert recoverable > 0
    assert unrecoverable > 0


def test_unrecoverable_pattern_raises(lrc):
    data = bytes(range(60))
    chunks = lrc.encode(data)
    # Find an unrecoverable 5-failure pattern.
    for erased in itertools.combinations(range(10), 5):
        if not lrc.can_recover(erased):
            available = {
                i: chunks[i] for i in range(10) if i not in erased
            }
            with pytest.raises(InsufficientChunksError):
                lrc.decode_chunks(available, list(erased))
            return
    pytest.fail("expected at least one unrecoverable 5-failure pattern")


def test_repair_bandwidth_beats_rs_for_single_failure(lrc):
    """The locality win: 3 reads instead of k=6."""
    alive = [i for i in range(10) if i != 0]
    plan = lrc.repair_plan([0], alive)
    assert plan.read_fraction_total() == pytest.approx(3.0)


def test_azure_style_12_2_2():
    code = LocallyRepairableCode(12, l=2, r=2)
    data = bytes(range(251)) * 3
    chunks = code.encode(data)
    available = {i: chunks[i] for i in range(code.n) if i not in (0, 6, 13)}
    rebuilt = code.decode_chunks(available, [0, 6, 13])
    for idx in (0, 6, 13):
        assert np.array_equal(rebuilt[idx], chunks[idx])
