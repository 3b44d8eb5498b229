"""Clay codes: geometry, coupling, layered decode, and optimal repair."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ec import ClayCode, InsufficientChunksError


@pytest.fixture(scope="module")
def clay_small():
    return ClayCode(2, 2)  # q=2, t=2, alpha=4


@pytest.fixture(scope="module")
def clay_paper():
    return ClayCode(9, 3, d=11)  # the paper's Clay(12,9,11)


# -- construction & geometry ---------------------------------------------------


def test_paper_parameters(clay_paper):
    assert (clay_paper.n, clay_paper.k, clay_paper.d) == (12, 9, 11)
    assert clay_paper.q == 3
    assert clay_paper.t == 4
    assert clay_paper.alpha == 81
    assert clay_paper.beta == 27
    assert clay_paper.sub_chunk_count == 81


def test_default_d_is_n_minus_1():
    clay = ClayCode(2, 2)
    assert clay.d == 3


def test_invalid_d_rejected():
    with pytest.raises(ValueError):
        ClayCode(9, 3, d=12)  # d > n-1
    with pytest.raises(ValueError):
        ClayCode(9, 3, d=8)  # d < k


def test_q_must_divide_n():
    # k=3, m=2 -> n=5, d=4 -> q=2 does not divide 5.
    with pytest.raises(ValueError, match="divide"):
        ClayCode(3, 2)


def test_gamma_validation():
    with pytest.raises(ValueError):
        ClayCode(2, 2, d=2, gamma=1)


def test_node_coords_roundtrip(clay_paper):
    for node in range(clay_paper.n):
        x, y = clay_paper.node_coords(node)
        assert 0 <= x < clay_paper.q
        assert 0 <= y < clay_paper.t
        assert clay_paper.coords_node(x, y) == node
    with pytest.raises(ValueError):
        clay_paper.node_coords(12)


def test_planes_count_and_index(clay_small):
    planes = clay_small.planes()
    assert len(planes) == clay_small.alpha
    indices = [clay_small.plane_index(z) for z in planes]
    assert indices == sorted(indices) == list(range(clay_small.alpha))


def test_companion_is_involution(clay_paper):
    for z in clay_paper.planes()[:10]:
        for node in range(clay_paper.n):
            x, y = clay_paper.node_coords(node)
            if clay_paper.is_unpaired(x, y, z):
                continue
            cx, cy, cz = clay_paper.companion(x, y, z)
            assert cy == y
            back = clay_paper.companion(cx, cy, cz)
            assert back == (x, y, z)


def test_intersection_score_bounds(clay_small):
    erased = [0, 3]
    scores = [clay_small.intersection_score(z, erased) for z in clay_small.planes()]
    assert min(scores) >= 0
    assert max(scores) <= len(erased)
    # Every score class 0..e must be populated for a spanning erasure set.
    assert set(scores) == {0, 1, 2}


def test_repair_plane_count(clay_paper):
    for node in range(clay_paper.n):
        planes = clay_paper.repair_plane_indices(node)
        assert len(planes) == clay_paper.beta
        assert planes == sorted(planes)


# -- encode/decode --------------------------------------------------------------


def test_encode_chunk_alignment(clay_small):
    chunks = clay_small.encode(b"z" * 37)
    assert len(chunks) == 4
    for chunk in chunks:
        assert len(chunk) % clay_small.alpha == 0


def test_exhaustive_decode_small():
    clay = ClayCode(2, 2)
    rng = np.random.default_rng(5)
    data = rng.integers(0, 256, 161, dtype=np.uint8).tobytes()
    chunks = clay.encode(data)
    for count in (1, 2):
        for erased in itertools.combinations(range(4), count):
            available = {i: chunks[i] for i in range(4) if i not in erased}
            rebuilt = clay.decode_chunks(available, list(erased))
            for idx in erased:
                assert np.array_equal(rebuilt[idx], chunks[idx])
            assert clay.decode(available, len(data)) == data


def test_decode_medium_clay_6_4():
    clay = ClayCode(4, 2)  # q=2, t=3, alpha=8
    rng = np.random.default_rng(6)
    data = rng.integers(0, 256, 1000, dtype=np.uint8).tobytes()
    chunks = clay.encode(data)
    for erased in itertools.combinations(range(6), 2):
        available = {i: chunks[i] for i in range(6) if i not in erased}
        rebuilt = clay.decode_chunks(available, list(erased))
        for idx in erased:
            assert np.array_equal(rebuilt[idx], chunks[idx])


def test_paper_clay_multi_failure_decode(clay_paper):
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    chunks = clay_paper.encode(data)
    for erased in [(0,), (11,), (0, 6), (2, 5, 9), (9, 10, 11)]:
        available = {i: chunks[i] for i in range(12) if i not in erased}
        rebuilt = clay_paper.decode_chunks(available, list(erased))
        for idx in erased:
            assert np.array_equal(rebuilt[idx], chunks[idx])


def test_decode_insufficient_chunks(clay_small):
    chunks = clay_small.encode(b"payload!")
    with pytest.raises(InsufficientChunksError):
        clay_small.decode_chunks({0: chunks[0]}, [1, 2, 3])


def test_decode_misaligned_chunk_rejected(clay_small):
    bad = {i: np.zeros(7, dtype=np.uint8) for i in range(3)}
    with pytest.raises(ValueError, match="multiple of alpha"):
        clay_small.decode_chunks(bad, [3])


@settings(max_examples=15, deadline=None)
@given(data=st.binary(min_size=1, max_size=600))
def test_property_roundtrip_random_data(data):
    clay = ClayCode(2, 2)
    chunks = clay.encode(data)
    available = {i: chunks[i] for i in (1, 3)}  # lose one data, one parity
    assert clay.decode(available, len(data)) == data


# -- optimal single-node repair -----------------------------------------------------


def _repair_inputs(clay, chunks, lost):
    planes = clay.repair_plane_indices(lost)
    return {
        node: chunks[node].reshape(clay.alpha, -1)[planes]
        for node in range(clay.n)
        if node != lost
    }


def test_repair_every_node_small(clay_small):
    rng = np.random.default_rng(8)
    data = rng.integers(0, 256, 128, dtype=np.uint8).tobytes()
    chunks = clay_small.encode(data)
    for lost in range(clay_small.n):
        rebuilt = clay_small.repair_chunk(lost, _repair_inputs(clay_small, chunks, lost))
        assert np.array_equal(rebuilt, chunks[lost])


def test_repair_every_node_paper(clay_paper):
    rng = np.random.default_rng(9)
    data = rng.integers(0, 256, 2 * 81 * 9, dtype=np.uint8).tobytes()
    chunks = clay_paper.encode(data)
    for lost in range(clay_paper.n):
        rebuilt = clay_paper.repair_chunk(lost, _repair_inputs(clay_paper, chunks, lost))
        assert np.array_equal(rebuilt, chunks[lost])


def test_repair_needs_all_helpers(clay_small):
    chunks = clay_small.encode(b"x" * 64)
    helpers = _repair_inputs(clay_small, chunks, 0)
    del helpers[2]
    with pytest.raises(InsufficientChunksError):
        clay_small.repair_chunk(0, helpers)


def test_repair_reads_beta_per_helper(clay_paper):
    """The MSR bandwidth optimum: beta = alpha/q sub-chunks per helper."""
    plan = clay_paper.repair_plan([4], [i for i in range(12) if i != 4])
    assert len(plan.reads) == clay_paper.d == 11
    for read in plan.reads:
        assert read.fraction == pytest.approx(1.0 / clay_paper.q)
    # Total traffic: d * beta / alpha = 11/3 chunks vs 9 chunks for RS.
    assert plan.read_fraction_total() == pytest.approx(11 / 3)
    assert plan.read_fraction_total() < 9.0


def test_multi_failure_plan_reads_plane_union(clay_paper):
    alive = [i for i in range(12) if i not in (3, 7)]
    plan = clay_paper.repair_plan([3, 7], alive)
    assert len(plan.reads) == 10
    # Union of two repair-plane sets: 1 - (1 - 1/q)^2 = 5/9 of each chunk.
    for read in plan.reads:
        assert read.fraction == pytest.approx(5 / 9)
    assert plan.read_fraction_total() == pytest.approx(10 * 5 / 9)


def test_repair_bandwidth_advantage_fades_with_failures(clay_paper):
    """The §4.2 trend: Clay/RS read ratio climbs toward 1 as f grows."""
    ratios = []
    for lost in ([3], [3, 7], [3, 7, 11]):
        alive = [i for i in range(12) if i not in lost]
        plan = clay_paper.repair_plan(lost, alive)
        ratios.append(plan.read_fraction_total() / 9.0)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[0] == pytest.approx(11 / 27)
    assert ratios[2] == pytest.approx(9 * (19 / 27) / 9)


def test_repair_plan_single_with_too_few_helpers_degrades(clay_paper):
    """With fewer than d survivors the plan falls back to full reads."""
    alive = list(range(9))  # 9 survivors < d=11
    plan = clay_paper.repair_plan([9], alive)
    assert all(read.fraction == 1.0 for read in plan.reads)


def test_repair_io_ops_reflect_scatter(clay_paper):
    """Sub-chunk reads are scattered: more than one contiguous run for
    most failed nodes (y0 > 0 gives q^{t-1-y0}... runs vary by node)."""
    runs = []
    for node in range(clay_paper.n):
        plan = clay_paper.repair_plan(
            [node], [i for i in range(12) if i != node]
        )
        runs.append(plan.reads[0].io_ops)
    assert max(runs) > 1
    assert all(r >= 1 for r in runs)


def test_gamma_autosearch_produces_invertible_systems():
    """Every constructible Clay code must pass its own repair validation."""
    for (k, m) in [(2, 2), (4, 2), (9, 3), (6, 3)]:
        clay = ClayCode(k, m)
        assert clay.gamma not in (0, 1)
        assert len(clay._repair_inverse) == clay.n
