"""Division-and-padding layout: the paper's S_chunk formula (§4.4)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster import layout_object

KB = 1024
MB = 1024 * 1024


def test_paper_formula_exactly():
    """S_chunk = S_unit * ceil(S_object / (k * S_unit))."""
    layout = layout_object(64 * MB, n=12, k=9, stripe_unit=4 * KB)
    expected_units = math.ceil(64 * MB / (9 * 4 * KB))
    assert layout.units == expected_units
    assert layout.chunk_stored_bytes == expected_units * 4 * KB


def test_undersized_chunk_padded_to_stripe_unit():
    """Object smaller than k * stripe_unit: one unit per chunk."""
    layout = layout_object(10 * KB, n=12, k=9, stripe_unit=4 * KB)
    assert layout.units == 1
    assert layout.chunk_stored_bytes == 4 * KB


def test_zero_byte_object_still_occupies_a_unit():
    layout = layout_object(0, n=6, k=4, stripe_unit=4 * KB)
    assert layout.units == 1


def test_oversized_chunk_divided_into_units():
    layout = layout_object(100 * KB, n=6, k=4, stripe_unit=4 * KB)
    assert layout.units == math.ceil(100 / 16)  # 7
    assert layout.chunk_stored_bytes == 7 * 4 * KB


def test_padding_total():
    layout = layout_object(28 * KB, n=12, k=9, stripe_unit=4 * KB)
    # chunk = 4KB, data side stores 9*4KB = 36KB for 28KB of data.
    assert layout.chunk_stored_bytes == 4 * KB


def test_stored_total_and_span():
    layout = layout_object(64 * MB, n=12, k=9, stripe_unit=4 * MB)
    assert layout.units == 2  # ceil(64 / 36)
    assert layout.chunk_stored_bytes == 8 * MB


def test_64mb_stripe_unit_inflation():
    """The Fig 2c / §4.4 effect: 64 MB units waste ~9x for 64 MB objects."""
    layout = layout_object(64 * MB, n=12, k=9, stripe_unit=64 * MB)
    assert layout.units == 1
    assert layout.chunk_stored_bytes == 64 * MB  # vs ~7.1 MB logical
    assert layout.n * layout.chunk_stored_bytes / (64 * MB) == pytest.approx(12.0)


def test_validation():
    with pytest.raises(ValueError):
        layout_object(-1, 12, 9, 4096)
    with pytest.raises(ValueError):
        layout_object(100, 9, 9, 4096)  # k == n
    with pytest.raises(ValueError):
        layout_object(100, 12, 9, 0)


@given(
    size=st.integers(min_value=0, max_value=10**9),
    k=st.integers(min_value=1, max_value=20),
    m=st.integers(min_value=1, max_value=6),
    unit=st.sampled_from([4 * KB, 64 * KB, 1 * MB, 4 * MB]),
)
def test_property_storage_never_below_logical(size, k, m, unit):
    layout = layout_object(size, n=k + m, k=k, stripe_unit=unit)
    # Data-side storage always covers the object.
    assert layout.k * layout.chunk_stored_bytes >= size
    # Chunk size is always a whole number of stripe units.
    assert layout.chunk_stored_bytes % unit == 0
    # Padding is strictly less than one stripe unit per... the span:
    # removing one unit row must not still cover the object.
    if layout.units > 1:
        assert (layout.units - 1) * unit * k < size


@given(
    size=st.integers(min_value=1, max_value=10**8),
    k=st.integers(min_value=2, max_value=16),
)
def test_property_matches_ceil_formula(size, k):
    unit = 4 * KB
    layout = layout_object(size, n=k + 2, k=k, stripe_unit=unit)
    assert layout.chunk_stored_bytes == unit * math.ceil(size / (k * unit))
