"""Seeded random streams: independence and reproducibility."""

from repro.sim import SeedSequence, substream_seed


def test_substream_seed_is_stable():
    assert substream_seed(1, "a") == substream_seed(1, "a")


def test_substream_seed_varies_with_inputs():
    assert substream_seed(1, "a") != substream_seed(2, "a")
    assert substream_seed(1, "a") != substream_seed(1, "b")


def test_streams_reproducible():
    a = SeedSequence(9).stream("workload")
    b = SeedSequence(9).stream("workload")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_streams_independent():
    """Drawing from one stream must not perturb another."""
    seeds = SeedSequence(3)
    baseline = seeds.stream("faults").random()
    other = seeds.stream("workload")
    for _ in range(100):
        other.random()
    assert seeds.stream("faults").random() == baseline
