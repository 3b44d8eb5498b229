"""Workload generation and iostat sampling."""

import pytest

from repro.cluster import GP_SSD, Disk
from repro.sim import Environment, SeedSequence
from repro.workload import PAPER_DEFAULT, IostatCollector, Workload

MB = 1024 * 1024


def test_paper_default_workload():
    assert PAPER_DEFAULT.num_objects == 10_000
    assert PAPER_DEFAULT.object_size == 64 * MB
    assert PAPER_DEFAULT.num_objects * PAPER_DEFAULT.object_size == 10_000 * 64 * MB


def test_workload_validation():
    with pytest.raises(ValueError):
        Workload(num_objects=-1)
    with pytest.raises(ValueError):
        Workload(object_size=0)
    with pytest.raises(ValueError):
        Workload(size_jitter=1.5)


def test_writes_are_deterministic():
    wl = Workload(num_objects=10, object_size=MB, size_jitter=0.2)
    a = list(wl.writes(SeedSequence(5)))
    b = list(wl.writes(SeedSequence(5)))
    assert a == b
    c = list(wl.writes(SeedSequence(6)))
    assert a != c


def test_writes_without_jitter_fixed_size():
    wl = Workload(num_objects=5, object_size=3 * MB)
    sizes = {w.size for w in wl.writes()}
    assert sizes == {3 * MB}
    names = [w.name for w in wl.writes()]
    assert len(set(names)) == 5


def test_jitter_bounds():
    wl = Workload(num_objects=100, object_size=MB, size_jitter=0.5)
    for write in wl.writes(SeedSequence(1)):
        assert 0.5 * MB <= write.size <= 1.5 * MB


# -- iostat ---------------------------------------------------------------------


def test_iostat_samples_deltas():
    env = Environment()
    disk = Disk(env, GP_SSD, name="d0")
    collector = IostatCollector(env, {"d0": disk}, interval=10.0)

    def io():
        yield disk.submit(5, 1000, write=False)
        yield env.timeout(15)
        yield disk.submit(3, 500, write=True)

    env.process(io())
    env.run(until=30)
    series = collector.samples
    assert len(series) == 3 and {s.device for s in series} == {"d0"}
    assert series[0].read_ops == 5
    assert series[0].read_bytes == 1000
    assert series[1].write_ops == 3
    # Second interval only saw the write.
    assert series[1].read_ops == 0


def test_iostat_interval_validation():
    env = Environment()
    with pytest.raises(ValueError):
        IostatCollector(env, {}, interval=0)


def test_busiest_devices_ranking():
    env = Environment()
    quiet = Disk(env, GP_SSD, name="quiet")
    busy = Disk(env, GP_SSD, name="busy")
    collector = IostatCollector(env, {"quiet": quiet, "busy": busy}, interval=5.0)

    def io():
        yield busy.submit(1, 10_000_000, write=False)
        yield quiet.submit(1, 100, write=False)

    env.process(io())
    env.run(until=10)
    assert collector.busiest_devices(top=1) == ["busy"]

