"""Repair-traffic accounting: plans expanded to bytes and operations."""

import pytest

from repro.ec import ClayCode, ReedSolomon, traffic_for_plan


def chunks_read(code, lost):
    """Repair bandwidth in chunk units for ``lost`` with every other
    chunk alive."""
    alive = [i for i in range(code.n) if i not in lost]
    return code.repair_plan(lost, alive).read_fraction_total()


def test_rs_traffic_full_chunks():
    code = ReedSolomon(9, 3)
    plan = code.repair_plan([0], list(range(1, 12)))
    traffic = traffic_for_plan(plan, chunk_bytes=1_000_000, units_per_chunk=10)
    assert sum(traffic.read_bytes_by_chunk.values()) == 9 * 1_000_000
    assert sum(traffic.read_ops_by_chunk.values()) == 9 * 10
    assert traffic.write_bytes == 1_000_000
    assert traffic.write_ops == 10
    assert traffic.decode_work == 1.0


def test_clay_single_failure_traffic_is_fractional():
    clay = ClayCode(9, 3, d=11)
    plan = clay.repair_plan([0], list(range(1, 12)))
    traffic = traffic_for_plan(plan, chunk_bytes=81_000, units_per_chunk=1)
    # 11 helpers x 1/3 chunk each.
    assert sum(traffic.read_bytes_by_chunk.values()) == 11 * 27_000
    assert traffic.write_bytes == 81_000
    # Scattered runs: ops exceed one per helper chunk.
    assert sum(traffic.read_ops_by_chunk.values()) >= 11


def test_clay_beats_rs_bandwidth_single_failure():
    rs = ReedSolomon(9, 3)
    clay = ClayCode(9, 3, d=11)
    assert chunks_read(rs, [2]) == pytest.approx(9.0)
    assert chunks_read(clay, [2]) == pytest.approx(11 / 3)


def test_clay_advantage_shrinks_with_multi_failure():
    rs = ReedSolomon(9, 3)
    clay = ClayCode(9, 3, d=11)
    ratio_1f = chunks_read(clay, [2]) / chunks_read(rs, [2])
    ratio_3f = chunks_read(clay, [2, 7, 11]) / chunks_read(rs, [2, 7, 11])
    assert ratio_1f < ratio_3f  # the advantage fades as failures grow


def test_traffic_validates_geometry():
    code = ReedSolomon(4, 2)
    plan = code.repair_plan([0], [1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        traffic_for_plan(plan, chunk_bytes=0, units_per_chunk=1)
    with pytest.raises(ValueError):
        traffic_for_plan(plan, chunk_bytes=100, units_per_chunk=0)


def test_multi_loss_write_accounting():
    code = ReedSolomon(4, 2)
    plan = code.repair_plan([0, 1], [2, 3, 4, 5])
    traffic = traffic_for_plan(plan, chunk_bytes=500, units_per_chunk=2)
    assert traffic.write_bytes == 1000
    assert traffic.write_ops == 4

