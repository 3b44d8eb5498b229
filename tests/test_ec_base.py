"""ErasureCode base contract: registry, geometry, plans, validation."""

import pytest

from repro.ec import (
    ClayCode,
    InsufficientChunksError,
    ReedSolomon,
    available_plugins,
    create_plugin,
)
from repro.ec.base import ChunkUnavailableError, RepairPlan, RepairRead


def test_all_paper_plugins_registered():
    plugins = available_plugins()
    for name in ("jerasure", "isa", "clay", "lrc", "shec"):
        assert name in plugins


def test_create_plugin_by_name():
    code = create_plugin("jerasure", k=4, m=2)
    assert isinstance(code, ReedSolomon)
    assert (code.k, code.m, code.n) == (4, 2, 6)


def test_create_unknown_plugin():
    with pytest.raises(KeyError, match="unknown EC plugin"):
        create_plugin("nonexistent", k=2, m=1)


def test_plugin_name_attribute():
    assert ReedSolomon(4, 2).plugin_name == "jerasure"
    assert ClayCode(4, 2).plugin_name == "clay"


def test_invalid_km_rejected():
    with pytest.raises(ValueError):
        ReedSolomon(0, 2)
    with pytest.raises(ValueError):
        ReedSolomon(4, 0)


def test_storage_overhead_is_n_over_k():
    code = ReedSolomon(9, 3)
    assert code.storage_overhead == pytest.approx(12 / 9)


def test_fault_tolerance_is_m():
    assert ReedSolomon(9, 3).fault_tolerance() == 3


def test_chunk_size_rounds_up():
    code = ReedSolomon(4, 2)
    assert code.chunk_size(0) == 1
    assert code.chunk_size(1) == 1
    assert code.chunk_size(4) == 1
    assert code.chunk_size(5) == 2
    with pytest.raises(ValueError):
        code.chunk_size(-1)


def test_chunk_size_aligned_to_subchunks():
    clay = ClayCode(2, 2)  # alpha = 4
    assert clay.chunk_size(1) % clay.sub_chunk_count == 0
    assert clay.chunk_size(9) % clay.sub_chunk_count == 0


def test_default_repair_plan_reads_k_full_chunks():
    code = ReedSolomon(9, 3)
    alive = [i for i in range(12) if i != 3]
    plan = code.repair_plan([3], alive)
    assert len(plan.reads) == 9
    assert plan.read_fraction_total() == pytest.approx(9.0)
    assert plan.lost == (3,)
    assert all(r.fraction == 1.0 and r.io_ops == 1 for r in plan.reads)


def test_repair_plan_validates_indices():
    code = ReedSolomon(4, 2)
    with pytest.raises(ChunkUnavailableError):
        code.repair_plan([9], [0, 1, 2, 3])
    with pytest.raises(ValueError, match="both lost and alive"):
        code.repair_plan([1], [1, 2, 3, 4])


def test_repair_plan_insufficient_survivors():
    code = ReedSolomon(4, 2)
    with pytest.raises(InsufficientChunksError):
        code.repair_plan([0, 1, 2], [3, 4, 5])


def test_repair_plan_dataclass_helpers():
    plan = RepairPlan(
        lost=(1,),
        reads=(
            RepairRead(chunk_index=0, fraction=0.5, io_ops=2),
            RepairRead(chunk_index=2, fraction=0.5, io_ops=2),
        ),
        decode_work=1.5,
    )
    assert len(plan.reads) == 2
    assert plan.read_fraction_total() == pytest.approx(1.0)


def test_decode_roundtrip_via_base_decode():
    code = ReedSolomon(4, 2)
    data = bytes(range(100))
    chunks = code.encode(data)
    available = {i: chunks[i] for i in (1, 2, 4, 5)}
    assert code.decode(available, len(data)) == data


def test_encode_empty_payload():
    code = ReedSolomon(4, 2)
    chunks = code.encode(b"")
    assert len(chunks) == 6
    assert code.decode({i: chunks[i] for i in range(4)}, 0) == b""


def test_duplicate_plugin_registration_rejected():
    from repro.ec.base import register_plugin

    with pytest.raises(ValueError, match="duplicate"):

        @register_plugin("jerasure")
        class Twin(ReedSolomon):
            pass
