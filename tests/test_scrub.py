"""Scrub & silent-corruption subsystem: checksums, detection, repair."""

import numpy as np
import pytest

from repro.cluster import (
    CephConfig,
    CorruptionModel,
    IntegrityConfig,
    ScrubConfig,
    check_health,
)
from repro.cluster.objectstore import block_checksums, blocks_in, crc32c
from repro.core import (
    Controller,
    ExperimentProfile,
    FaultSpec,
    FaultToleranceError,
)
from repro.workload import Workload

KB = 1024
FAST = CephConfig(mon_osd_down_out_interval=30.0)


def scrub_profile(**overrides):
    base = dict(
        name="scrub-test",
        ec_plugin="jerasure",
        ec_params={"k": 4, "m": 2},
        num_hosts=8,
        pg_num=16,
        stripe_unit=64 * KB,
        ceph=FAST,
        scrub_interval=60.0,
        integrity_data_plane=True,
    )
    base.update(overrides)
    return ExperimentProfile(**base)


def run_corruption(model, count=1, seed=7, **overrides):
    controller = Controller(scrub_profile(**overrides), seed=seed)
    workload = Workload(num_objects=12, object_size=256 * KB)
    outcome = controller.coordinator.run(
        workload,
        faults=[FaultSpec(level="corrupt", count=count, corruption=model)],
        warmup=30.0,
        settle_time=20_000.0,
    )
    return controller, outcome


# -- crc32c and block checksums ------------------------------------------------


def test_crc32c_known_answer():
    # The RFC 3720 (iSCSI) check value for the Castagnoli polynomial.
    assert crc32c(b"123456789") == 0xE3069283


def test_crc32c_empty_and_incremental():
    assert crc32c(b"") == 0
    whole = crc32c(b"123456789")
    partial = crc32c(b"6789", crc32c(b"12345"))
    assert partial == whole
    assert whole != crc32c(b"12345")


def test_crc32c_detects_single_bit_flip():
    data = bytes(range(256))
    flipped = bytearray(data)
    flipped[100] ^= 0x01
    assert crc32c(data) != crc32c(bytes(flipped))


def test_blocks_in():
    assert blocks_in(0, 4096) == 1
    assert blocks_in(1, 4096) == 1
    assert blocks_in(4096, 4096) == 1
    assert blocks_in(4097, 4096) == 2
    with pytest.raises(ValueError, match="positive"):
        blocks_in(10, 0)
    with pytest.raises(ValueError, match="negative"):
        blocks_in(-1, 4096)


def test_block_checksums_granularity():
    data = bytes(10_000)
    fine = block_checksums(data, 1024)
    coarse = block_checksums(data, 4096)
    assert len(fine) == 10
    assert len(coarse) == 3
    # Each value is the crc of its own block.
    assert fine[0] == crc32c(data[:1024])


# -- configuration validation ---------------------------------------------------


def test_scrub_config_validation():
    with pytest.raises(ValueError, match="interval"):
        ScrubConfig(interval=0)
    with pytest.raises(ValueError, match="pgs_per_batch"):
        ScrubConfig(pgs_per_batch=0)
    with pytest.raises(ValueError, match="read_rate"):
        ScrubConfig(read_rate=0)


def test_integrity_config_validation():
    with pytest.raises(ValueError, match="csum_block_size"):
        IntegrityConfig(csum_block_size=0)


def test_profile_scrub_validation():
    with pytest.raises(ValueError, match="scrub_interval"):
        scrub_profile(scrub_interval=-1.0)
    with pytest.raises(ValueError, match="csum_block_size"):
        scrub_profile(csum_block_size=0)
    with pytest.raises(ValueError, match="scrub_pgs_per_batch"):
        scrub_profile(scrub_pgs_per_batch=0)


# -- end-to-end: inject -> deep scrub -> detect -> repair -> HEALTH_OK ----------


@pytest.mark.parametrize("model", CorruptionModel.ALL)
def test_detects_and_repairs_every_model(model):
    controller, outcome = run_corruption(model, count=2)
    stats = outcome.scrub_stats
    assert stats.errors_detected == 2
    assert stats.chunks_repaired == 2
    assert stats.pgs_inconsistent == 1
    assert controller.cluster.integrity.all_clean()
    assert check_health(controller.cluster).status == "HEALTH_OK"
    timeline = outcome.scrub_timeline
    assert timeline is not None
    assert timeline.error_detected <= timeline.repair_started
    assert timeline.repair_started <= timeline.repair_finished <= timeline.health_ok


def test_repair_is_bit_identical():
    controller, _ = run_corruption("misdirected_write", count=2)
    integrity = controller.cluster.integrity
    code = controller.cluster.pool.code
    # Every chunk verifies clean again...
    for pgid, name, shard in list(integrity._chunks):
        assert integrity.verify(pgid, name, shard) == []
    # ...and every stored byte equals a fresh re-encode of the payload.
    pg = next(pg for pg in controller.cluster.pool.pgs.values() if pg.objects)
    obj = pg.objects[0]
    chunks = code.encode(integrity._payload_for(obj.name, obj.size))
    for shard in range(code.n):
        original = np.asarray(chunks[shard], dtype=np.uint8).tobytes()
        assert integrity.chunk_data(pg.pgid, obj.name, shard) == original


def test_health_transitions_err_warn_ok():
    _, outcome = run_corruption("bit_rot")
    collector = outcome.collector
    err = collector.first_matching("cluster health now health_err")
    warn = collector.first_matching("cluster health now health_warn")
    ok = collector.last_matching("cluster health now health_ok")
    assert err is not None and warn is not None and ok is not None
    assert err.time <= warn.time <= ok.time


def test_model_mode_detects_without_data_plane():
    controller, outcome = run_corruption(
        "torn_write", count=2, integrity_data_plane=False
    )
    assert outcome.scrub_stats.errors_detected == 2
    assert outcome.scrub_stats.chunks_repaired == 2
    assert controller.cluster.integrity.all_clean()


def test_excess_corruption_raises():
    with pytest.raises(FaultToleranceError):
        run_corruption("bit_rot", count=3)  # m = 2


def test_cumulative_stripe_guard():
    controller = Controller(scrub_profile(), seed=3)
    for i in range(12):
        controller.cluster.ingest_object(f"o{i}", 256 * KB)
    injector = controller.fault_injector
    injector.inject(FaultSpec(level="corrupt", count=2, targets=[0, 1]))
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="corrupt", count=1, targets=[2]))


def test_corrupt_fault_with_scrub_disabled_is_refused():
    # Integrity on (data plane) but no scrub schedule: nothing would ever
    # detect the corruption, so the coordinator refuses to run.
    controller = Controller(scrub_profile(scrub_interval=0.0), seed=1)
    with pytest.raises(ValueError, match="scrub"):
        controller.coordinator.run(
            Workload(num_objects=6, object_size=256 * KB),
            faults=[FaultSpec(level="corrupt")],
            warmup=10.0,
        )


def test_corruption_cycle_is_deterministic():
    _, a = run_corruption("bit_rot", seed=11)
    _, b = run_corruption("bit_rot", seed=11)
    assert a.scrub_stats == b.scrub_stats
    assert a.scrub_timeline == b.scrub_timeline


def test_scrub_timeline_annotations():
    _, outcome = run_corruption("bit_rot")
    marks = outcome.scrub_timeline.annotations()
    labels = [label for _, label in marks]
    assert labels[0] == "Silent corruption injected"
    assert labels[-1] == "HEALTH_OK restored"
    offsets = [offset for offset, _ in marks]
    assert offsets == sorted(offsets)
    assert 0.0 <= outcome.scrub_timeline.detection_fraction <= 1.0


def test_checksum_metadata_is_accounted():
    with_csums = Controller(
        scrub_profile(integrity_data_plane=False), seed=5
    )
    without = Controller(
        scrub_profile(scrub_interval=0.0, integrity_data_plane=False), seed=5
    )
    for controller in (with_csums, without):
        for i in range(8):
            controller.cluster.ingest_object(f"o{i}", 256 * KB)
    assert with_csums.cluster.used_bytes_total() > without.cluster.used_bytes_total()


def test_scrub_disabled_baseline_untouched():
    # The default profile never registers integrity state or scrub
    # processes, so baseline experiments are unperturbed.
    controller = Controller(
        ExperimentProfile(
            name="plain",
            ec_params={"k": 4, "m": 2},
            pg_num=16,
            num_hosts=8,
            ceph=FAST,
        ),
        seed=0,
    )
    assert not controller.cluster.integrity.config.enabled
    assert not controller.cluster.scrub.config.enabled
    controller.cluster.ingest_object("o0", 256 * KB)
    assert controller.cluster.integrity._chunks == {}
