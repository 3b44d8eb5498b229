"""Unit tests for the analytical twin's closed forms.

Every expectation here is hand-computed from the paper's formulas and
the BlueStore accounting constants — never from the DES — so these
tests pin the twin's arithmetic independently of the simulator it
mirrors.  (The twin-vs-DES agreement itself is the differential
harness's job: ``test_twin_differential.py``.)
"""

import pytest

from repro.core.fault_injector import FaultSpec
from repro.core.profile import ExperimentProfile
from repro.twin import (
    AnalyticalTwin,
    TwinCalibration,
    predict,
    predict_overwrite_amplification,
)
from repro.workload.generator import Workload

MB = 1024 * 1024
KB = 1024


def make_profile(**overrides):
    defaults = dict(
        name="twin-unit",
        ec_plugin="jerasure",
        ec_params={"k": 4, "m": 2},
        num_hosts=8,
        osds_per_host=1,
        pg_num=64,
        stripe_unit=1 * MB,
    )
    defaults.update(overrides)
    return ExperimentProfile(**defaults)


NODE_FAULT = [FaultSpec(level="node", count=1)]


# -- WA closed form (Table 3 arithmetic) ------------------------------------------


def test_wa_closed_form_rs_small_grid():
    # k=4, su=1MB, 6MB object: units = ceil(6 / (4*1)) = 2, chunk = 2MB.
    # Per chunk: allocation = 2MB (already 4KiB-aligned), metadata =
    # onode 64 + ec attr 32 + 2 extents * 16 = 128.  n=6 chunks/object.
    profile = make_profile()
    workload = Workload(num_objects=10, object_size=6 * MB)
    prediction = predict(profile, workload, [])
    per_chunk = 2 * MB + 64 + 32 + 2 * 16
    assert prediction.used_bytes == 10 * 6 * per_chunk
    assert prediction.wa_actual == pytest.approx(
        10 * 6 * per_chunk / (10 * 6 * MB), rel=1e-12
    )


def test_wa_closed_form_padding():
    # 5MB object, k=4, su=1MB: units = ceil(5/4) = 2, so each chunk
    # stores 2MB — 60% padding waste before metadata even enters.
    profile = make_profile()
    workload = Workload(num_objects=4, object_size=5 * MB)
    prediction = predict(profile, workload, [])
    assert prediction.used_bytes == 4 * 6 * (2 * MB + 128)
    # Theoretical n/k = 1.5; padding alone lifts actual above 2.4.
    assert prediction.wa_actual > 2.4


def test_wa_closed_form_integrity_checksums():
    # Enabling scrubbing persists crc32c values: one 4-byte checksum
    # per 4KiB csum block, 2MB/4KiB = 512 blocks -> 2048 extra bytes.
    plain = predict(
        make_profile(), Workload(num_objects=10, object_size=6 * MB), []
    )
    checked = predict(
        make_profile(scrub_interval=300.0),
        Workload(num_objects=10, object_size=6 * MB),
        [],
    )
    assert checked.used_bytes - plain.used_bytes == 10 * 6 * 512 * 4


# -- read amplification (repair plans) --------------------------------------------


def test_rs_read_amplification_is_k():
    # RS repairs any single loss from k full chunks; with one OSD per
    # host a node fault loses exactly one chunk per affected PG.
    prediction = predict(
        make_profile(), Workload(num_objects=32, object_size=4 * MB), NODE_FAULT
    )
    assert prediction.repair_bytes_read > 0
    assert prediction.repair_bytes_read / prediction.repair_bytes_written == (
        pytest.approx(4.0, rel=1e-9)
    )


def test_clay_read_amplification_is_fractional():
    # Clay(k=4,m=2,d=5) reads d helpers at fraction 1/(d-k+1) = 1/2
    # each: 5 * 0.5 = 2.5 chunk-equivalents per repaired chunk.
    prediction = predict(
        make_profile(ec_plugin="clay", ec_params={"k": 4, "m": 2, "d": 5}),
        Workload(num_objects=32, object_size=4 * MB),
        NODE_FAULT,
    )
    assert prediction.repair_bytes_read / prediction.repair_bytes_written == (
        pytest.approx(2.5, rel=1e-9)
    )


def test_lrc_read_amplification_averages_local_and_global():
    # LRC(k=4,l=2,r=2), n=8.  Positions 0-5 (data + local parities)
    # repair from their 2-member local group; the 2 global parities need
    # a k-wide global decode: (6*2 + 2*4) / 8 = 2.5.
    prediction = predict(
        make_profile(
            ec_plugin="lrc",
            ec_params={"k": 4, "l": 2, "r": 2},
            num_hosts=10,
        ),
        Workload(num_objects=32, object_size=4 * MB),
        NODE_FAULT,
    )
    assert prediction.repair_bytes_read / prediction.repair_bytes_written == (
        pytest.approx(2.5, rel=1e-9)
    )


# -- checking period ---------------------------------------------------------------


def test_checking_period_closed_form():
    # Detection is tick-aligned with the down/out interval, so checking
    # = mon_osd_down_out_interval + peering (base + per-object share).
    profile = make_profile()
    workload = Workload(num_objects=32, object_size=4 * MB)
    prediction = predict(profile, workload, NODE_FAULT)
    config = profile.ceph
    expected = (
        config.mon_osd_down_out_interval
        + config.peering_base
        + config.peering_per_object * (32 / 64)
    )
    assert prediction.checking_period == pytest.approx(expected, rel=1e-12)
    assert 0.0 < prediction.checking_fraction < 1.0


def test_gray_faults_predict_no_recovery():
    # Gray levels never change the osdmap: no backfill, no timeline.
    prediction = predict(
        make_profile(),
        Workload(num_objects=32, object_size=4 * MB),
        [FaultSpec(level="slow_device", count=1, factor=4.0)],
    )
    assert prediction.recovery_time == 0.0
    assert prediction.repair_bytes_read == 0.0


@pytest.mark.parametrize("overrides, faults, message", [
    ({"num_hosts": 5}, NODE_FAULT, "host has 5 hosts"),
    ({"failure_domain": "osd", "num_hosts": 2, "osds_per_host": 2},
     NODE_FAULT, "osd has 4 OSDs"),
    ({"failure_domain": "rack", "num_racks": 4},
     [FaultSpec(level="correlated_crash", domain="rack")], "rack has 4 racks"),
], ids=["host", "osd", "rack"])
def test_domain_narrower_than_the_stripe_is_refused(overrides, faults, message):
    # RS(4,2) needs 6 buckets; the loss distribution used to divide by
    # C(buckets, 6) = 0.
    with pytest.raises(ValueError, match=f"{message}, fewer than the n=6"):
        predict(make_profile(**overrides), Workload(num_objects=4), faults)


# -- RMW overwrite amplification ---------------------------------------------------


def test_rmw_overwrite_amplification_is_one_plus_m():
    # A partial-stripe RMW rewrites the data unit plus every parity.
    profile = make_profile(ec_params={"k": 9, "m": 3})
    assert predict_overwrite_amplification(profile) == 4.0
    assert predict_overwrite_amplification(profile, rmw_fraction=1.0) == 4.0


def test_full_stripe_overwrite_amplification_is_n_over_k():
    profile = make_profile(ec_params={"k": 9, "m": 3})
    assert predict_overwrite_amplification(
        profile, rmw_fraction=0.0
    ) == pytest.approx(12 / 9, rel=1e-12)


def test_mixed_overwrite_amplification_interpolates():
    profile = make_profile(ec_params={"k": 4, "m": 2})
    full, rmw = 6 / 4, 1 + 2
    assert predict_overwrite_amplification(
        profile, rmw_fraction=0.25
    ) == pytest.approx(0.25 * rmw + 0.75 * full, rel=1e-12)
    with pytest.raises(ValueError):
        predict_overwrite_amplification(profile, rmw_fraction=1.5)


# -- calibration validation --------------------------------------------------------


def test_calibration_rejects_bad_values():
    with pytest.raises(ValueError):
        TwinCalibration(chain_exponent=1.5)
    with pytest.raises(ValueError):
        TwinCalibration(read_efficiency=0.0)


def test_twin_is_stateless_across_predictions():
    twin = AnalyticalTwin()
    workload = Workload(num_objects=32, object_size=4 * MB)
    first = twin.predict(make_profile(), workload, NODE_FAULT)
    twin.predict(
        make_profile(pg_num=16), Workload(num_objects=8, object_size=1 * MB),
        [FaultSpec(level="device", count=2)],
    )
    again = twin.predict(make_profile(), workload, NODE_FAULT)
    assert first.digest_json() == again.digest_json()


# -- WAN-hop term (stretch clusters) ------------------------------------------


def test_single_region_prediction_has_no_wan_term():
    prediction = predict(
        make_profile(), Workload(num_objects=16, object_size=4 * MB),
        NODE_FAULT,
    )
    assert prediction.wan_cross_read_bytes is None
    assert "wan_cross_read_bytes" not in prediction.to_dict()


def test_multi_region_prediction_carries_wan_term():
    profile = make_profile(num_hosts=12, num_regions=3)
    prediction = predict(
        profile, Workload(num_objects=16, object_size=4 * MB), NODE_FAULT,
    )
    cross = prediction.wan_cross_read_bytes
    assert cross is not None
    # A 3-region RS(4,2) stripe keeps 2 shards at home: with k=4 reads
    # at least two helpers sit across the WAN, never more than all four.
    assert 0 < cross <= prediction.repair_bytes_read
    assert prediction.to_dict()["wan_cross_read_bytes"] == cross


def test_wan_term_is_deterministic_and_latency_sensitive():
    workload = Workload(num_objects=16, object_size=4 * MB)
    base = make_profile(num_hosts=12, num_regions=3)
    slow = make_profile(num_hosts=12, num_regions=3, wan_latency=5.0)
    first = predict(base, workload, NODE_FAULT)
    again = predict(base, workload, NODE_FAULT)
    assert first.digest_json() == again.digest_json()
    assert predict(slow, workload, NODE_FAULT).ec_recovery_period > \
        first.ec_recovery_period
