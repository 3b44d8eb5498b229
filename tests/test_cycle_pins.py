"""Pinned digests of the experiment cycle's presets.

Gray experiments, stretch-cluster restore runs and ``--writes`` chaos
campaigns all drive the same warmup -> inject -> load -> restore ->
settle -> digest cycle.  These SHA-256 values were recorded on the
tree where each preset still had a driver of its own; any change to
the shared cycle must reproduce them byte for byte.
"""

import hashlib

import pytest

from repro.chaos.engine import campaign_seed, run_campaign
from repro.chaos.sampler import sample_campaign
from repro.cluster import CephConfig
from repro.core.fault_injector import FaultSpec
from repro.core.profile import ExperimentProfile
from repro.geo.experiment import run_stretch_experiment
from repro.tenancy import TenantFleetSpec, run_tenant_experiment
from repro.workload.generator import Workload

MB = 1024 * 1024


def gray_profile(**ceph_overrides):
    return ExperimentProfile(
        name="gray-test",
        ec_plugin="jerasure",
        ec_params={"k": 4, "m": 2},
        pg_num=8,
        stripe_unit=1 * MB,
        num_hosts=8,
        osds_per_host=2,
        ceph=CephConfig(**ceph_overrides),
    )


DEFENDED = {
    "mon_osd_down_out_interval": 30.0,
    "client_op_timeout": 0.4,
    "client_retry_base": 0.1,
    "client_hedge_delay": 0.15,
}

#: name -> (ceph overrides, faults, run_tenant_experiment kwargs, digest);
#: the fleet is ``TenantFleetSpec.legacy()`` unless the kwargs name one.
GRAY_PINS = {
    "device": (
        {"mon_osd_down_out_interval": 30.0},
        [FaultSpec(level="device")],
        {"seed": 3, "fault_duration": 300.0},
        "d269b90980f15da6f99c9d14d03b4ad57259894cb3d052b23b3ae9b1778b9c3c",
    ),
    "slow_device_writes": (
        {},
        [FaultSpec(level="slow_device", factor=16.0)],
        {"seed": 11, "fault_duration": 300.0,
         "fleet_spec": TenantFleetSpec.legacy(2.0, 0.4, 0.5)},
        "9e622468655c6151f94d7f3eab1dc97049c7efd4a9a19f3dfead3c8f6778d460",
    ),
    "device_net_defended": (
        DEFENDED,
        [FaultSpec(level="device"),
         FaultSpec(level="net_degrade", latency=2.0, bandwidth_penalty=8.0)],
        {"seed": 7, "fault_duration": 400.0},
        "351f03b290dc9cf1117e89ddc1eae4bb2fe2c6b8c45e7ff580b437db2fc33a84",
    ),
    "flap": (
        {"mon_osd_markdown_count": 3},
        [FaultSpec(level="flap", flap_interval=15.0)],
        {"seed": 5, "fault_duration": 900.0},
        "c058965fc262489a08d8ba9648f23529cfe00a0b6f197539f95f8230670a83b9",
    ),
}


@pytest.mark.parametrize("name", sorted(GRAY_PINS))
def test_gray_digest_pinned(name):
    overrides, faults, kwargs, pinned = GRAY_PINS[name]
    kwargs = {"fleet_spec": TenantFleetSpec.legacy(), **kwargs}
    outcome = run_tenant_experiment(
        gray_profile(**overrides),
        Workload(num_objects=12, object_size=1 * MB),
        faults=faults,
        **kwargs,
    )
    digest = hashlib.sha256(outcome.digest_json().encode("utf-8")).hexdigest()
    assert digest == pinned


#: Region outage restored after 900 s (the locality A/B of
#: tests/test_geo_recovery.py), keyed by ``locality_aware``.
STRETCH_RESTORE_PINS = {
    True: "b5577a5076c555a59bd01f30d8ced478b6b35fe67129f31c2ba6082d787ba1f9",
    False: "2187812cb6f1881b8ef1e7660d5c70afbfa8bc7dcc41169f4d89ec61a45cc1f8",
}


@pytest.mark.parametrize("aware", sorted(STRETCH_RESTORE_PINS))
def test_stretch_restore_digest_pinned(aware):
    profile = ExperimentProfile(
        name="clay",
        ec_plugin="clay",
        ec_params={"k": 4, "m": 2, "d": 5},
        num_hosts=12,
        num_regions=3,
        pg_num=32,
        stripe_unit=1 << 20,
    )
    outcome = run_stretch_experiment(
        profile,
        Workload(num_objects=40, object_size=8 << 20),
        [FaultSpec(level="region_outage")],
        seed=7,
        locality_aware=aware,
        fault_duration=900.0,
    )
    assert outcome.digest() == STRETCH_RESTORE_PINS[aware]


#: ``--writes`` campaigns of root seed 2026 (index -> outcome hash); the
#: seed-11 writes campaign is pinned in tests/test_cascade_resilience.py.
WRITES_CAMPAIGN_PINS = {
    0: "0060192dca94d0a65f9467de8e26150692636d82d3ff7c024b815801e0f6cabd",
    1: "cc6e1a75b236b6c273ba9fcfc29a29c0abaa35834d4fa07e47ee2a8525581e50",
    2: "26c54e3aabef199b9c51b1ee2c58d6b0fd177901a2223ddbaebb28dab584a003",
}


@pytest.mark.parametrize("index", sorted(WRITES_CAMPAIGN_PINS))
def test_writes_campaign_hash_pinned(index):
    result = run_campaign(sample_campaign(campaign_seed(2026, index), writes=True))
    assert result.passed
    assert result.outcome_hash == WRITES_CAMPAIGN_PINS[index]
