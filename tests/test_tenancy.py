"""Multi-tenant fleet: specs, accounting, seed stability, chaos wiring.

The legacy-equivalent fleet (one default tenant, uniform arrivals, QoS
off) is the single client stream of gray experiments; its digests are
pinned in tests/test_cycle_pins.py.
"""

from collections import namedtuple

import pytest

from repro.chaos.campaign import CampaignSpec
from repro.chaos.engine import run_chaos
from repro.chaos.sampler import sample_campaign
from repro.cluster import CephConfig
from repro.core.controller import Controller
from repro.core.fault_injector import FaultSpec
from repro.core.profile import ExperimentProfile
from repro.tenancy import (
    LEGACY_TENANT_NAME,
    SloSpec,
    TenantFleetSpec,
    TenantSpec,
    merge_windows,
    run_tenant_experiment,
    slo_violation_windows,
    tenant_class_name,
)
from repro.workload.generator import Workload

MB = 1024 * 1024


def small_profile(name="tenancy"):
    return ExperimentProfile(
        name=name,
        ec_plugin="jerasure",
        ec_params={"k": 4, "m": 2},
        pg_num=8,
        stripe_unit=1 * MB,
        num_hosts=8,
        osds_per_host=2,
        ceph=CephConfig(),
    )


def small_workload(objects=12):
    return Workload(num_objects=objects, object_size=1 * MB)


# -- spec validation and round-trips --------------------------------------------


def test_tenant_spec_validation():
    with pytest.raises(ValueError, match="name"):
        TenantSpec(name="")
    with pytest.raises(ValueError, match="name"):
        TenantSpec(name="a:b")  # ':' is the QoS class separator
    with pytest.raises(ValueError, match="interval"):
        TenantSpec(name="a", interval=0.0)
    with pytest.raises(ValueError, match="arrival"):
        TenantSpec(name="a", arrival="bursty")
    with pytest.raises(ValueError, match="write_fraction"):
        TenantSpec(name="a", write_fraction=1.5)
    with pytest.raises(ValueError, match="limit must be >= reservation"):
        TenantSpec(name="a", reservation=0.5, limit=0.1)


def test_fleet_spec_validation():
    with pytest.raises(ValueError, match="at least one"):
        TenantFleetSpec(tenants=())
    with pytest.raises(ValueError, match="duplicate"):
        TenantFleetSpec(tenants=(TenantSpec(name="a"), TenantSpec(name="a")))
    with pytest.raises(ValueError, match="oversubscribe"):
        TenantFleetSpec(
            tenants=(
                TenantSpec(name="a", reservation=0.2),
                TenantSpec(name="b", reservation=0.2),
            ),
            qos_enabled=True,
            recovery_reservation=0.7,
        )
    # The same reservations are fine with QoS off (carried but inert).
    TenantFleetSpec(
        tenants=(
            TenantSpec(name="a", reservation=0.2),
            TenantSpec(name="b", reservation=0.2),
        ),
    )


def test_fleet_spec_round_trips_through_json_dict():
    spec = TenantFleetSpec(
        tenants=(
            TenantSpec(name="latency", interval=1.0, reservation=0.15,
                       weight=4.0, slo=SloSpec(p99_latency=0.25, window=30.0)),
            TenantSpec(name="batch", interval=0.5, arrival="poisson",
                       write_fraction=0.5, rmw_fraction=0.25, limit=0.25),
        ),
        qos_enabled=True,
        client_rate=100e6,
    )
    assert TenantFleetSpec.from_dict(spec.to_dict()) == spec


def test_legacy_equivalence_detection():
    assert TenantFleetSpec.legacy().is_legacy_equivalent()
    # An SLO may ride along without breaking equivalence (no extra draws).
    assert TenantFleetSpec.legacy(slo=SloSpec(p99_latency=1.0)).is_legacy_equivalent()
    renamed = TenantFleetSpec(tenants=(TenantSpec(name="solo"),))
    assert not renamed.is_legacy_equivalent()
    poisson = TenantFleetSpec(
        tenants=(TenantSpec(name=LEGACY_TENANT_NAME, arrival="poisson"),)
    )
    assert not poisson.is_legacy_equivalent()
    qos = TenantFleetSpec(
        tenants=(TenantSpec(name=LEGACY_TENANT_NAME),), qos_enabled=True
    )
    assert not qos.is_legacy_equivalent()


def test_fleet_qos_classes_cover_background_and_tenants():
    spec = TenantFleetSpec(
        tenants=(TenantSpec(name="a"), TenantSpec(name="b")), qos_enabled=True
    )
    names = [qos_class.name for qos_class in spec.read_classes()]
    assert names == ["recovery", "scrub", "tenant:a", "tenant:b"]
    assert tenant_class_name("a") == "tenant:a"


# -- accounting windows ---------------------------------------------------------

Sample = namedtuple("Sample", "issued_at latency bytes_read")


def test_merge_windows_coalesces_touching_intervals():
    assert merge_windows([(10.0, 20.0), (0.0, 5.0), (20.0, 30.0)]) == [
        (0.0, 5.0),
        (10.0, 30.0),
    ]
    assert merge_windows([]) == []



def test_slo_windows_flag_p99_breaches_and_merge():
    slo = SloSpec(p99_latency=0.1, window=10.0)
    samples = [
        Sample(issued_at=1.0, latency=0.05, bytes_read=MB),   # window 0: fine
        Sample(issued_at=12.0, latency=0.5, bytes_read=MB),   # window 1: slow
        Sample(issued_at=22.0, latency=0.5, bytes_read=MB),   # window 2: slow
        Sample(issued_at=35.0, latency=0.01, bytes_read=MB),  # window 3: fine
    ]
    windows = slo_violation_windows(samples, slo, started_at=0.0, duration=40.0)
    assert windows == [(10.0, 30.0)]  # two adjacent breaches merged


def test_empty_windows_only_violate_a_throughput_floor():
    # No floor: an idle tenant cannot miss a latency bound.
    slo = SloSpec(p99_latency=0.1, window=10.0)
    assert slo_violation_windows([], slo, started_at=0.0, duration=20.0) == []
    # With a floor, empty windows are violations.
    floored = SloSpec(p99_latency=0.1, window=10.0, throughput_floor=1.0)
    assert slo_violation_windows([], floored, started_at=0.0, duration=20.0) == [
        (0.0, 20.0)
    ]


def test_slo_windows_degenerate_duration():
    slo = SloSpec(p99_latency=0.1)
    assert slo_violation_windows([], slo, started_at=0.0, duration=0.0) == []


def test_slo_spec_validation():
    with pytest.raises(ValueError):
        SloSpec(p99_latency=0.0)
    with pytest.raises(ValueError):
        SloSpec(p99_latency=1.0, throughput_floor=-1.0)
    with pytest.raises(ValueError):
        SloSpec(p99_latency=1.0, window=0.0)


# -- multi-tenant experiments ---------------------------------------------------


def qos_fleet():
    return TenantFleetSpec(
        tenants=(
            TenantSpec(name="latency", interval=1.0, reservation=0.15,
                       weight=4.0, slo=SloSpec(p99_latency=0.5)),
            TenantSpec(name="batch", interval=0.5, arrival="poisson",
                       write_fraction=0.5, limit=0.25),
        ),
        qos_enabled=True,
    )


def test_multi_tenant_qos_experiment():
    outcome = run_tenant_experiment(
        small_profile(), small_workload(), qos_fleet(),
        faults=[FaultSpec(level="node", count=1)],
        seed=7, fault_duration=200.0,
    )
    assert outcome.converged
    assert [report.name for report in outcome.reports] == ["latency", "batch"]
    latency, batch = outcome.reports
    assert latency.reads_ok > 0 and latency.p99 is not None
    assert latency.slo_met is not None  # declared an SLO
    assert batch.slo_met is None  # no SLO declared
    assert batch.writes_ok > 0
    assert batch.wa_attributed > 1.0  # EC writes store more than logical
    # The schedulers drained: everything enqueued was served.
    assert outcome.fleet.qos_pending() == 0
    totals = outcome.fleet.qos_class_totals()
    assert "recovery" in totals and tenant_class_name("latency") in totals
    for counters in totals.values():
        assert counters["served"] == counters["enqueued"]
    # Digest carries per-tenant sections + QoS totals, not the legacy shape.
    digest = outcome.digest()
    assert set(digest["tenants"]) == {"latency", "batch"}
    assert "qos" in digest and "client" not in digest
    assert batch.slo_violations == ()  # no SLO, so never violated


def test_multi_tenant_digest_is_deterministic():
    def run_once():
        return run_tenant_experiment(
            small_profile(), small_workload(8), qos_fleet(),
            seed=3, fault_duration=100.0,
        ).digest_json()

    assert run_once() == run_once()


def test_tenant_experiment_rejects_bad_duration():
    with pytest.raises(ValueError, match="fault_duration"):
        run_tenant_experiment(
            small_profile(), small_workload(), qos_fleet(), fault_duration=0.0
        )


def test_held_cycle_rejects_a_tenant_fleet():
    """A hold has no fault window for the fleet to run through."""
    controller = Controller(small_profile())
    with pytest.raises(ValueError, match="fault_duration"):
        controller.coordinator.run(small_workload(), fleet_spec=qos_fleet())
    assert controller.env.now == 0.0


@pytest.mark.parametrize("name", ["warmup", "settle_time"])
def test_cycle_rejects_negative_timing_before_building(monkeypatch, name):
    def no_build(*_args, **_kwargs):
        raise AssertionError("built a cluster for a rejected cycle")

    monkeypatch.setattr("repro.core.experiment.Controller", no_build)
    with pytest.raises(ValueError, match=name):
        run_tenant_experiment(
            small_profile(), small_workload(), qos_fleet(), **{name: -1.0}
        )


# -- chaos wiring ---------------------------------------------------------------


def test_campaign_spec_tenant_validation():
    fleet = qos_fleet()
    with pytest.raises(ValueError, match="tenant_duration"):
        CampaignSpec(seed=1, tenant_fleet=fleet)
    with pytest.raises(ValueError, match="exclusive"):
        CampaignSpec(
            seed=1, tenant_fleet=fleet, tenant_duration=100.0,
            write_interval=2.0, write_duration=50.0,
        )


def test_sampled_tenant_campaign_round_trips():
    spec = sample_campaign(42, tenants=True)
    assert spec.tenant_fleet is not None
    assert spec.tenant_fleet.qos_enabled
    assert {t.name for t in spec.tenant_fleet.tenants} == {
        "latency", "batch", "scan"
    }
    assert spec.tenant_duration > 0
    assert CampaignSpec.from_dict(spec.to_dict()) == spec


def test_tenant_sampling_leaves_the_legacy_stream_untouched():
    """tenants=False draws exactly what the pre-tenancy sampler drew."""
    assert sample_campaign(42) == sample_campaign(42, tenants=False)
    assert sample_campaign(42).tenant_fleet is None


def test_sampler_rejects_tenants_with_writes():
    with pytest.raises(ValueError, match="exclusive"):
        sample_campaign(42, tenants=True, writes=True)


def test_tenant_chaos_campaigns_hold_the_fairness_invariant():
    report = run_chaos(7, campaigns=2, tenants=True)
    assert report.campaigns == 2
    assert report.ok, [
        violation.to_dict()
        for result in report.failures
        for violation in result.violations
    ]
