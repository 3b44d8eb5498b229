"""Pins over the three cluster-model rules several modules share.

The stripe-damage rule (which shards of a stripe count as damaged), the
per-job service-time formulas (disk, NIC, recovery grants, coding CPU)
and the mapping from an :class:`ExperimentProfile` to a cluster are
each used by several modules.  These SHA-256 values and floats were
recorded while the injector, the
invariants, the fuzzer, the twin and the tuner probes still carried
copies of their own; any change to the shared rules must reproduce them
exactly.

* **Twin grid** — the twin's outputs over the differential grid plus
  six profiles the grid does not reach (SHEC, a stretch cluster, a rack
  correlated crash, checksums, Clay at a 4 KiB stripe unit with a
  same-host device pair, FileStore).
* **Tuner probes** — the DES degraded-read and tenant-SLO probes.
* **Guard decisions** — which of 40 sampled campaigns the white-box
  guards accept and what each accepted one does: 20 ``--writes``
  campaigns (the stale-shard guards) and 20 mixing crash, corruption,
  flap and NIC faults (the corruption guards).
"""

import hashlib

import pytest

from repro.chaos.engine import CampaignInvalid, campaign_seed, run_campaign
from repro.chaos.sampler import sample_campaign
from repro.core.digest import canonical_json
from repro.core.fault_injector import Colocation, FaultSpec
from repro.core.profile import ExperimentProfile
from repro.tuner.evaluator import (
    ReadProbe,
    TenantProbe,
    measure_degraded_p99,
    measure_tenant_slo_p99,
)
from repro.twin import (
    default_grid,
    predict,
    predict_degraded_p99,
    predict_overwrite_amplification,
    predict_tenant_slo_p99,
)
from repro.twin.model import AnalyticalTwin

KB = 1024
MB = 1024 * KB

#: SHA-256 over the twin's outputs for every case of ``_twin_cases()``.
PINNED_TWIN_GRID_HASH = (
    "ac8743f913bf70394dc4361a6238b5a1b48cf19c6ac3f5b45be707229ae2de25"
)

#: (profile name, probe) -> the DES probe's exact p99 at seed 5.
PINNED_PROBES = {
    ("clay-4-2-5-kv", "degraded"): 0.021160934400000997,
    ("clay-4-2-5-kv", "tenant"): 0.01857097386666684,
    ("rs-4-2", "degraded"): 0.019027121066667263,
    ("rs-4-2", "tenant"): 0.01750406720000086,
}

#: SHA-256 over the outcome hashes of ``GUARD_CAMPAIGNS``, "invalid"
#: for a schedule the injector refused.
PINNED_GUARD_DECISIONS_HASH = (
    "b75e72fb8d307640a3411b61a419103f7ce3ca18b71ae43dc460fed7e05704eb"
)
GUARD_LEVELS = ("node", "device", "corrupt", "flap", "net_degrade")
GUARD_CAMPAIGNS = 20


def _twin_cases():
    """(name, profile, workload, faults) for the grid and six extras."""
    cases = [
        (case.name, case.profile, case.workload, case.faults)
        for case in default_grid(num_objects=96)
    ]
    workload = cases[0][2]
    node = (FaultSpec(level="node"),)
    extras = [
        ("shec-8-4-5",
         ExperimentProfile(name="shec-8-4-5", ec_plugin="shec",
                           ec_params={"k": 8, "m": 4, "l": 5}),
         node),
        ("rs-4-2-3-regions",
         ExperimentProfile(name="rs-4-2-3-regions",
                           ec_params={"k": 4, "m": 2},
                           num_hosts=9, num_regions=3),
         node),
        ("rs-4-2-rack-crash",
         ExperimentProfile(name="rs-4-2-rack-crash",
                           ec_params={"k": 4, "m": 2}, num_hosts=12,
                           num_racks=6, failure_domain="rack"),
         (FaultSpec(level="correlated_crash", domain="rack"),)),
        ("rs-scrub-16k",
         ExperimentProfile(name="rs-scrub-16k", scrub_interval=300.0,
                           csum_block_size=16 * KB),
         node),
        ("clay-su-4k-same-host",
         ExperimentProfile(name="clay-su-4k-same-host", ec_plugin="clay",
                           ec_params={"k": 9, "m": 3, "d": 11},
                           stripe_unit=4 * KB),
         (FaultSpec(level="device", count=2,
                    colocation=Colocation.SAME_HOST),)),
        ("rs-filestore",
         ExperimentProfile(name="rs-filestore", backend="filestore"),
         node),
    ]
    cases.extend(
        (name, profile, workload, faults) for name, profile, faults in extras
    )
    return cases


def test_twin_grid_outputs_pinned():
    twin = AnalyticalTwin()
    rows = []
    for name, profile, workload, faults in _twin_cases():
        rows.append([
            name,
            predict(profile, workload, list(faults)).digest_json(),
            predict_degraded_p99(profile),
            predict_tenant_slo_p99(profile),
            predict_overwrite_amplification(profile, 0.5),
            twin.predict_used_bytes(profile, workload),
        ])
    digest = hashlib.sha256(canonical_json(rows).encode()).hexdigest()
    assert digest == PINNED_TWIN_GRID_HASH


def _probe_profile(name, plugin, params, **overrides):
    return ExperimentProfile(
        name=name, ec_plugin=plugin, ec_params=params, num_hosts=10,
        pg_num=16, stripe_unit=1 * MB, **overrides,
    )


PROBE_PROFILES = {
    "rs-4-2": _probe_profile("rs-4-2", "jerasure", {"k": 4, "m": 2}),
    "clay-4-2-5-kv": _probe_profile(
        "clay-4-2-5-kv", "clay", {"k": 4, "m": 2, "d": 5},
        cache_scheme="kv-optimized",
    ),
}


@pytest.mark.parametrize("name", sorted(PROBE_PROFILES))
def test_tuner_probes_pinned(name):
    profile = PROBE_PROFILES[name]
    measured = {
        "degraded": measure_degraded_p99(
            profile, ReadProbe(objects=16, window=10), seed=5
        ),
        "tenant": measure_tenant_slo_p99(
            profile, TenantProbe(objects=12, window=10), seed=5
        ),
    }
    assert measured == {
        probe: PINNED_PROBES[(name, probe)] for probe in measured
    }


def test_guard_decisions_pinned():
    hashes = []
    for kwargs in ({"writes": True}, {"levels": GUARD_LEVELS}):
        for index in range(GUARD_CAMPAIGNS):
            spec = sample_campaign(campaign_seed(2026, index), **kwargs)
            try:
                hashes.append(run_campaign(spec).outcome_hash)
            except CampaignInvalid:
                hashes.append("invalid")
    assert hashes.count("invalid") < len(hashes)
    digest = hashlib.sha256(canonical_json(hashes).encode()).hexdigest()
    assert digest == PINNED_GUARD_DECISIONS_HASH
