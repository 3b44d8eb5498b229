"""Stretch-cluster recovery: locality, WAN accounting, determinism."""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.chaos.engine import run_campaign
from repro.chaos.sampler import sample_campaign
from repro.cluster.recovery import CASCADE_STAT_KEYS, GEO_STAT_KEYS
from repro.core.experiment import run_experiment
from repro.core.fault_injector import FaultSpec
from repro.core.profile import PAPER_RS_PROFILE, ExperimentProfile
from repro.geo.experiment import GeoOutcome, run_stretch_experiment
from repro.workload.generator import Workload

WORKLOAD = Workload(num_objects=40, object_size=8 << 20)


def stretch_profile(name, plugin, params, num_hosts=12):
    return ExperimentProfile(
        name=name,
        ec_plugin=plugin,
        ec_params=params,
        num_hosts=num_hosts,
        num_regions=3,
        pg_num=32,
        stripe_unit=1 << 20,
    )


def run_stretch(profile, fault_level="node", **kwargs):
    return run_stretch_experiment(
        profile, WORKLOAD, [FaultSpec(level=fault_level)], seed=7, **kwargs
    )


# -- API contract -------------------------------------------------------------


def test_single_region_profile_rejected():
    profile = ExperimentProfile(name="flat", num_hosts=6)
    with pytest.raises(ValueError):
        run_stretch_experiment(profile, WORKLOAD)


@pytest.mark.parametrize("fault_duration", [0.0, -5.0])
def test_non_positive_fault_duration_rejected(fault_duration):
    profile = stretch_profile("rs", "jerasure", {"k": 4, "m": 2})
    with pytest.raises(ValueError, match="fault_duration"):
        run_stretch(profile, fault_duration=fault_duration)


def test_outcome_digest_is_canonical_json_sha256():
    out = run_stretch(stretch_profile("rs", "jerasure", {"k": 4, "m": 2}))
    payload = json.dumps(
        out.to_dict(), sort_keys=True, separators=(",", ":"),
        ensure_ascii=True,
    )
    assert out.digest() == hashlib.sha256(payload.encode("utf-8")).hexdigest()
    assert out.cross_region_repair_bytes == (
        out.cross_region_bytes_read + out.cross_region_bytes_written
    )


def test_same_seed_same_digest():
    profile = stretch_profile("rs", "jerasure", {"k": 4, "m": 2})
    assert run_stretch(profile).digest() == run_stretch(profile).digest()


# -- cross-region accounting --------------------------------------------------


def test_recovery_counters_match_wan_ledger():
    """The recovery manager's cross-region read+write bytes must equal
    what the WAN fabric actually delivered (read-only run, no scrub)."""
    for plugin, params in (
        ("jerasure", {"k": 4, "m": 2}),
        ("clay", {"k": 4, "m": 2, "d": 5}),
        ("lrc", {"k": 4, "l": 2, "r": 1}),
    ):
        out = run_stretch(stretch_profile(plugin, plugin, params))
        assert out.cross_region_repair_bytes == out.wan_cross_region_bytes
        assert out.objects_recovered > 0


def test_egress_ledger_covers_all_cross_bytes():
    out = run_stretch(stretch_profile("rs", "jerasure", {"k": 4, "m": 2}))
    assert sum(out.egress_bytes_by_region) == out.wan_cross_region_bytes
    assert len(out.egress_bytes_by_region) == 3
    assert out.egress_cost > 0


# -- locality-aware reconstruction -------------------------------------------


def test_locality_cuts_lrc_cross_region_bytes_vs_rs():
    """The headline geo claim: at equal durability (m=2), LRC's
    region-coherent local groups repair a host failure with at least 2x
    fewer cross-region bytes than plain RS."""
    rs = run_stretch(stretch_profile("rs", "jerasure", {"k": 4, "m": 2}))
    lrc = run_stretch(stretch_profile("lrc", "lrc", {"k": 4, "l": 2, "r": 1}))
    assert rs.cross_region_repair_bytes >= 2 * lrc.cross_region_repair_bytes


def test_clay_fractional_reads_cut_cross_region_bytes_vs_rs():
    rs = run_stretch(stretch_profile("rs", "jerasure", {"k": 4, "m": 2}))
    clay = run_stretch(stretch_profile("clay", "clay", {"k": 4, "m": 2, "d": 5}))
    assert clay.cross_region_repair_bytes < rs.cross_region_repair_bytes


def test_locality_aware_beats_naive_on_region_rebuild():
    """Rebuilding a restored region: the plan-aware primary keeps helper
    pulls next to the surviving shards instead of hauling full reads
    into the recovering region."""
    profile = stretch_profile("clay", "clay", {"k": 4, "m": 2, "d": 5})
    aware = run_stretch(profile, "region_outage", fault_duration=900.0)
    naive = run_stretch(
        profile, "region_outage", fault_duration=900.0, locality_aware=False
    )
    assert aware.objects_recovered == naive.objects_recovered > 0
    assert aware.cross_region_repair_bytes < naive.cross_region_repair_bytes
    assert aware.egress_cost < naive.egress_cost


def test_locality_toggle_changes_only_the_flagged_field():
    profile = stretch_profile("rs", "jerasure", {"k": 4, "m": 2})
    aware = run_stretch(profile)
    naive = run_stretch(profile, locality_aware=False)
    assert aware.locality_aware and not naive.locality_aware
    # MDS invariance: with balanced blocks, any-k repair moves the same
    # number of cross-region bytes wherever the primary sits — only the
    # pull/push split shifts.
    assert aware.cross_region_repair_bytes == naive.cross_region_repair_bytes
    assert (aware.cross_region_pulls, aware.cross_region_pushes) != (
        naive.cross_region_pulls, naive.cross_region_pushes,
    )


# -- single-region regression pins -------------------------------------------
#
# Captured on the pre-geo tree: the geo subsystem must leave every
# region-less path byte-identical, and the cascade subsystem every
# fifo/untracked path.  RecoveryStats grew four always-zero geo fields
# and three always-zero cascade fields, so raw asdict() digests prune
# GEO_STAT_KEYS and CASCADE_STAT_KEYS first — the same pruning the
# chaos engine applies.  The chaos hashes leave out the kernel's step
# count; they were re-pinned on the process-per-job service center and
# hold unchanged on the closed-form one.

PINNED_CHAOS_HASHES = {
    11: "c8ae879651e2979bc3b01f63ef0b67b9cb135e9b2ffc1fc242b047c91e0ed93b",
    42: "e5ed4df44bf3f2a21a3c9278c8baa175c51e9d802d5ff3821323b99807f4fb34",
}
PINNED_INJECT_HASH = (
    "3a34c2dd4ce5dad407bd01f077023d88077468326206e375c3b77fc9a690fd0f"
)


@pytest.mark.parametrize("seed", sorted(PINNED_CHAOS_HASHES))
def test_single_region_chaos_digest_pinned(seed):
    result = run_campaign(sample_campaign(seed))
    assert result.outcome_hash == PINNED_CHAOS_HASHES[seed]


def test_single_region_inject_digest_pinned():
    profile = PAPER_RS_PROFILE.with_overrides(num_hosts=15, pg_num=64)
    out = run_experiment(
        profile, WORKLOAD, [FaultSpec(level="node")], seed=3
    )
    recovery = asdict(out.recovery_stats)
    for key in GEO_STAT_KEYS:
        assert recovery.pop(key) == 0  # single-region runs never geo-count
    for key in CASCADE_STAT_KEYS:
        assert recovery.pop(key) == 0  # fifo runs never risk-account
    payload = {
        "recovery": recovery,
        "t": out.total_recovery_time,
        "wa": asdict(out.wa),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    assert digest == PINNED_INJECT_HASH


# -- outcome dataclass --------------------------------------------------------


def test_outcome_to_dict_round_trips():
    out = run_stretch(stretch_profile("rs", "jerasure", {"k": 4, "m": 2}))
    data = out.to_dict()
    clone = GeoOutcome(
        **{
            **data,
            "egress_bytes_by_region": tuple(data["egress_bytes_by_region"]),
        }
    )
    assert clone == out
    assert clone.digest() == out.digest()
