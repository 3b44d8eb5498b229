"""Monitor pin: one SHA-256 over the monitor's log and final state.

The hash was recorded while heartbeats, monitor ticks and iostat
sampling still ran as one generator process each.  It holds the monitor
to the exact log (time, subsystem, message, fields) and the exact final
``down_since``, ``out_osds``, ``last_heartbeat``, ``osdmap_epoch``,
``markdowns_total``, ``pins_total`` and ``capacity_state`` of scenarios
that between them run every heartbeat and tick branch: mark down, out,
in and up; flap dampening's pin and its expiry; heartbeat loss (draws
from the ``hb-loss`` stream) and a partition; stale-epoch rejection;
and the capacity tiers with the write pause and resume.

A second pin hashes the outcomes of 30 gray chaos campaigns (slow
devices, lossy and partitioned NICs, flaps): heartbeat loss draws across
OSDs, flap pins and their expiry, and partitions inside full campaigns.
"""

import hashlib

import pytest

from repro.chaos.engine import CampaignInvalid, campaign_seed, run_campaign
from repro.chaos.sampler import sample_campaign
from repro.core.digest import canonical_json
from repro.core.fault_injector import GRAY_LEVELS, FaultSpec
from tests.test_cascade_resilience import fill_to
from tests.test_gray_failures import build

PINNED_MONITOR_HASH = (
    "b04430875b54d8cc05943fbf8d945aa23881473baa738e95560b31d4014f4ccd"
)

#: SHA-256 over the outcome hashes of ``GRAY_CAMPAIGNS`` gray campaigns
#: at root seed 2026, in index order, "invalid" for a rejected schedule.
PINNED_GRAY_CAMPAIGNS_HASH = (
    "ba8b271f6cdf71ed585d17c7b1bfb4d07442647654290cf5413ecf0af7e19f06"
)
GRAY_CAMPAIGNS = 30


def _inject_and_restore(spec, inject_at, restore_at, end, **build_kwargs):
    def scenario():
        env, cluster, injector = build(**build_kwargs)
        env.run(until=inject_at)
        injector.inject(spec)
        env.run(until=restore_at)
        injector.restore_all()
        env.run(until=end)
        return cluster

    return scenario


def _capacity():
    env, cluster, _ = build()
    osd = cluster.osds[0]
    for ratio, until in ((0.86, 20), (0.91, 30), (0.96, 40)):
        fill_to(osd, ratio)
        env.run(until=until)
    disk = osd.disk
    disk.free(disk.used_bytes - int(disk.spec.capacity_bytes * 0.5))
    env.run(until=60)
    return cluster


#: name -> a function that runs the scenario and returns its cluster.
SCENARIOS = {
    "device_down_out_in": _inject_and_restore(
        FaultSpec(level="device"), 20, 150, 250, down_out=60.0
    ),
    "device_transient_up": _inject_and_restore(
        FaultSpec(level="device"), 20, 80, 150
    ),
    "flap_pinned": _inject_and_restore(
        FaultSpec(level="flap", flap_interval=15.0), 50, 1500, 2200,
        down_out=60.0, mon_osd_markdown_count=3, mon_osd_markdown_pin=120.0,
    ),
    "net_loss": _inject_and_restore(
        FaultSpec(level="net_degrade", loss=0.4), 50, 400, 500
    ),
    "net_partition": _inject_and_restore(
        FaultSpec(level="net_degrade", partition=True), 50, 200, 300
    ),
    "byz_stale_map": _inject_and_restore(
        FaultSpec(level="byz_stale_map", count=1), 20, 100, 150
    ),
    "capacity": _capacity,
}


def monitor_state(cluster):
    monitor = cluster.monitor
    return {
        "log": [
            [r.time, r.subsystem, r.message, [list(f) for f in r.fields]]
            for r in monitor.log
        ],
        "down_since": sorted(monitor.down_since.items()),
        "out_osds": sorted(monitor.out_osds),
        "last_heartbeat": sorted(monitor.last_heartbeat.items()),
        "osdmap_epoch": monitor.osdmap_epoch,
        "markdowns_total": monitor.markdowns_total,
        "pins_total": monitor.pins_total,
        "capacity_state": sorted(monitor.capacity_state.items()),
    }


@pytest.fixture(scope="module")
def states():
    return {name: monitor_state(run()) for name, run in SCENARIOS.items()}


def test_monitor_log_and_state_pinned(states):
    digest = hashlib.sha256(canonical_json(states).encode()).hexdigest()
    assert digest == PINNED_MONITOR_HASH


def test_scenarios_reach_every_beat_and_tick_branch(states):
    messages = {
        name: {record[2] for record in state["log"]}
        for name, state in states.items()
    }
    assert {
        "no heartbeats from osd, marking down",
        "marking osd out after down interval",
        "osd boot: marking in",
    } <= messages["device_down_out_in"]
    assert "osd boot: marking up" in messages["device_transient_up"]
    assert {
        "flapping osd pinned down", "flap pin expired, osd rejoining",
    } <= messages["flap_pinned"]
    assert states["net_loss"]["markdowns_total"] > 0
    assert "no heartbeats from osd, marking down" in messages["net_partition"]
    assert (
        "stale osdmap epoch in heartbeat, rejecting gossip and pushing fresh map"
        in messages["byz_stale_map"]
    )
    assert {
        "OSD_NEARFULL: osd capacity threshold crossed",
        "OSD_BACKFILLFULL: osd capacity threshold crossed",
        "OSD_FULL: osd capacity threshold crossed",
        "osd(s) at full ratio, pausing client writes",
        "capacity recovered, resuming client writes",
        "osd capacity back below nearfull",
    } <= messages["capacity"]


@pytest.fixture(scope="module")
def gray_campaigns():
    """(spec, result or None) for each gray campaign, in index order."""
    campaigns = []
    for index in range(GRAY_CAMPAIGNS):
        spec = sample_campaign(campaign_seed(2026, index), levels=GRAY_LEVELS)
        try:
            result = run_campaign(spec)
        except CampaignInvalid:
            result = None
        campaigns.append((spec, result))
    return campaigns


def test_gray_campaign_outcomes_pinned(gray_campaigns):
    hashes = [
        result.outcome_hash if result is not None else "invalid"
        for _spec, result in gray_campaigns
    ]
    digest = hashlib.sha256(canonical_json(hashes).encode()).hexdigest()
    assert digest == PINNED_GRAY_CAMPAIGNS_HASH


def test_gray_campaigns_reach_loss_partition_and_pins(gray_campaigns):
    injects = [
        action
        for spec, _result in gray_campaigns
        for action in spec.actions
        if action.kind == "inject"
    ]
    degrades = [a for a in injects if a.level == "net_degrade"]
    assert any(a.partition for a in degrades)
    assert any(not a.partition and a.loss > 0 for a in degrades)
    assert any(a.level == "flap" for a in injects)
    monitors = [
        result.digest["monitor"]
        for _spec, result in gray_campaigns
        if result is not None
    ]
    assert sum(m["markdowns"] for m in monitors) > 0
    assert sum(m["pins"] for m in monitors) > 0
