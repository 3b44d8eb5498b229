"""Random-but-valid campaign sampling.

Turns one integer seed into a :class:`~repro.chaos.campaign.CampaignSpec`
that is *valid by construction*: the EC parameters satisfy each plugin's
algebraic constraints (Clay's ``q | n``, LRC's ``l | k``, SHEC's window
bound), the cluster has enough failure-domain buckets to place ``n``
shards plus recovery headroom, and the fault schedule never requests
more concurrent damage than the code's guaranteed tolerance.  Rarely a
schedule can still collide with live cluster state (e.g. a corruption
round landing on a stripe that already carries unrepaired damage); the
engine classifies those as *invalid*, not failing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from ..cluster.bluestore import CACHE_SCHEMES
from ..core.fault_injector import BYZ_LEVELS, FAULT_LEVELS, GRAY_LEVELS
from ..sim.rng import SeedSequence
from ..tenancy.spec import SloSpec, TenantFleetSpec, TenantSpec
from .campaign import CampaignSpec, ScheduledAction

__all__ = ["check_streams", "sample_campaign", "cascade_scenario"]

KB = 1024
MB = 1024 * 1024

#: (plugin, params) choices.  Every entry satisfies its plugin's
#: constructor constraints; Clay entries additionally keep alpha = q^t
#: small enough for fast repair planning.
_EC_CHOICES: List[Tuple[str, Tuple[Tuple[str, int], ...]]] = [
    ("jerasure", (("k", 2), ("m", 1))),
    ("jerasure", (("k", 3), ("m", 2))),
    ("jerasure", (("k", 4), ("m", 2))),
    ("jerasure", (("k", 6), ("m", 3))),
    ("isa", (("k", 4), ("m", 2))),
    ("isa", (("k", 5), ("m", 3))),
    ("clay", (("d", 3), ("k", 2), ("m", 2))),
    ("clay", (("d", 5), ("k", 4), ("m", 2))),
    ("clay", (("d", 5), ("k", 3), ("m", 3))),
    ("lrc", (("k", 4), ("l", 2), ("r", 1))),
    ("lrc", (("k", 4), ("l", 2), ("r", 2))),
    ("lrc", (("k", 6), ("l", 3), ("r", 1))),
    ("shec", (("k", 4), ("l", 2), ("m", 3))),
    ("shec", (("k", 4), ("l", 2), ("m", 2))),
]

_STRIPE_UNITS = (64 * KB, 256 * KB, 1 * MB, 4 * MB)
_OBJECT_SIZES = (256 * KB, 1 * MB, 4 * MB)

#: Regions every geo campaign spreads across (the classic 3-site stretch).
_GEO_REGIONS = 3

#: EC choices safe for a 3-region stretch: the per-region shard cap
#: ``ceil(n / 3)`` must stay within the code's guaranteed tolerance, so
#: one whole region outage never strands an undecodable stripe.
_GEO_EC_CHOICES: List[Tuple[str, Tuple[Tuple[str, int], ...]]] = [
    ("jerasure", (("k", 2), ("m", 1))),
    ("jerasure", (("k", 3), ("m", 2))),
    ("jerasure", (("k", 4), ("m", 2))),
    ("jerasure", (("k", 6), ("m", 3))),
    ("isa", (("k", 4), ("m", 2))),
    ("isa", (("k", 5), ("m", 3))),
    ("clay", (("d", 3), ("k", 2), ("m", 2))),
    ("clay", (("d", 5), ("k", 4), ("m", 2))),
    ("clay", (("d", 5), ("k", 3), ("m", 3))),
    ("lrc", (("k", 4), ("l", 2), ("r", 2))),
]

#: EC choices safe for cascade campaigns: rack-domain placement puts at
#: most one shard per rack, so a whole-rack correlated crash costs one
#: tolerance slot — tolerance >= 2 leaves budget for an aftershock.
_CASCADE_EC_CHOICES: List[Tuple[str, Tuple[Tuple[str, int], ...]]] = [
    ("jerasure", (("k", 3), ("m", 2))),
    ("jerasure", (("k", 4), ("m", 2))),
    ("isa", (("k", 4), ("m", 2))),
    ("clay", (("d", 5), ("k", 3), ("m", 3))),
]


def _shard_count(params: Tuple[Tuple[str, int], ...]) -> int:
    """n = data + parity shards for any of the sampled plugins."""
    values = dict(params)
    if "r" in values:  # LRC: n = k + l + r
        return values["k"] + values["l"] + values["r"]
    return values["k"] + values["m"]


def _tolerance(plugin: str, params: Tuple[Tuple[str, int], ...]) -> int:
    """Guaranteed fault tolerance, mirroring each plugin's contract."""
    values = dict(params)
    if plugin == "shec":
        return 1
    if plugin == "lrc":
        return values["r"] + 1 if values["r"] else 1
    return values["m"]


def check_streams(
    writes: bool = False,
    tenants: bool = False,
    geo: bool = False,
    byzantine: bool = False,
    cascade: bool = False,
) -> None:
    """Raise ``ValueError`` unless the chosen chaos streams may combine.

    The one statement of the stream rules: :func:`sample_campaign`
    enforces them and ``ecfault chaos`` reports them before sampling.
    """
    if cascade and (writes or tenants or geo or byzantine):
        raise ValueError(
            "cascade campaigns are exclusive with writes/tenants/geo/"
            "byzantine: cascade invariants must be judged in isolation"
        )
    if tenants and writes:
        raise ValueError(
            "tenants and writes are exclusive: the fleet replaces the "
            "single client stream"
        )
    if geo and (writes or tenants):
        raise ValueError(
            "geo campaigns are read-only: exclusive with writes/tenants "
            "so the cross-region-byte invariant stays exact"
        )
    if byzantine and (writes or tenants or geo):
        raise ValueError(
            "byzantine campaigns are read-only and single-region: "
            "exclusive with writes/tenants/geo so containment is provable"
        )


def sample_campaign(
    seed: int,
    levels: Optional[Sequence[str]] = None,
    writes: bool = False,
    tenants: bool = False,
    geo: bool = False,
    byzantine: bool = False,
    cascade: bool = False,
) -> CampaignSpec:
    """Sample one valid campaign; same seed, same campaign, always.

    ``levels`` restricts which fault levels the schedule may draw (any
    subset of :data:`~repro.core.fault_injector.FAULT_LEVELS`); the
    default allows all of them.  The CI gray-chaos job passes
    ``("slow_device", "net_degrade", "flap")`` to sweep the gray axis in
    isolation.

    ``writes=True`` additionally samples a mixed read-write client load
    that runs through the whole fault schedule.  The write draws happen
    last and only when enabled, so ``writes=False`` consumes exactly the
    same RNG stream as before the write path existed — read-only
    campaigns stay byte-identical.

    ``tenants=True`` instead samples a three-tenant QoS-enabled fleet
    (a reserved latency tenant with an SLO, a rate-limited writing batch
    tenant, a poisson scan tenant) that replaces the single client
    stream, enabling the fairness invariant.  Exclusive with ``writes``;
    the tenant draws happen after every other field so ``tenants=False``
    streams are untouched.

    ``geo=True`` re-shapes the campaign into a three-region stretch
    cluster: a geo-safe EC geometry (one region outage never exceeds the
    code's tolerance), hosts dealt across regions, and a region-aware
    fault schedule mixing whole-region outages, WAN partitions, and
    region-local host crashes.  Geo campaigns are read-only with
    scrubbing off so the cross-region-byte invariant is exact; the geo
    draws happen strictly after every other field so ``geo=False``
    streams stay byte-identical.

    ``byzantine=True`` re-arms the campaign with lying-OSD faults only:
    scrubbing is forced on (the data-plane lies are undetectable without
    it) and the schedule is replaced with pure Byzantine rounds — forged
    checksums, stale osdmap gossip, false write acks — so detection is
    always attributable to a defense, never to a coincident crash.  The
    byz draws happen strictly after every other field so
    ``byzantine=False`` streams stay byte-identical.  Exclusive with
    ``writes``/``tenants``/``geo``: containment must be judged on a
    read-only single-site cluster, where zero wrong reads is provable.

    ``cascade=True`` re-shapes the campaign for correlated-failure
    resilience: a rack-domain cluster with spare racks, a cascade-safe
    EC geometry (tolerance >= 2, so a whole-rack loss leaves aftershock
    budget), a sampled recovery priority (fifo or risk — both must
    survive the same cascades), risk-exposure tracking on, and a
    schedule of whole-rack correlated crashes followed by aftershock
    device failures inside the recovery window.  The cascade draws
    happen strictly after every other field so ``cascade=False``
    streams stay byte-identical.  Exclusive with every other axis: the
    no-avoidable-loss and priority-soundness invariants must be judged
    without racing writers or a second fault vocabulary.
    """
    check_streams(writes=writes, tenants=tenants, geo=geo,
                  byzantine=byzantine, cascade=cascade)
    chosen = tuple(levels) if levels is not None else FAULT_LEVELS
    if not chosen:
        raise ValueError("levels must name at least one fault level")
    unknown = sorted(set(chosen) - set(FAULT_LEVELS))
    if unknown:
        raise ValueError(
            f"unknown fault levels {unknown}; allowed: {FAULT_LEVELS}"
        )

    rng = SeedSequence(seed).stream("chaos-sampler")

    plugin, params = rng.choice(_EC_CHOICES)
    n = _shard_count(params)
    tolerance = _tolerance(plugin, params)

    osds_per_host = rng.choice((1, 2, 2, 3))
    # Failure domain is host: need n distinct hosts for placement, plus
    # spare buckets so recovery can remap around `tolerance` dead hosts.
    num_hosts = n + tolerance + rng.randrange(1, 4)

    scrub_on = rng.random() < 0.5
    if set(chosen) == {"corrupt"}:
        # Corruption is the only level allowed: scrub must be on or no
        # campaign could ever schedule (or heal) anything.
        scrub_on = True
    scrub_interval = float(rng.choice((200, 400, 800))) if scrub_on else 0.0

    actions = _sample_schedule(rng, tolerance, osds_per_host, scrub_on, chosen)

    spec = CampaignSpec(
        seed=seed,
        ec_plugin=plugin,
        ec_params=params,
        pg_num=rng.choice((4, 8, 16)),
        stripe_unit=rng.choice(_STRIPE_UNITS),
        cache_scheme=rng.choice(sorted(CACHE_SCHEMES)),
        failure_domain="host",
        num_hosts=num_hosts,
        osds_per_host=osds_per_host,
        scrub_interval=scrub_interval,
        scrub_pgs_per_batch=rng.choice((2, 4)),
        mon_osd_down_out_interval=float(rng.choice((30, 60, 120))),
        num_objects=rng.randrange(8, 33),
        object_size=rng.choice(_OBJECT_SIZES),
        size_jitter=rng.choice((0.0, 0.0, 0.2)),
        actions=tuple(actions),
    )
    if writes:
        # Drawn strictly after every read-only field so the writes=False
        # stream is untouched.  The load outlives the last scheduled
        # action, so restores (and the recovery they trigger) race live
        # writes — the scenario delta recovery exists for.
        last_at = actions[-1].at if actions else 100.0
        spec = replace(
            spec,
            write_interval=float(rng.choice((1, 2, 4))),
            write_fraction=rng.choice((0.3, 0.5, 0.7)),
            rmw_fraction=rng.choice((0.0, 0.5, 1.0)),
            write_duration=last_at + float(rng.choice((50, 150))),
        )
    if tenants:
        # Drawn strictly after every other field (the writes draws never
        # run on a tenant campaign) so tenants=False streams stay
        # byte-identical.  The fleet outlives the last scheduled action,
        # so the fairness invariant judges SLO windows that straddle
        # injects, restores and the recovery they trigger.
        last_at = actions[-1].at if actions else 100.0
        fleet = TenantFleetSpec(
            tenants=(
                TenantSpec(
                    name="latency",
                    interval=float(rng.choice((1, 2))),
                    reservation=rng.choice((0.1, 0.2)),
                    weight=4.0,
                    slo=SloSpec(
                        p99_latency=rng.choice((0.25, 0.5)), window=60.0
                    ),
                ),
                TenantSpec(
                    name="batch",
                    interval=float(rng.choice((0.5, 1))),
                    arrival="poisson",
                    write_fraction=rng.choice((0.3, 0.5)),
                    rmw_fraction=rng.choice((0.0, 0.5)),
                    weight=1.0,
                    limit=rng.choice((0.0, 0.25)),
                ),
                TenantSpec(
                    name="scan",
                    interval=float(rng.choice((2, 4))),
                    arrival="poisson",
                    weight=2.0,
                ),
            ),
            qos_enabled=True,
        )
        spec = replace(
            spec,
            tenant_fleet=fleet,
            tenant_duration=last_at + float(rng.choice((50, 150))),
        )
    if geo:
        # Drawn strictly after every existing field so geo=False streams
        # are untouched.  The stretch shape replaces the sampled EC
        # geometry, cluster size, scrub setting and schedule wholesale:
        # geo-safety (cap <= tolerance) is a property of the EC choice
        # and region count together, not something the generic draws
        # can be patched into.
        plugin, params = rng.choice(_GEO_EC_CHOICES)
        n = _shard_count(params)
        cap = -(-n // _GEO_REGIONS)  # ceil
        hosts_per_region = cap + rng.randrange(1, 3)
        spec = replace(
            spec,
            ec_plugin=plugin,
            ec_params=params,
            num_hosts=_GEO_REGIONS * hosts_per_region,
            num_regions=_GEO_REGIONS,
            scrub_interval=0.0,
            wan_latency=rng.choice((0.01, 0.03, 0.08)),
            wan_egress_bandwidth=rng.choice((2.5e8, 6.25e8, 1.25e9)),
            actions=tuple(_sample_geo_schedule(rng)),
        )
    if byzantine:
        # Drawn strictly after every existing field so byzantine=False
        # streams are untouched.  Scrub is forced on (deep-scrub EC
        # cross-checks are the only defense that can expose a forged
        # checksum) and the schedule is replaced wholesale with pure
        # Byzantine rounds: mixing in crashes would let a lie be
        # "detected" by the crash recovery path instead of the defense
        # under test.
        spec = replace(
            spec,
            scrub_interval=float(rng.choice((200, 400, 800))),
            actions=tuple(_sample_byz_schedule(rng, tolerance, chosen)),
        )
    if cascade:
        # Drawn strictly after every existing field so cascade=False
        # streams are untouched.  The rack-domain shape replaces the
        # sampled EC geometry, cluster size and schedule wholesale:
        # cascade-safety (rack loss costs one slot, tolerance >= 2
        # leaves aftershock budget) is a property of the EC choice and
        # rack count together, not something the generic draws can be
        # patched into.
        plugin, params = rng.choice(_CASCADE_EC_CHOICES)
        n = _shard_count(params)
        tolerance = _tolerance(plugin, params)
        # n racks for placement plus spares: recovery can remap around a
        # dead rack, and stripes that skip the crashed rack give the
        # aftershocks mixed redundancy margins to prioritize.
        num_racks = n + tolerance + rng.randrange(0, 2)
        spec = replace(
            spec,
            ec_plugin=plugin,
            ec_params=params,
            failure_domain="rack",
            num_hosts=num_racks * rng.choice((1, 2)),
            osds_per_host=rng.choice((1, 2)),
            num_racks=num_racks,
            recovery_priority=rng.choice(("fifo", "risk")),
            track_risk_exposure=True,
            actions=tuple(_sample_cascade_schedule(rng, tolerance)),
        )
    return spec


def _sample_schedule(
    rng,
    tolerance: int,
    osds_per_host: int,
    scrub_on: bool,
    levels: Tuple[str, ...],
) -> List[ScheduledAction]:
    """A budget-tracked schedule of fault rounds.

    Each round either crashes OSDs/hosts (total failure-domain buckets
    within the tolerance budget), silently corrupts chunks (only when
    scrubbing is on to detect them), or degrades grayly (slow devices,
    lossy/partitioned NICs, flapping daemons), then restores, so every
    campaign is *expected* to converge back to HEALTH_OK.  Gray faults
    that can make an OSD unavailable (net_degrade, flap) consume a
    tolerance slot exactly like a crash, mirroring the injector's
    white-box guard; slow_device is budget-free.  Restore timing
    straddles the down->out interval on purpose: some rounds restore
    before the monitor reacts, some mid-recovery, some after.
    """
    crash_levels = [level for level in ("node", "device") if level in levels]
    gray_levels = [level for level in GRAY_LEVELS if level in levels]
    corrupt_ok = scrub_on and "corrupt" in levels
    # With crash/corrupt rounds available, gray is a sometimes-prelude;
    # restricted to gray-only levels it is the whole campaign.
    gray_chance = 0.4 if crash_levels or corrupt_ok else 1.0
    # When corruption is the only non-gray level, make every eligible
    # round corrupt (a 30% roll would leave most campaigns empty).
    corrupt_chance = 0.3 if crash_levels else 1.0

    actions: List[ScheduledAction] = []
    t = 100.0
    # Corrupt chunks stay damaged until a deep scrub repairs them, at a
    # time the sampler cannot know - so once corruption is in flight,
    # every later crash round conservatively cedes that many tolerance
    # slots (matching the injector's crash-over-corruption guard).
    outstanding_corrupt = 0
    for _ in range(rng.randrange(1, 4)):
        crashed = False
        budget = tolerance - outstanding_corrupt
        if gray_levels and rng.random() < gray_chance:
            action, cost = _gray_action(rng, t, gray_levels, budget)
            if action is not None:
                actions.append(action)
                budget -= cost
                if cost:
                    # An unavailable-ish gray target counts as damage for
                    # the corruption guard, same as a crash.
                    crashed = True
                t += rng.choice((0.0, 5.0, 20.0))
        for _ in range(rng.randrange(1, 3)):
            if budget <= 0:
                break
            roll = rng.random()
            if corrupt_ok and not crashed and roll < corrupt_chance:
                # Corruption round: daemons stay up, scrub must find it.
                # Kept to crash-free rounds so the per-stripe white-box
                # guard (down shards + corrupt shards <= tolerance) holds
                # regardless of which stripe the injector picks.
                count = rng.randrange(1, min(budget, 2) + 1)
                actions.append(
                    ScheduledAction(
                        at=t,
                        kind="inject",
                        level="corrupt",
                        count=count,
                        corruption=rng.choice(
                            ("bit_rot", "torn_write", "misdirected_write")
                        ),
                    )
                )
                outstanding_corrupt += count
                break  # one corruption burst per round
            if not crash_levels:
                break
            if "node" in crash_levels and (
                "device" not in crash_levels or roll < 0.6 or budget < 2
            ):
                actions.append(
                    ScheduledAction(at=t, kind="inject", level="node", count=1)
                )
                budget -= 1
            else:
                same_host_ok = osds_per_host >= 2
                colocation = rng.choice(
                    ("any", "diff_hosts", "same_host")
                    if same_host_ok
                    else ("any", "diff_hosts")
                )
                if colocation == "same_host":
                    count = rng.randrange(2, min(osds_per_host, budget + 1) + 1)
                    cost = 1  # one host bucket, several devices
                else:
                    count = rng.randrange(1, budget + 1)
                    cost = count
                actions.append(
                    ScheduledAction(
                        at=t,
                        kind="inject",
                        level="device",
                        count=count,
                        colocation=colocation,
                    )
                )
                budget -= cost
            crashed = True
            t += rng.choice((0.0, 5.0, 20.0))
        # Restore before mark-down (<20 s grace), mid-checking, or well
        # after the down->out interval - each exercises a different arc.
        t += rng.choice((10.0, 50.0, 200.0, 500.0))
        actions.append(ScheduledAction(at=t, kind="restore"))
        t += rng.choice((150.0, 300.0, 600.0))
    return actions


def _sample_geo_schedule(rng) -> List[ScheduledAction]:
    """A region-aware fault schedule for a stretch campaign.

    One fault per round, each followed by a restore: a whole-region
    outage (damage = the per-region shard cap, within tolerance by EC
    choice), a WAN partition (the region stays up but unreachable), or
    a region-local host crash (damage 1 — the round that actually
    drives cross-region repair traffic, since recovery must pull
    helpers from other regions when the home region cannot field ``k``).
    Restore timing straddles the down->out interval exactly like the
    generic schedule.
    """
    actions: List[ScheduledAction] = []
    t = 100.0
    for _ in range(rng.randrange(1, 4)):
        level = rng.choice(("region_outage", "wan_partition", "node", "node"))
        actions.append(
            ScheduledAction(at=t, kind="inject", level=level, count=1)
        )
        t += rng.choice((10.0, 50.0, 200.0, 500.0))
        actions.append(ScheduledAction(at=t, kind="restore"))
        t += rng.choice((150.0, 300.0, 600.0))
    return actions


def _sample_cascade_schedule(rng, tolerance: int) -> List[ScheduledAction]:
    """A budget-tracked schedule of correlated-crash cascades.

    Each round opens with a whole-rack correlated crash (one tolerance
    slot — rack-domain placement caps any stripe at one shard per rack)
    and then spends the remaining budget on *aftershocks*: single-device
    crashes landing inside the recovery window, the follow-on failures
    that push already-degraded stripes toward their redundancy floor.
    The injector's white-box guard still bounds every step, so injected
    faults alone can never exceed the code's tolerance; restore timing
    straddles the down->out interval exactly like the generic schedule.
    """
    actions: List[ScheduledAction] = []
    t = 100.0
    for _ in range(rng.randrange(1, 3)):
        actions.append(
            ScheduledAction(
                at=t,
                kind="inject",
                level="correlated_crash",
                count=1,
                domain="rack",
            )
        )
        for _ in range(rng.randrange(0, tolerance)):
            t += rng.choice((5.0, 20.0, 60.0))
            actions.append(
                ScheduledAction(at=t, kind="inject", level="device", count=1)
            )
        t += rng.choice((50.0, 200.0, 500.0))
        actions.append(ScheduledAction(at=t, kind="restore"))
        t += rng.choice((150.0, 300.0, 600.0))
    return actions


def cascade_scenario(seed: int, recovery_priority: str = "risk") -> CampaignSpec:
    """The canonical rack-loss + aftershock scenario, fixed shape.

    Shared by ``ecfault cascade`` and the cascade-recovery benchmark so
    both always speak about the same cluster: jerasure(4,2) over 8
    single-host racks (two OSDs each), rack failure domain, 16 PGs.  At
    t=100 one whole rack dies as a correlated crash; at t=130 — inside
    the recovery window, before the monitor marks the rack out — an
    aftershock takes a device in a surviving rack, driving some stripes
    to their redundancy floor (margin 0) while others keep margin 1.
    Only ``recovery_priority`` varies, so a fifo/risk pair of runs is a
    controlled experiment on servicing order alone.
    """
    actions = (
        ScheduledAction(
            at=100.0,
            kind="inject",
            level="correlated_crash",
            count=1,
            domain="rack",
        ),
        ScheduledAction(at=130.0, kind="inject", level="device", count=1),
        ScheduledAction(at=1500.0, kind="restore"),
    )
    return CampaignSpec(
        seed=seed,
        ec_plugin="jerasure",
        ec_params=(("k", 4), ("m", 2)),
        pg_num=16,
        stripe_unit=256 * KB,
        cache_scheme="autotune",
        failure_domain="rack",
        num_hosts=8,
        osds_per_host=2,
        num_racks=8,
        mon_osd_down_out_interval=60.0,
        num_objects=24,
        object_size=1 * MB,
        recovery_priority=recovery_priority,
        track_risk_exposure=True,
        actions=actions,
    )


def _sample_byz_schedule(
    rng, tolerance: int, levels: Tuple[str, ...]
) -> List[ScheduledAction]:
    """A budget-tracked schedule of pure Byzantine rounds.

    Lying shards count against the code's guaranteed tolerance exactly
    like crashed ones (the injector's white-box guard), so the budget
    accounting mirrors :func:`_sample_schedule`'s corruption rule:
    data-plane lies (forged checksums, false acks) stay damaged until a
    scrub at a time the sampler cannot know, so each cedes its slots to
    every later round.  Stale-map gossip costs a slot only while live —
    the restore's epoch sweep (or the next delivered heartbeat) ends it.
    No crash levels are ever mixed in: every detection in a sampled byz
    campaign is attributable to a defense, not to ordinary recovery.
    """
    byz_levels = [level for level in BYZ_LEVELS if level in levels]
    if not byz_levels:
        byz_levels = list(BYZ_LEVELS)
    actions: List[ScheduledAction] = []
    t = 100.0
    outstanding = 0
    for _ in range(rng.randrange(1, 4)):
        budget = tolerance - outstanding
        if budget <= 0:
            break
        level = rng.choice(byz_levels)
        if level == "byz_corrupt_data":
            count = rng.randrange(1, min(budget, 2) + 1)
            outstanding += count
        else:
            # One liar per round: a false ack damages one shard, a
            # stale-map gossiper lies about the map, not the data.
            count = 1
            if level == "byz_false_ack":
                outstanding += 1
        actions.append(
            ScheduledAction(at=t, kind="inject", level=level, count=count)
        )
        t += rng.choice((50.0, 200.0, 500.0))
        actions.append(ScheduledAction(at=t, kind="restore"))
        t += rng.choice((150.0, 300.0, 600.0))
    return actions


def _gray_action(
    rng, at: float, gray_levels: List[str], budget: int
) -> Tuple[Optional[ScheduledAction], int]:
    """One sampled gray inject plus its tolerance cost (0 = free).

    ``net_degrade`` and ``flap`` can render an OSD unavailable, so each
    costs one tolerance slot; when the budget is spent the sampler falls
    back to ``slow_device`` (which only degrades service) or skips the
    prelude entirely.
    """
    pick = rng.choice(gray_levels)
    if pick != "slow_device" and budget < 1:
        if "slow_device" not in gray_levels:
            return None, 0
        pick = "slow_device"
    if pick == "slow_device":
        action = ScheduledAction(
            at=at,
            kind="inject",
            level="slow_device",
            factor=float(rng.choice((4, 8, 16))),
        )
        return action, 0
    if pick == "net_degrade":
        if rng.random() < 0.25:
            return (
                ScheduledAction(
                    at=at, kind="inject", level="net_degrade", partition=True
                ),
                1,
            )
        return (
            ScheduledAction(
                at=at,
                kind="inject",
                level="net_degrade",
                loss=rng.choice((0.05, 0.2)),
                latency=rng.choice((0.0, 0.002)),
            ),
            1,
        )
    return (
        ScheduledAction(
            at=at,
            kind="inject",
            level="flap",
            flap_interval=float(rng.choice((15.0, 40.0))),
        ),
        1,
    )
