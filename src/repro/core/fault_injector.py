"""EC-aware, topology-aware fault injection (§3.2).

The Fault Injector is *white-box*: it knows the pool's EC parameters and
failure domain from the experiment profile and refuses to inject more
than the guaranteed fault-tolerance capacity (n - k failures within the
failure domain), so every injected fault exercises EC recovery rather
than causing data loss.  It is *topology-aware*: concurrent device
failures can be forced onto the same storage node or spread across
different nodes — the Figure 2d axis.

:meth:`FaultInjector.inject` resolves a fault's targets once, runs the
white-box guard on exactly that set, and applies it through one of three
scope paths:

* **stripe** — ``corrupt`` (silently damage stored chunks, found only by
  deep scrub), ``byz_corrupt_data`` and ``byz_false_ack`` (OSDs that
  lie, see :mod:`repro.core.byzantine`).  Guarded per stripe; the
  victims stay up.
* **device** — ``device`` (remove an NVMe subsystem), ``flap``
  (oscillate an OSD daemon up/down on a seeded cadence, thrashing the
  monitor's failure detector until flap dampening pins it),
  ``byz_stale_map`` (gossip an old osdmap) and ``slow_device`` (inflate
  a device's service times ×``factor``: the OSD limps but heartbeats,
  so it costs no availability and is budget-free).
* **host** — ``node`` (shut a host down), ``net_degrade`` (packet loss,
  extra latency, a bandwidth penalty or a full partition at a host's
  NIC), ``correlated_crash`` (every host in whole failure-domain
  buckets at once: the shared-switch / shared-PDU scenario),
  ``region_outage`` (every host in a region) and ``wan_partition``
  (sever a region's WAN uplink: its hosts stay up and intra-region
  traffic flows, but every cross-region transfer fails).

Gray faults that make shards (intermittently) unavailable — ``flap``,
``net_degrade``, a stale-map liar — count against the tolerance budget
exactly like crash faults.  Region faults are guarded per *stripe*, not
per failure-domain bucket: a region holds many host buckets, so the
bucket count would always overshoot; what bounds recoverability is how
many shards of any one stripe live in (or behind) the target regions,
unioned with live damage.  A ``correlated_crash`` is guarded like
``node`` crashes, so an injected cascade alone can never lose data; only
the aftershocks a campaign schedules push PGs toward their redundancy
floor.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..cluster.ceph import CephCluster
from ..cluster.network import NetDegradation
from ..cluster.scrub import CorruptionModel
from ..cluster.topology import FailureDomain
from ..sim.rng import SeedSequence
from .byzantine import BYZ_LEVELS, ensure_byzantine
from .worker import Worker

__all__ = [
    "Colocation",
    "CorruptionModel",
    "FaultSpec",
    "FaultToleranceError",
    "FaultInjector",
    "FAULT_LEVELS",
    "GRAY_LEVELS",
    "GEO_LEVELS",
    "BYZ_LEVELS",
    "CASCADE_LEVELS",
    "CRASH_LEVELS",
]

#: Gray-failure levels: the fault degrades service but kills nothing.
GRAY_LEVELS = ("slow_device", "net_degrade", "flap")

#: Region-level levels: only valid on multi-region (stretch) topologies.
GEO_LEVELS = ("wan_partition", "region_outage")

#: Correlated level: one event fails a whole failure-domain bucket.
CASCADE_LEVELS = ("correlated_crash",)

#: Crash levels: the victims stay down until the monitor marks them out
#: and backfill re-replicates their shards.  Gray levels and corruption
#: degrade service without a mark-out.
CRASH_LEVELS = ("node", "device") + CASCADE_LEVELS

#: Stripe-level fault levels and the seeded stream each draws its victims
#: from.  Streams restart identically per call, so a shared stream would
#: make the adversary shadow the honest corruption picks exactly.
_STRIPE_STREAMS = {
    "corrupt": "fault-corrupt",
    "byz_corrupt_data": "fault-byz-corrupt",
    "byz_false_ack": "fault-byz-ack",
}

#: Device-scoped levels: each target is one OSD.  Every level neither
#: stripe- nor device-scoped is host-scoped: each target is a group of
#: hosts (one host, a failure-domain bucket or a region).
_DEVICE_LEVELS = ("device", "flap", "byz_stale_map", "slow_device")

#: The fault levels the injector understands.  Byzantine levels (OSDs
#: that lie — see :mod:`repro.core.byzantine`) and the correlated level
#: ride at the end so every pre-existing level keeps its position.
FAULT_LEVELS = ("node", "device", "corrupt") + GRAY_LEVELS + GEO_LEVELS \
    + BYZ_LEVELS + CASCADE_LEVELS


class Colocation:
    """Placement constraint for concurrent device faults (Fig 2d x-axis)."""

    SAME_HOST = "same_host"
    DIFFERENT_HOSTS = "diff_hosts"
    ANY = "any"
    ALL = (SAME_HOST, DIFFERENT_HOSTS, ANY)


@dataclass(frozen=True)
class FaultSpec:
    """A fault-injection request.

    ``level`` is ``"node"`` (shut a host down), ``"device"`` (remove NVMe
    subsystems), ``"corrupt"`` (silently damage stored chunks — found
    only by deep scrub), or a gray level: ``"slow_device"`` (inflate
    service times by ``factor``), ``"net_degrade"`` (apply ``loss`` /
    ``latency`` / ``bandwidth_penalty`` / ``partition`` to host NICs) or
    ``"flap"`` (oscillate OSD daemons with half-periods around
    ``flap_interval``), or ``"correlated_crash"`` (fail every OSD in
    whole ``domain`` buckets at once — the shared-switch scenario).
    ``count`` is how many targets; ``colocation`` constrains
    device-scoped faults; ``corruption`` picks the damage model for
    corrupt-level faults; explicit ``targets`` (host ids for
    node/net_degrade faults, OSD ids for device/slow_device/flap faults,
    stripe shard indices for corrupt faults, bucket ids for
    correlated_crash faults) override selection.
    """

    level: str = "node"
    count: int = 1
    colocation: str = Colocation.ANY
    targets: Optional[Sequence[int]] = None
    corruption: str = CorruptionModel.BIT_ROT
    #: slow_device: multiplier on the device's service times.
    factor: float = 4.0
    #: net_degrade: per-transfer drop probability at the host's NIC.
    loss: float = 0.0
    #: net_degrade: extra one-way propagation latency (seconds).
    latency: float = 0.0
    #: net_degrade: divisor on the NIC's usable bandwidth.
    bandwidth_penalty: float = 1.0
    #: net_degrade: sever the host from the fabric entirely.
    partition: bool = False
    #: flap: nominal half-period of the up/down oscillation (seconds).
    flap_interval: float = 60.0
    #: correlated_crash: the topology level that fails as one unit.
    domain: str = "host"

    def __post_init__(self):
        if self.level not in FAULT_LEVELS:
            raise ValueError(
                f"unknown fault level {self.level!r}; "
                f"allowed levels: {', '.join(FAULT_LEVELS)}"
            )
        if self.count < 1:
            raise ValueError(f"fault count must be >= 1, got {self.count}")
        if self.colocation not in Colocation.ALL:
            raise ValueError(
                f"unknown colocation {self.colocation!r}; "
                f"allowed colocations: {', '.join(Colocation.ALL)}"
            )
        if self.colocation == Colocation.SAME_HOST and self.level in (
            "node", "net_degrade",
        ) + GEO_LEVELS + BYZ_LEVELS + CASCADE_LEVELS:
            raise ValueError(
                "same-host colocation applies to device-scoped faults, "
                f"not level={self.level!r}"
            )
        if self.level == "correlated_crash":
            if self.domain not in (
                FailureDomain.HOST, FailureDomain.RACK, FailureDomain.REGION,
            ):
                raise ValueError(
                    f"correlated_crash domain must be one of host, rack, "
                    f"region; got {self.domain!r}"
                )
        if self.corruption not in CorruptionModel.ALL:
            raise ValueError(
                f"unknown corruption model {self.corruption!r}; "
                f"allowed models: {', '.join(CorruptionModel.ALL)}"
            )
        if self.level == "slow_device" and self.factor <= 1.0:
            raise ValueError(
                f"slow_device needs factor > 1.0, got {self.factor}"
            )
        if self.level == "net_degrade":
            # Constructing the degradation validates ranges and rejects
            # a spec that degrades nothing.
            self.net_degradation()
        if self.level == "flap" and self.flap_interval <= 0:
            raise ValueError(
                f"flap needs flap_interval > 0, got {self.flap_interval}"
            )

    def net_degradation(self) -> NetDegradation:
        """The NIC degradation a net_degrade spec applies."""
        return NetDegradation(
            loss=self.loss,
            latency=self.latency,
            bandwidth_penalty=self.bandwidth_penalty,
            partition=self.partition,
        )


class FaultToleranceError(ValueError):
    """The requested faults would exceed the code's guaranteed capacity."""


class FaultInjector:
    """Resolves each fault's targets once, guards them, applies them."""

    def __init__(
        self,
        cluster: CephCluster,
        workers: Dict[int, Worker],
        seeds: Optional[SeedSequence] = None,
    ):
        self.cluster = cluster
        self.workers = workers
        self.seeds = seeds or SeedSequence(0)
        self.injected_osds: Set[int] = set()
        #: OSDs whose device is currently slowed.  Not part of the
        #: tolerance budget (a slow disk costs no availability) — only
        #: tracked so one device is never slowed twice.
        self.slowed_osds: Set[int] = set()
        #: Regions whose WAN uplink this injector severed; restored by
        #: :meth:`restore_all` (workers know nothing about uplinks).
        self.partitioned_regions: Set[int] = set()

    # -- white-box guards ---------------------------------------------------------------

    def _refuse(self, damage: str) -> FaultToleranceError:
        """The refusal of ``damage`` beyond the code's tolerance m = n - k."""
        code = self.cluster.pool.code
        return FaultToleranceError(
            f"{damage} would exceed the guaranteed tolerance "
            f"m={code.fault_tolerance()} of "
            f"{code.plugin_name}({code.n},{code.k})"
        )

    def _guard_buckets(self, osds: Set[int]) -> None:
        """Refuse faults beyond n - k failures within the failure domain.

        Counts the *failure-domain buckets* holding ``osds`` or an OSD
        this injector already holds against the pool's tolerance
        m = n - k, then the same buckets beside silent and stale damage.
        """
        pool = self.cluster.pool
        tolerance = pool.code.fault_tolerance()
        domain = pool.failure_domain
        hit = {
            self.cluster.topology.bucket_of(osd_id, domain)
            for osd_id in osds | self.injected_osds
        }
        if len(hit) > tolerance:
            raise self._refuse(f"{len(hit)} failed {domain} buckets")
        # Crash-over-corruption guard, the converse of the stripe guard in
        # _stripe_victims: each crashed bucket can take one more shard
        # from the stripe already carrying the most unrepaired silent
        # corruption (honest or Byzantine — undetected false acks are
        # silent damage too), and the combined damage must stay
        # guaranteed-recoverable.
        corrupt = self._max_silent_damage()
        if corrupt and len(hit) + corrupt > tolerance:
            raise self._refuse(
                f"{len(hit)} failed {domain} buckets on top of {corrupt} "
                f"unrepaired corrupt chunks in one stripe"
            )
        # Crash-over-staleness guard: shards that missed a degraded write
        # hold old content and cannot serve repairs, so they are damage
        # just like corruption until delta recovery catches them up.
        # Per-stripe *union* with the (planned + live) crash damage — a
        # stale shard inside an already-doomed bucket adds nothing.
        dirty = self._max_dirty_damage(hit, domain)
        if dirty > tolerance:
            raise self._refuse(
                f"{dirty} damaged chunks in one stripe (crashed buckets + "
                f"stale/corrupt shards from degraded writes)"
            )

    def _guard_regions(self, regions: List[int]) -> None:
        """Stripe-level white-box guard for region faults.

        For every populated PG: the shards standing in (or cut off
        behind) the target ``regions`` or held by this injector, unioned
        with the stripe's damaged shards
        (:meth:`~repro.cluster.ceph.CephCluster.damaged_shards`), must
        stay within the code's guaranteed tolerance for every stored
        stripe.  Only stripes with a stale shard are judged object by
        object; silent damage elsewhere is the second guard's.
        """
        cluster = self.cluster
        pool = cluster.pool
        tolerance = pool.code.fault_tolerance()
        topology = cluster.topology
        hit_regions = set(regions)
        worst = 0
        worst_pg = None
        for pg in pool.pgs.values():
            if not pg.objects:
                continue
            down = cluster.down_shards(pg)
            base = down | {
                s
                for s, osd_id in enumerate(pg.acting)
                if topology.region_of(osd_id) in hit_regions
                or topology.region_of(osd_id) in self.partitioned_regions
                or osd_id in self.injected_osds
            }
            damage = len(base)
            if pg.log is not None and pg.log.dirty_shards():
                for obj in pg.objects:
                    if pg.log.stale_shards(obj.name):
                        damage = max(damage, len(
                            base | cluster.damaged_shards(pg, obj, down)
                        ))
            if damage > worst:
                worst, worst_pg = damage, pg.pgid
        if worst > tolerance:
            raise self._refuse(
                f"{worst} damaged chunks in stripe {worst_pg} (regions "
                f"{sorted(hit_regions)} + live damage)"
            )
        # Silent corruption (honest or Byzantine) can sit in any stripe;
        # a region fault may remove its repair headroom (same guard as
        # crash levels).
        corrupt = self._max_silent_damage()
        if corrupt and worst + corrupt > tolerance:
            raise self._refuse(
                f"{worst} region-damaged chunks on top of {corrupt} "
                f"unrepaired corrupt chunks in one stripe"
            )

    def _max_dirty_damage(self, hit: Set, domain: str) -> int:
        """Worst-case per-stripe damage once ``hit`` buckets are down.

        For every stripe with a stale shard: the shards standing in a
        hit bucket, unioned with the stripe's damaged shards
        (:meth:`~repro.cluster.ceph.CephCluster.damaged_shards`).
        Returns 0 when no writes have gone degraded (read-only
        experiments never pay beyond the ``dirty_shards`` check per PG).
        """
        worst = 0
        cluster = self.cluster
        topology = cluster.topology
        for pg in cluster.pool.pgs.values():
            if pg.log is None or not pg.objects or not pg.log.dirty_shards():
                continue
            down = cluster.down_shards(pg)
            in_hit = {
                s
                for s, osd_id in enumerate(pg.acting)
                if topology.bucket_of(osd_id, domain) in hit
            }
            for obj in pg.objects:
                if pg.log.stale_shards(obj.name):
                    worst = max(worst, len(
                        in_hit | cluster.damaged_shards(pg, obj, down)
                    ))
        return worst

    def _max_silent_damage(self) -> int:
        """Worst-case per-stripe *silent* damage: unrepaired corrupt
        shards unioned with undetected false-ack shards.  Identical to
        ``integrity.max_corrupt_per_stripe()`` when no Byzantine fault
        is active.  The subset of the damage rule that a bucket count
        cannot see, so the crash and region guards add it on top."""
        integrity = self.cluster.integrity
        byz = self.cluster.byzantine
        if byz is None:
            return integrity.max_corrupt_per_stripe()
        worst = 0
        # Every stripe carrying either kind of silent damage:
        seen = {
            (pgid, name) for pgid, name, _shards in byz.false_ack_items()
        }
        for pg in self.cluster.pool.pgs.values():
            for obj in pg.objects:
                if integrity.corrupt_shards(pg.pgid, obj.name):
                    seen.add((pg.pgid, obj.name))
        for pgid, name in seen:
            damage = (
                integrity.corrupt_shards(pgid, name)
                | byz.damaged_shards(pgid, name)
            )
            worst = max(worst, len(damage))
        return worst

    # -- target selection ----------------------------------------------------------------

    def _pick(self, spec: FaultSpec, stream: str, candidates: List[int],
              known: Iterable[int], ids: str, what: str) -> List[int]:
        """Explicit targets, checked against ``known``, or a seeded draw.

        ``ids`` names the id space of explicit targets ("host ids") and
        ``what`` the candidates ("hosts hold data").  Each picker draws
        from its own stream, which restarts on every call, so one call
        is one fault's victims.
        """
        if spec.targets is not None:
            targets = list(spec.targets)[: spec.count]
            bad = sorted(set(targets) - set(known))
            if bad:
                raise ValueError(
                    f"{spec.level} targets are {ids}; {bad} unknown"
                )
            return targets
        if len(candidates) < spec.count:
            raise ValueError(
                f"only {len(candidates)} {what}, need {spec.count}"
            )
        return self.seeds.stream(stream).sample(candidates, spec.count)

    def _healthy_data_osds(self) -> List[int]:
        """Candidate OSDs: hold chunks, still up, not already injected."""
        return [
            osd_id
            for osd_id in self.cluster.osds_with_data()
            if osd_id not in self.injected_osds
            and osd_id not in self.slowed_osds
            and self.cluster.osds[osd_id].is_up()
        ]

    def _select_hosts(self, spec: FaultSpec) -> List[int]:
        """Hosts for a node or net_degrade fault, among those storing chunks."""
        topology = self.cluster.topology
        candidates = sorted(
            {topology.osds[o].host_id for o in self._healthy_data_osds()}
        )
        return self._pick(
            spec, "fault-hosts", candidates, topology.hosts,
            "host ids", "hosts hold data",
        )

    def _select_correlated_buckets(self, spec: FaultSpec) -> List[int]:
        """Buckets at ``spec.domain`` a correlated_crash takes out.

        Sampled from those still holding reachable data, so the
        correlated loss actually triggers recovery.
        """
        topology = self.cluster.topology
        candidates = sorted({
            topology.bucket_of(o, spec.domain) for o in self._healthy_data_osds()
        })
        return self._pick(
            spec, "fault-correlated", candidates,
            topology.buckets(spec.domain), f"{spec.domain} bucket ids",
            f"{spec.domain} buckets hold data",
        )

    def _select_regions(self, spec: FaultSpec) -> List[int]:
        """Target regions for a geo-level fault.

        Sampled from those still holding reachable data, so the fault
        actually exercises cross-region recovery.
        """
        topology = self.cluster.topology
        if topology.wan is None:
            raise ValueError(
                f"{spec.level} faults need a multi-region topology "
                "(num_regions > 1)"
            )
        candidates = sorted(
            {topology.region_of(o) for o in self._healthy_data_osds()}
            - self.partitioned_regions
        )
        return self._pick(
            spec, "fault-regions", candidates, topology.buckets("region"),
            "region ids", "regions hold reachable data",
        )

    def _select_devices(self, spec: FaultSpec) -> List[int]:
        """Pick device-fault targets, EC-aware.

        Multi-device faults are chosen *within one placement group's
        acting set* whenever possible, so that "f concurrent failures"
        actually exercises f-erasure EC recovery on shared stripes rather
        than f unrelated single-failure recoveries — the systematic
        exploration §3.2 describes.  The colocation constraint (same
        host vs different hosts) is applied within the acting set.
        """
        healthy = self._healthy_data_osds()
        rng = self.seeds.stream("fault-devices")
        if spec.targets is None and spec.count > 1:
            chosen = self._co_occurring_targets(spec, set(healthy), rng)
            if chosen is not None:
                return chosen
        if spec.targets is not None or spec.colocation == Colocation.ANY:
            # Nothing was drawn yet, so _pick's restarted stream is rng.
            return self._pick(
                spec, "fault-devices", healthy, self.cluster.topology.osds,
                "OSD ids", "data-bearing OSDs",
            )
        by_host: Dict[int, List[int]] = {}
        for osd_id in healthy:
            by_host.setdefault(
                self.cluster.topology.osds[osd_id].host_id, []
            ).append(osd_id)
        if spec.colocation == Colocation.SAME_HOST:
            hosts = [h for h, osds in by_host.items() if len(osds) >= spec.count]
            if not hosts:
                raise ValueError(
                    f"no host has {spec.count} data-bearing OSDs for a "
                    "same-host fault"
                )
            host = rng.choice(sorted(hosts))
            return rng.sample(by_host[host], spec.count)
        hosts = sorted(by_host)
        if len(hosts) < spec.count:
            raise ValueError(
                f"only {len(hosts)} data-bearing hosts, need {spec.count}"
            )
        chosen_hosts = rng.sample(hosts, spec.count)
        return [rng.choice(sorted(by_host[h])) for h in chosen_hosts]

    def _co_occurring_targets(self, spec: FaultSpec, healthy: Set[int], rng):
        """Targets from a single PG's acting set honouring colocation.

        Returns None when no acting set satisfies the constraint; the
        caller falls back to topology-only selection.
        """
        topology = self.cluster.topology
        candidates = []
        for pg in self.cluster.pool.pgs.values():
            if not pg.objects:
                continue
            usable = [o for o in pg.acting if o in healthy]
            if spec.colocation == Colocation.SAME_HOST:
                by_host: Dict[int, List[int]] = {}
                for osd_id in usable:
                    by_host.setdefault(topology.osds[osd_id].host_id, []).append(osd_id)
                for host in sorted(by_host):
                    if len(by_host[host]) >= spec.count:
                        candidates.append((pg.pg_id, by_host[host][: spec.count]))
                        break
            elif spec.colocation == Colocation.DIFFERENT_HOSTS:
                picked: List[int] = []
                seen_hosts: Set[int] = set()
                for osd_id in usable:
                    host = topology.osds[osd_id].host_id
                    if host not in seen_hosts:
                        picked.append(osd_id)
                        seen_hosts.add(host)
                    if len(picked) == spec.count:
                        candidates.append((pg.pg_id, picked))
                        break
            else:
                if len(usable) >= spec.count:
                    candidates.append((pg.pg_id, usable[: spec.count]))
        if not candidates:
            return None
        return rng.choice(sorted(candidates))[1]

    def _stripe_victims(self, spec: FaultSpec):
        """Pick the stripe and shard set a stripe-level fault damages.

        Serves ``corrupt``, ``byz_corrupt_data`` (forged local checksums)
        and ``byz_false_ack`` (acked-but-not-applied), each drawing from
        its own seeded stream.  Corruption needs write-time checksums,
        and a forged checksum needs deep scrub, the only thing that can
        ever detect it; a false ack needs a write log with a committed
        version to falsify.

        White-box stripe guard: the stripe's damaged shards
        (:meth:`~repro.cluster.ceph.CephCluster.damaged_shards`), the
        shards on OSDs this injector holds (flapping, partitioned or
        gossiping a stale map, so down at any later instant) and the new
        victims together must stay within the code's guaranteed
        tolerance — a corruption the code could not repair would be
        injected data loss, not a fault experiment.  A lying shard
        counts exactly like a corrupt one.
        """
        cluster = self.cluster
        pool = cluster.pool
        byzantine = spec.level in BYZ_LEVELS
        if spec.level != "byz_false_ack" and not cluster.integrity.config.enabled:
            kind = spec.level if byzantine else "corrupt-level"
            raise ValueError(
                f"{kind} faults need write-time checksums; "
                "enable IntegrityConfig(enabled=True) on the cluster"
            )
        if spec.level == "byz_corrupt_data" and not cluster.scrub.config.enabled:
            raise ValueError(
                "byz_corrupt_data faults need deep scrub enabled — "
                "nothing else can ever detect a forged checksum"
            )
        populated = [pg for pg in pool.pgs.values() if pg.objects]
        if not populated:
            raise ValueError(
                "no stored objects for a Byzantine fault" if byzantine
                else "no stored objects to corrupt"
            )
        rng = self.seeds.stream(_STRIPE_STREAMS[spec.level])
        if spec.targets is not None:
            shards = list(spec.targets)[: spec.count]
            bad = [s for s in shards if not 0 <= s < pool.code.n]
            if bad:
                raise ValueError(
                    f"{spec.level} targets are stripe shard indices; {bad} "
                    f"outside [0, {pool.code.n})"
                )
            pg = populated[0]
            obj = pg.objects[0]
        else:
            pg = rng.choice(populated)
            obj = rng.choice(pg.objects)
            shards = rng.sample(range(pool.code.n), spec.count)
        damaged = cluster.damaged_shards(pg, obj) | set(shards) | {
            s for s, osd_id in enumerate(pg.acting) if osd_id in self.injected_osds
        }
        if len(damaged) > pool.code.fault_tolerance():
            lies = " (Byzantine lies count like crash damage)" if byzantine else ""
            raise self._refuse(
                f"{len(damaged)} damaged chunks in stripe "
                f"{pg.pgid}/{obj.name}{lies}"
            )
        if spec.level == "byz_false_ack":
            if pg.log is None:
                raise ValueError(
                    "byz_false_ack faults need per-PG write logs "
                    "(pg_log_max_entries > 0)"
                )
            if obj.name not in pg.log.object_version:
                raise ValueError(
                    f"object {pg.pgid}/{obj.name} has no committed version "
                    "to falsely ack"
                )
        return pg, obj, shards, rng

    def _select_byz_liars(self, spec: FaultSpec) -> List[int]:
        """OSD daemons that will gossip a stale osdmap epoch."""
        candidates = self._healthy_data_osds()
        byz = self.cluster.byzantine
        if byz is not None:
            candidates = [
                osd_id for osd_id in candidates
                if not byz.gossiping_stale(osd_id)
            ]
        return self._pick(
            spec, "fault-byz-map", candidates, self.cluster.topology.osds,
            "OSD ids", "candidate OSDs for stale-map gossip",
        )

    # -- application --------------------------------------------------------------------

    def inject(self, spec: FaultSpec) -> List[int]:
        """Guard and apply a fault; returns the affected OSD ids.

        The fault's targets are resolved once, the white-box guard judges
        exactly that set, and the Workers apply it through one of three
        scope paths: a stripe, a set of OSDs, or a set of hosts.

        ``injected_osds`` grows per target as each fault lands, not in
        one batch after the loop: if a multi-target inject dies half-way
        (a missing subsystem, a device already flapping), the OSDs
        already taken down still count against later guards.

        Explicit targets that repeat an id are refused first, for every
        level: a repeat would apply the same fault to one target twice.
        """
        if spec.targets is not None:
            repeated = sorted(
                t for t, uses in Counter(spec.targets).items() if uses > 1
            )
            if repeated:
                raise ValueError(f"{spec.level} targets repeat {repeated}")
        if spec.level in _STRIPE_STREAMS:
            return self._inject_stripe(spec)
        if spec.level in _DEVICE_LEVELS:
            return self._inject_devices(spec)
        return self._inject_hosts(spec)

    def _inject_stripe(self, spec: FaultSpec) -> List[int]:
        """``corrupt``, ``byz_corrupt_data``, ``byz_false_ack``.

        The victims' daemons stay up and the fault is silent, so nothing
        joins ``injected_osds``: crash faults may still target them, and
        the stripe guard bounds the combined damage instead.
        """
        code = self.cluster.pool.code
        # Both counts are refused ahead of the draw, which cannot sample
        # more shards than the stripe has.
        if spec.level == "corrupt" and spec.count > code.fault_tolerance():
            raise self._refuse(f"{spec.count} corrupted chunks in one stripe")
        if spec.count > code.n:
            raise self._refuse(
                f"{spec.count} {spec.level} chunks in a {code.n}-chunk stripe"
            )
        pg, obj, shards, rng = self._stripe_victims(spec)
        if spec.level != "corrupt":
            state = ensure_byzantine(self.cluster)
            now = self.cluster.env.now
        for shard in sorted(shards):
            osd_id = pg.acting[shard]
            worker = self._worker_of(osd_id)
            if spec.level == "corrupt":
                worker.corrupt_chunk(
                    pg.pgid, obj.name, shard, spec.corruption, rng
                )
            elif spec.level == "byz_corrupt_data":
                worker.byz_corrupt_chunk(pg.pgid, obj.name, shard, osd_id, rng)
                state.add_corrupt(osd_id, pg.pgid, obj.name, shard, now)
            else:
                worker.byz_false_ack(pg.pgid, obj.name, shard)
                state.add_false_ack(osd_id, pg.pgid, obj.name, shard, now)
        return sorted(pg.acting[shard] for shard in shards)

    def _inject_devices(self, spec: FaultSpec) -> List[int]:
        """``device``, ``flap``, ``byz_stale_map`` and ``slow_device``.

        A flapping OSD counts in full against the tolerance budget — an
        intermittently unavailable shard must be assumed unavailable —
        and so does a stale-map liar, whose misrouted ops make its shards
        unreliable until the monitor rejects its epoch.  A limping device
        costs performance, not availability: ``slow_device`` consumes
        none of the budget and is only kept from slowing a device twice.
        """
        if spec.level == "byz_stale_map":
            osds = sorted(self._select_byz_liars(spec))
        else:
            osds = self._select_devices(spec)
        if spec.level == "slow_device":
            already = sorted(o for o in osds if o in self.slowed_osds)
            if already:
                raise ValueError(f"devices already slowed: {already}")
            held = self.slowed_osds
        else:
            self._guard_buckets(set(osds))
            held = self.injected_osds
        if spec.level == "byz_stale_map":
            state = ensure_byzantine(self.cluster)
            now = self.cluster.env.now
            # Every liar gossips the same old map, as if they all missed
            # the same incremental.
            stale_epoch = max(0, self.cluster.monitor.osdmap_epoch - 1)
        for osd_id in osds:
            worker = self._worker_of(osd_id)
            if spec.level == "device":
                worker.remove_device(osd_id)
            elif spec.level == "flap":
                # One seeded stream per target keeps flap phasing
                # deterministic and independent across OSDs.
                worker.start_flap(
                    osd_id, spec.flap_interval,
                    self.seeds.stream(f"flap-{osd_id}"),
                )
            elif spec.level == "slow_device":
                worker.slow_device(osd_id, spec.factor)
            else:
                worker.byz_stale_map(osd_id, stale_epoch)
                state.add_stale_map(osd_id, stale_epoch, now)
            held.add(osd_id)
        return sorted(osds)

    def _inject_hosts(self, spec: FaultSpec) -> List[int]:
        """``node``, ``net_degrade``, ``correlated_crash``, region levels.

        Each target is a group of hosts: one host (``node``,
        ``net_degrade``, whose NIC all its OSDs share), a failure-domain
        bucket's hosts (``correlated_crash``: the shared switch or PDU
        dies, every host at once) or a region's hosts.  A severed WAN
        uplink leaves its hosts up, but their shards are unreachable for
        cross-region repair, so they count against the budget like a
        partition.
        """
        topology = self.cluster.topology
        if spec.level in GEO_LEVELS:
            targets = self._select_regions(spec)
            groups = [
                sorted(host.host_id for host in topology.hosts_in_region(r))
                for r in targets
            ]
        elif spec.level == "correlated_crash":
            targets = sorted(self._select_correlated_buckets(spec))
            groups = [
                sorted({
                    topology.osds[osd_id].host_id
                    for osd_id in topology.osds_in_bucket(b, spec.domain)
                })
                for b in targets
            ]
        else:
            targets = self._select_hosts(spec)
            groups = [[host_id] for host_id in targets]
        affected = [
            osd_id
            for hosts in groups
            for host_id in hosts
            for osd_id in topology.hosts[host_id].osd_ids
        ]
        if spec.level in GEO_LEVELS:
            self._guard_regions(targets)
        else:
            self._guard_buckets(set(affected))
        if spec.level == "net_degrade":
            degradation = spec.net_degradation()
        for target, hosts in zip(targets, groups):
            if spec.level == "wan_partition":
                topology.wan.partition_region(target)
                self.partitioned_regions.add(target)
            for host_id in hosts:
                worker = self.workers[host_id]
                if spec.level == "net_degrade":
                    worker.degrade_network(degradation)
                elif spec.level != "wan_partition":
                    worker.shutdown_node()
                self.injected_osds |= set(worker.host.osd_ids)
        return sorted(affected)

    def _worker_of(self, osd_id: int) -> Worker:
        return self.workers[self.cluster.topology.osds[osd_id].host_id]

    def restore_all(self) -> None:
        """Undo every injected fault via the owning workers.

        Idempotent and partial-failure safe: each worker only rolls back
        what it actually applied, and an OSD leaves ``injected_osds`` the
        moment its worker restored it — so a restore that raises half-way
        can simply be called again, and a double restore is a no-op.
        """
        wan = self.cluster.topology.wan
        if wan is not None:
            for region in sorted(self.partitioned_regions):
                wan.restore_region(region)
                # The uplink is whole again: its hosts' OSDs stop
                # counting against the budget (unless a worker-level
                # fault still holds them, which the loop below owns).
                for host in self.cluster.topology.hosts_in_region(region):
                    self.injected_osds -= set(host.osd_ids)
            self.partitioned_regions.clear()
        for worker in self.workers.values():
            worker.restore()
            self.injected_osds -= set(worker.host.osd_ids)
            self.slowed_osds -= set(worker.host.osd_ids)
        # Adversary-installed daemon state clears with the restart too: a
        # restored OSD re-fetches the osdmap, ending any stale-map lie
        # (counted as an epoch detection).  Data-plane lies — forged
        # checksums, false acks — survive, mirroring how worker.restore
        # never heals silent corruption; scrub and peering own those.
        byz = self.cluster.byzantine
        if byz is not None:
            byz.on_restore(self.cluster.env.now)
