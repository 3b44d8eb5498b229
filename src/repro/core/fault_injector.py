"""EC-aware, topology-aware fault injection (§3.2).

The Fault Injector is *white-box*: it knows the pool's EC parameters and
failure domain from the experiment profile and refuses to inject more
than the guaranteed fault-tolerance capacity (n - k failures within the
failure domain), so every injected fault exercises EC recovery rather
than causing data loss.  It is *topology-aware*: concurrent device
failures can be forced onto the same storage node or spread across
different nodes — the Figure 2d axis.

Beyond fail-stop (node/device) and silent (corrupt) faults, the injector
speaks three **gray-failure** levels — faults that degrade without
killing:

* ``slow_device`` — inflate an NVMe device's service times ×``factor``;
  the OSD stays up and heartbeating, it just limps.
* ``net_degrade`` — give a host's NIC packet loss, extra latency, a
  bandwidth penalty, or a full partition; transfers through it can slow
  down or drop, and so can the host's heartbeats.
* ``flap`` — oscillate an OSD daemon up/down on a seeded cadence,
  thrashing the monitor's failure detector until flap dampening pins it.

The white-box guard extends to gray faults: ``flap`` and ``net_degrade``
make shards (intermittently) unavailable, so they count against the
code's tolerance budget exactly like crash faults; ``slow_device`` never
costs availability and is budget-free, tracked only to prevent
double-slowing one device.

Stretch clusters add two **region-level** levels:

* ``region_outage`` — shut down every host in a region at once (the
  cloud-region-down scenario).
* ``wan_partition`` — sever a region's WAN uplink; hosts stay up and
  intra-region traffic flows, but every cross-region transfer fails.

Both are guarded per *stripe*, not per failure-domain bucket: a region
holds many host buckets, so the bucket count would always overshoot.
What actually bounds recoverability is how many shards of any one stripe
live in (or behind) the target regions — the region-spanning CRUSH rule
caps that, and the guard unions it with live damage (down OSDs, stale
and corrupt shards) exactly like the crash-over-staleness guard.

Cascade experiments add one **correlated** level:

* ``correlated_crash`` — fail every OSD inside whole failure-domain
  buckets (hosts, racks, …) in a single event: the shared-switch /
  shared-PDU scenario where one physical fault takes out an entire
  domain at once.  It is guarded exactly like ``node`` crashes — the
  buckets taken out (in the *pool's* failure domain) plus live damage
  must stay within the code's tolerance — so an injected cascade alone
  can never lose data; only the follow-on aftershocks the campaign
  schedules push PGs toward their redundancy floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

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
    """Selects fault targets and applies them through the Workers."""

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

    # -- white-box validation ---------------------------------------------------------

    def validate(self, spec: FaultSpec) -> None:
        """Refuse faults beyond n - k failures within the failure domain.

        Counts the *failure-domain buckets* the spec would take out, plus
        any already-injected ones, against the pool's tolerance m = n - k.
        """
        pool = self.cluster.pool
        tolerance = pool.code.fault_tolerance()
        if spec.level == "corrupt":
            if spec.count > tolerance:
                raise FaultToleranceError(
                    f"{spec.count} corrupted chunks in one stripe would "
                    f"exceed the guaranteed tolerance m={tolerance} of "
                    f"{pool.code.plugin_name}({pool.code.n},{pool.code.k})"
                )
            return
        if spec.level == "slow_device":
            # A limping device costs performance, not availability: it
            # consumes none of the tolerance budget.  Selection still
            # enforces that enough un-slowed candidates exist.
            self._select_slow_devices(spec)
            return
        if spec.level in ("byz_corrupt_data", "byz_false_ack"):
            # Guarded per stripe like honest corruption: a lying shard
            # counts against the code's tolerance m exactly the same.
            self._stripe_victims(spec)
            return
        if spec.level in GEO_LEVELS:
            self._validate_geo(spec)
            return
        domain = pool.failure_domain
        hit = {
            self.cluster.topology.bucket_of(osd_id, domain)
            for osd_id in self._osds_for(spec) | self.injected_osds
        }
        if len(hit) > tolerance:
            raise FaultToleranceError(
                f"{len(hit)} failed {domain} buckets would exceed the "
                f"guaranteed tolerance m={tolerance} of "
                f"{pool.code.plugin_name}({pool.code.n},{pool.code.k})"
            )
        # Crash-over-corruption guard, the converse of the stripe guard in
        # _stripe_victims: each crashed bucket can take one more shard
        # from the stripe already carrying the most unrepaired silent
        # corruption (honest or Byzantine — undetected false acks are
        # silent damage too), and the combined damage must stay
        # guaranteed-recoverable.
        corrupt = self._max_silent_damage()
        if corrupt and len(hit) + corrupt > tolerance:
            raise FaultToleranceError(
                f"{len(hit)} failed {domain} buckets on top of {corrupt} "
                f"unrepaired corrupt chunks in one stripe would exceed the "
                f"guaranteed tolerance m={tolerance} of "
                f"{pool.code.plugin_name}({pool.code.n},{pool.code.k})"
            )
        # Crash-over-staleness guard: shards that missed a degraded write
        # hold old content and cannot serve repairs, so they are damage
        # just like corruption until delta recovery catches them up.
        # Per-stripe *union* with the (planned + live) crash damage — a
        # stale shard inside an already-doomed bucket adds nothing.
        dirty = self._max_dirty_damage(hit, domain)
        if dirty > tolerance:
            raise FaultToleranceError(
                f"{dirty} damaged chunks in one stripe (crashed buckets + "
                f"stale/corrupt shards from degraded writes) would exceed "
                f"the guaranteed tolerance m={tolerance} of "
                f"{pool.code.plugin_name}({pool.code.n},{pool.code.k})"
            )

    def _validate_geo(self, spec: FaultSpec) -> None:
        """Stripe-level white-box guard for region faults.

        For every populated PG: the shards standing in (or cut off
        behind) the target regions or held by this injector, unioned
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
        hit_regions = set(self._select_regions(spec))
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
            raise FaultToleranceError(
                f"{worst} damaged chunks in stripe {worst_pg} (regions "
                f"{sorted(hit_regions)} + live damage) would exceed the "
                f"guaranteed tolerance m={tolerance} of "
                f"{pool.code.plugin_name}({pool.code.n},{pool.code.k})"
            )
        # Silent corruption (honest or Byzantine) can sit in any stripe;
        # a region fault may remove its repair headroom (same guard as
        # crash levels).
        corrupt = self._max_silent_damage()
        if corrupt and worst + corrupt > tolerance:
            raise FaultToleranceError(
                f"{worst} region-damaged chunks on top of {corrupt} "
                f"unrepaired corrupt chunks in one stripe would exceed "
                f"the guaranteed tolerance m={tolerance} of "
                f"{pool.code.plugin_name}({pool.code.n},{pool.code.k})"
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

    def _osds_for(self, spec: FaultSpec) -> Set[int]:
        """OSDs a spec can make unavailable (resolving target selection).

        ``net_degrade`` is host-scoped like ``node`` (the NIC is shared);
        ``flap`` is device-scoped like ``device``.  Both count in full —
        an intermittently-unavailable shard must be assumed unavailable
        for the tolerance guarantee to hold.
        """
        if spec.level in ("node", "net_degrade"):
            hosts = self._select_hosts(spec)
            out: Set[int] = set()
            for host_id in hosts:
                out |= set(self.cluster.topology.hosts[host_id].osd_ids)
            return out
        if spec.level == "byz_stale_map":
            # A stale-gossip liar misroutes ops aimed at its shards until
            # the monitor rejects its epoch, so it counts as unavailable
            # for the tolerance guarantee exactly like a flapping OSD.
            return set(self._select_byz_liars(spec))
        if spec.level == "correlated_crash":
            out = set()
            for bucket in self._select_correlated_buckets(spec):
                out |= set(
                    self.cluster.topology.osds_in_bucket(bucket, spec.domain)
                )
            return out
        return set(self._select_devices(spec))

    # -- target selection ----------------------------------------------------------------

    def _healthy_data_osds(self) -> List[int]:
        """Candidate OSDs: hold chunks, still up, not already injected."""
        return [
            osd_id
            for osd_id in self.cluster.osds_with_data()
            if osd_id not in self.injected_osds
            and osd_id not in self.slowed_osds
            and self.cluster.osds[osd_id].is_up()
        ]

    def _select_slow_devices(self, spec: FaultSpec) -> List[int]:
        """Targets for a slow_device fault (device-scoped selection)."""
        devices = self._select_devices(spec)
        already = [osd_id for osd_id in devices if osd_id in self.slowed_osds]
        if already:
            raise ValueError(f"devices already slowed: {sorted(already)}")
        return devices

    def _data_hosts(self) -> List[int]:
        """Hosts that store chunks (so faults actually trigger recovery)."""
        return sorted(
            {
                self.cluster.topology.osds[o].host_id
                for o in self._healthy_data_osds()
            }
        )

    def _select_hosts(self, spec: FaultSpec) -> List[int]:
        if spec.targets is not None:
            return list(spec.targets)[: spec.count]
        rng = self.seeds.stream("fault-hosts")
        candidates = self._data_hosts()
        if len(candidates) < spec.count:
            raise ValueError(
                f"only {len(candidates)} hosts hold data, need {spec.count}"
            )
        return rng.sample(candidates, spec.count)

    def _select_correlated_buckets(self, spec: FaultSpec) -> List[int]:
        """Pick the failure-domain buckets a correlated_crash takes out.

        Explicit ``targets`` are bucket ids at ``spec.domain``; otherwise
        buckets are sampled from those still holding reachable data so
        the correlated loss actually triggers recovery.  Draws from its
        own seeded stream — validate and inject replay the same picks.
        """
        topology = self.cluster.topology
        all_buckets = set(topology.buckets(spec.domain))
        if spec.targets is not None:
            buckets = list(spec.targets)[: spec.count]
            bad = sorted(set(buckets) - all_buckets)
            if bad:
                raise ValueError(
                    f"correlated_crash targets are {spec.domain} bucket "
                    f"ids; {bad} unknown"
                )
            return buckets
        rng = self.seeds.stream("fault-correlated")
        candidates = sorted(
            {
                topology.bucket_of(osd_id, spec.domain)
                for osd_id in self._healthy_data_osds()
            }
        )
        if len(candidates) < spec.count:
            raise ValueError(
                f"only {len(candidates)} {spec.domain} buckets hold data, "
                f"need {spec.count}"
            )
        return rng.sample(candidates, spec.count)

    def _select_regions(self, spec: FaultSpec) -> List[int]:
        """Pick target regions for a geo-level fault.

        Explicit ``targets`` are region ids; otherwise regions are
        sampled from those still holding reachable data, so the fault
        actually exercises cross-region recovery.
        """
        topology = self.cluster.topology
        if topology.wan is None:
            raise ValueError(
                f"{spec.level} faults need a multi-region topology "
                "(num_regions > 1)"
            )
        all_regions = set(topology.buckets("region"))
        if spec.targets is not None:
            regions = list(spec.targets)[: spec.count]
            bad = sorted(set(regions) - all_regions)
            if bad:
                raise ValueError(
                    f"{spec.level} targets are region ids; {bad} unknown"
                )
            return regions
        rng = self.seeds.stream("fault-regions")
        candidates = sorted(
            {
                topology.region_of(osd_id)
                for osd_id in self._healthy_data_osds()
            }
            - self.partitioned_regions
        )
        if len(candidates) < spec.count:
            raise ValueError(
                f"only {len(candidates)} regions hold reachable data, "
                f"need {spec.count}"
            )
        return rng.sample(candidates, spec.count)

    def _select_devices(self, spec: FaultSpec) -> List[int]:
        """Pick device-fault targets, EC-aware.

        Multi-device faults are chosen *within one placement group's
        acting set* whenever possible, so that "f concurrent failures"
        actually exercises f-erasure EC recovery on shared stripes rather
        than f unrelated single-failure recoveries — the systematic
        exploration §3.2 describes.  The colocation constraint (same
        host vs different hosts) is applied within the acting set.
        """
        if spec.targets is not None:
            return list(spec.targets)[: spec.count]
        rng = self.seeds.stream("fault-devices")
        healthy = set(self._healthy_data_osds())
        if spec.count > 1:
            chosen = self._co_occurring_targets(spec, healthy, rng)
            if chosen is not None:
                return chosen
        by_host: Dict[int, List[int]] = {}
        for osd_id in sorted(healthy):
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
        if spec.colocation == Colocation.DIFFERENT_HOSTS:
            hosts = sorted(by_host)
            if len(hosts) < spec.count:
                raise ValueError(
                    f"only {len(hosts)} data-bearing hosts, need {spec.count}"
                )
            chosen_hosts = rng.sample(hosts, spec.count)
            return [rng.choice(sorted(by_host[h])) for h in chosen_hosts]
        if len(healthy) < spec.count:
            raise ValueError(
                f"only {len(healthy)} data-bearing OSDs, need {spec.count}"
            )
        return rng.sample(sorted(healthy), spec.count)

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
        tolerance = pool.code.fault_tolerance()
        damaged = cluster.damaged_shards(pg, obj) | set(shards) | {
            s for s, osd_id in enumerate(pg.acting) if osd_id in self.injected_osds
        }
        if len(damaged) > tolerance:
            lies = " (Byzantine lies count like crash damage)" if byzantine else ""
            raise FaultToleranceError(
                f"{len(damaged)} damaged chunks in stripe "
                f"{pg.pgid}/{obj.name}{lies} would exceed the guaranteed "
                f"tolerance m={tolerance} of "
                f"{pool.code.plugin_name}({pool.code.n},{pool.code.k})"
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
        if spec.targets is not None:
            return list(spec.targets)[: spec.count]
        rng = self.seeds.stream("fault-byz-map")
        candidates = sorted(self._healthy_data_osds())
        byz = self.cluster.byzantine
        if byz is not None:
            candidates = [
                osd_id for osd_id in candidates
                if not byz.gossiping_stale(osd_id)
            ]
        if len(candidates) < spec.count:
            raise ValueError(
                f"only {len(candidates)} candidate OSDs for stale-map "
                f"gossip, need {spec.count}"
            )
        return rng.sample(candidates, spec.count)

    # -- application --------------------------------------------------------------------

    def inject(self, spec: FaultSpec) -> List[int]:
        """Validate and apply a fault; returns the affected OSD ids."""
        self.validate(spec)
        if spec.level == "corrupt":
            pg, obj, shards, rng = self._stripe_victims(spec)
            affected = []
            for shard in sorted(shards):
                osd_id = pg.acting[shard]
                host_id = self.cluster.topology.osds[osd_id].host_id
                self.workers[host_id].corrupt_chunk(
                    pg.pgid, obj.name, shard, spec.corruption, rng
                )
                affected.append(osd_id)
            # Corrupted OSDs stay up (the fault is silent), so they are
            # not added to injected_osds — crash faults may still target
            # them, and the stripe guard above bounds combined damage.
            return sorted(affected)
        if spec.level == "byz_corrupt_data":
            pg, obj, shards, rng = self._stripe_victims(spec)
            state = ensure_byzantine(self.cluster)
            affected = []
            now = self.cluster.env.now
            for shard in sorted(shards):
                osd_id = pg.acting[shard]
                host_id = self.cluster.topology.osds[osd_id].host_id
                self.workers[host_id].byz_corrupt_chunk(
                    pg.pgid, obj.name, shard, osd_id, rng
                )
                state.add_corrupt(osd_id, pg.pgid, obj.name, shard, now)
                affected.append(osd_id)
            # Like honest corruption: the daemon stays up and the fault
            # is silent, so nothing joins injected_osds — the stripe
            # guard bounds combined damage instead.
            return sorted(affected)
        if spec.level == "byz_false_ack":
            pg, obj, shards, rng = self._stripe_victims(spec)
            state = ensure_byzantine(self.cluster)
            affected = []
            now = self.cluster.env.now
            for shard in sorted(shards):
                osd_id = pg.acting[shard]
                host_id = self.cluster.topology.osds[osd_id].host_id
                self.workers[host_id].byz_false_ack(
                    pg.pgid, obj.name, shard
                )
                state.add_false_ack(osd_id, pg.pgid, obj.name, shard, now)
                affected.append(osd_id)
            return sorted(affected)
        if spec.level == "byz_stale_map":
            liars = self._select_byz_liars(spec)
            state = ensure_byzantine(self.cluster)
            affected = []
            now = self.cluster.env.now
            # Capture the previous epoch once: every liar gossips the
            # same old map, as if they all missed the same incremental.
            stale_epoch = max(0, self.cluster.monitor.osdmap_epoch - 1)
            for osd_id in sorted(liars):
                host_id = self.cluster.topology.osds[osd_id].host_id
                self.workers[host_id].byz_stale_map(osd_id, stale_epoch)
                state.add_stale_map(osd_id, stale_epoch, now)
                affected.append(osd_id)
                # Misrouted ops make the liar's shards unreliable until
                # the monitor pushes a fresh map: budgeted like a flap.
                self.injected_osds.add(osd_id)
            return sorted(affected)
        # injected_osds is updated per target as each fault lands, not in
        # one batch after the loop: if a multi-target inject dies half-way
        # (bad explicit target, missing subsystem), the OSDs already taken
        # down must still count against the tolerance budget — otherwise a
        # later validate() under-counts live damage and can authorise a
        # fault combination that exceeds the code's guarantee.
        if spec.level == "slow_device":
            devices = self._select_slow_devices(spec)
            affected = []
            for osd_id in devices:
                host_id = self.cluster.topology.osds[osd_id].host_id
                self.workers[host_id].slow_device(osd_id, spec.factor)
                affected.append(osd_id)
                self.slowed_osds.add(osd_id)
            return sorted(affected)
        if spec.level == "node":
            hosts = self._select_hosts(spec)
            affected: List[int] = []
            for host_id in hosts:
                self.workers[host_id].shutdown_node()
                host_osds = self.cluster.topology.hosts[host_id].osd_ids
                affected.extend(host_osds)
                self.injected_osds |= set(host_osds)
        elif spec.level == "net_degrade":
            hosts = self._select_hosts(spec)
            degradation = spec.net_degradation()
            affected = []
            for host_id in hosts:
                self.workers[host_id].degrade_network(degradation)
                host_osds = self.cluster.topology.hosts[host_id].osd_ids
                affected.extend(host_osds)
                self.injected_osds |= set(host_osds)
        elif spec.level == "region_outage":
            regions = self._select_regions(spec)
            affected = []
            for region in regions:
                for host in sorted(
                    self.cluster.topology.hosts_in_region(region),
                    key=lambda h: h.host_id,
                ):
                    self.workers[host.host_id].shutdown_node()
                    affected.extend(host.osd_ids)
                    self.injected_osds |= set(host.osd_ids)
        elif spec.level == "correlated_crash":
            buckets = self._select_correlated_buckets(spec)
            affected = []
            for bucket in sorted(buckets):
                # The shared switch/PDU dies: every host in the bucket
                # goes down as one event, not a staggered sequence.
                hosts = sorted(
                    {
                        self.cluster.topology.osds[osd_id].host_id
                        for osd_id in self.cluster.topology.osds_in_bucket(
                            bucket, spec.domain
                        )
                    }
                )
                for host_id in hosts:
                    self.workers[host_id].shutdown_node()
                    host_osds = self.cluster.topology.hosts[host_id].osd_ids
                    affected.extend(host_osds)
                    self.injected_osds |= set(host_osds)
        elif spec.level == "wan_partition":
            regions = self._select_regions(spec)
            wan = self.cluster.topology.wan
            affected = []
            for region in regions:
                wan.partition_region(region)
                self.partitioned_regions.add(region)
                # Hosts behind a severed uplink stay up, but their
                # shards are unreachable for cross-region repair — they
                # count against the tolerance budget like a partition.
                for host in self.cluster.topology.hosts_in_region(region):
                    affected.extend(host.osd_ids)
                    self.injected_osds |= set(host.osd_ids)
        elif spec.level == "flap":
            devices = self._select_devices(spec)
            affected = []
            for osd_id in devices:
                host_id = self.cluster.topology.osds[osd_id].host_id
                # One seeded stream per target keeps flap phasing
                # deterministic and independent across OSDs.
                self.workers[host_id].start_flap(
                    osd_id, spec.flap_interval, self.seeds.stream(f"flap-{osd_id}")
                )
                affected.append(osd_id)
                self.injected_osds.add(osd_id)
        else:
            devices = self._select_devices(spec)
            affected = []
            for osd_id in devices:
                host_id = self.cluster.topology.osds[osd_id].host_id
                self.workers[host_id].remove_device(osd_id)
                affected.append(osd_id)
                self.injected_osds.add(osd_id)
        return sorted(affected)

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
