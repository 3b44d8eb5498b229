"""MON/MGR model: heartbeats, failure detection, and the down->out clock.

This is where the paper's *System Checking Period* (§4.3) comes from.
After a fault, nothing happens until peers stop seeing heartbeats
(``osd_heartbeat_grace``), the monitor marks the OSD **down**, and — the
dominant term — waits ``mon_osd_down_out_interval`` (600 s by default)
before marking it **out**, which finally changes the CRUSH map and lets
peering and recovery begin.  The monitor logs every step with the same
phrasing the paper's Figure 3 annotates, so the timeline analysis in
``repro.core.timeline`` can segment the recovery cycle from logs alone.

Two gray-failure mechanics live here:

* **Delivery-based detection** — an OSD is marked down after *silence*,
  not after a liveness probe: heartbeats from a partitioned or lossy
  host never arrive (``net_degrade``), so an up-but-unreachable daemon
  is detected exactly like a dead one.
* **Flap dampening** — an OSD marked down more than
  ``mon_osd_markdown_count`` times within ``mon_osd_markdown_period``
  is *pinned* down for ``mon_osd_markdown_pin`` seconds: the monitor
  ignores its heartbeats instead of thrashing osdmap epochs, the
  down->out clock keeps running, and the pin expires on its own so
  health always converges after the fault is restored.

Each OSD heartbeats with a deterministic seeded phase offset (not in
lockstep at t=0, k·interval), so grace-expiry ordering across OSDs is
realistic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..sim import Environment, Event
from ..sim.rng import SeedSequence
from .logs import NodeLog
from .network import Nic
from .osd import CephConfig, OsdDaemon

__all__ = ["Monitor"]


class Monitor:
    """The MON/MGR pair of the cluster (one host in the paper's testbed)."""

    def __init__(
        self,
        env: Environment,
        osds: Dict[int, OsdDaemon],
        config: CephConfig,
        log: Optional[NodeLog] = None,
        nics: Optional[Dict[int, Nic]] = None,
    ):
        self.env = env
        self.osds = osds
        self.config = config
        # `log if log is not None` — an empty NodeLog is falsy (__len__).
        self.log = log if log is not None else NodeLog("mon.0")
        #: Per-OSD NIC map for heartbeat delivery (None => always delivered).
        self.nics = nics
        self.last_heartbeat: Dict[int, float] = {i: 0.0 for i in osds}
        self.down_since: Dict[int, float] = {}
        self.out_osds: Set[int] = set()
        self.osdmap_epoch = 1
        #: Callbacks invoked with the set of newly-out OSDs.
        self.on_out: List[Callable[[Set[int]], None]] = []
        #: Callbacks invoked with the set of newly-in (rebooted) OSDs.
        self.on_in: List[Callable[[Set[int]], None]] = []
        #: Callbacks invoked when a *down* OSD is marked back up before
        #: the down->out interval elapsed — the transient-restart arc
        #: that triggers pg_log delta recovery instead of backfill.
        self.on_up: List[Callable[[Set[int]], None]] = []
        #: Last health status broadcast via :meth:`record_health`.
        self.health_status = "HEALTH_OK"
        #: Duck-typed ByzantineState reference, planted by
        #: ``ensure_byzantine``; None unless a Byzantine fault landed.
        self.byzantine = None
        #: Flap-dampening state: recent markdown timestamps per OSD and
        #: the pin expiry times, plus lifetime counters for digests.
        self.markdown_history: Dict[int, List[float]] = {}
        self.pinned_until: Dict[int, float] = {}
        self.markdowns_total = 0
        self.pins_total = 0
        #: Capacity backpressure: per-OSD capacity tier last observed on
        #: a monitor tick ("ok" / "nearfull" / "backfillfull" / "full"),
        #: used to log transitions once instead of every tick.
        self.capacity_state: Dict[int, str] = {}
        #: Cluster-wide write pause: True while any up OSD sits at or
        #: past ``mon_osd_full_ratio``.  Clients block on
        #: :meth:`write_gate` until the monitor observes usage back
        #: below the ratio and resumes.
        self.write_paused = False
        self.write_pauses_total = 0
        self._resume_event: Optional[Event] = None
        #: Each OSD's ``disk.used_bytes`` at its last capacity scan: the
        #: tier is a function of usage, so an unchanged disk keeps it.
        self._scanned_used: Dict[int, int] = {}
        #: OSDs whose last scan put them at the full tier.
        self._full_osds: Set[int] = set()
        #: OSD ids in order: heartbeats start, and the capacity scan
        #: walks them, in this order.
        self._osd_ids: List[int] = sorted(osds)
        # Deterministic per-OSD heartbeat phase: a seeded draw per OSD in
        # id order, bounded by the interval so the first beat lands well
        # inside the grace window.  Same cluster, same phases, always.
        phase_rng = SeedSequence(0).stream("hb-phase")
        self._phase: Dict[int, float] = {
            osd_id: phase_rng.uniform(0.0, config.osd_heartbeat_interval)
            for osd_id in self._osd_ids
        }
        # Consumed only while a lossy degradation is active, so healthy
        # runs never draw from it (baseline determinism).
        self._loss_rng = SeedSequence(0).stream("hb-loss")
        # Fixed-period work runs as kernel periodic groups: the beats of
        # every OSD are one group, each OSD's first beat at its phase;
        # the first tick lands one interval in.
        env.every_each(
            config.osd_heartbeat_interval, self._heartbeat,
            [(osd_id, self._phase[osd_id]) for osd_id in self._osd_ids],
        )
        env.every(config.mon_tick_interval, self._tick)

    # -- daemon-side heartbeats ---------------------------------------------------

    def _heartbeat(self, osd_id: int) -> None:
        """One OSD's beat: each OSD pings the monitor every interval while up.

        A quiet beat (no pin record, no down or out mark, no Byzantine
        state, a NIC without degradation) only records its arrival; any
        of those sends it down the full path.
        """
        osd = self.osds[osd_id]
        if not osd.is_up():
            return
        nic = self.nics.get(osd_id) if self.nics is not None else None
        if (
            (nic is None or nic.degradation is None)
            and self.byzantine is None
            and osd_id not in self.pinned_until
            and osd_id not in self.down_since
            and osd_id not in self.out_osds
        ):
            self.last_heartbeat[osd_id] = self.env.now
            return
        if not self._heartbeat_delivered(osd_id):
            return
        if self.byzantine is not None and self.byzantine.gossiping_stale(osd_id):
            # Epoch-mismatch rejection: the heartbeat carries an osdmap
            # epoch older than the monitor's.  The beat still proves the
            # daemon alive, but the monitor rejects the stale gossip and
            # pushes a fresh map — which ends the lie (detection via the
            # epoch path).
            claimed = self.byzantine.claimed_epoch(osd_id)
            self.byzantine.on_epoch_rejection(osd_id, self.env.now)
            self.log.emit(
                self.env.now, "mon",
                "stale osdmap epoch in heartbeat, "
                "rejecting gossip and pushing fresh map",
                osd=osd.name, claimed=claimed, epoch=self.osdmap_epoch,
            )
        self.last_heartbeat[osd_id] = self.env.now
        if osd_id in self.pinned_until:
            if self.is_pinned(osd_id):
                # Dampened: the monitor no longer believes this OSD's
                # heartbeats until the pin expires.
                return
            # A dampening pin ran out with the daemon healthy: the rejoin
            # is an osdmap event, not a silent one — the timeline band
            # and the chaos engine both key off this transition.
            del self.pinned_until[osd_id]
            self.osdmap_epoch += 1
            self.log.emit(
                self.env.now, "mon", "flap pin expired, osd rejoining",
                osd=osd.name, epoch=self.osdmap_epoch,
            )
        if osd_id in self.down_since:
            del self.down_since[osd_id]
            self.log.emit(
                self.env.now, "mon", "osd boot: marking up", osd=osd.name,
            )
            for callback in self.on_up:
                callback({osd_id})
        if osd_id in self.out_osds:
            self._mark_in(osd_id)

    def _heartbeat_delivered(self, osd_id: int) -> bool:
        """Did this beat cross the host's (possibly degraded) NIC?"""
        if self.nics is None:
            return True
        nic = self.nics.get(osd_id)
        if nic is None or nic.degradation is None:
            return True
        if nic.degradation.partition:
            return False
        loss = nic.degradation.loss
        if loss <= 0.0:
            return True
        return self._loss_rng.random() >= loss

    def _mark_in(self, osd_id: int) -> None:
        """An auto-marked-out OSD that boots is marked in again.

        Mirrors Ceph's ``mon_osd_auto_mark_auto_out_in`` default: after a
        fault is restored, the rebooted OSD rejoins the map, which is what
        lets cluster health converge back to HEALTH_OK after an
        experiment's restore phase.
        """
        self.out_osds.discard(osd_id)
        self.osdmap_epoch += 1
        self.log.emit(
            self.env.now, "mon", "osd boot: marking in",
            osd=self.osds[osd_id].name, epoch=self.osdmap_epoch,
        )
        for callback in self.on_in:
            callback({osd_id})

    # -- monitor tick: detection and the down->out interval -------------------------

    def _tick(self, _arg: None = None) -> None:
        self._check_failures()
        self._check_down_out()
        # Capacity backpressure piggybacks on the same tick (no extra
        # timer, so the event interleaving of pre-cascade runs is
        # untouched).
        self._check_capacity()

    def _check_failures(self) -> None:
        now = self.env.now
        grace = self.config.osd_heartbeat_grace
        down_since, out_osds = self.down_since, self.out_osds
        last_heartbeat = self.last_heartbeat
        for osd_id, osd in self.osds.items():
            if osd_id in down_since or osd_id in out_osds:
                continue
            silent_for = now - last_heartbeat[osd_id]
            if silent_for > grace:
                down_since[osd_id] = now
                self.osdmap_epoch += 1
                self.markdowns_total += 1
                self.log.emit(
                    now,
                    "mon",
                    "no heartbeats from osd, marking down",
                    osd=osd.name,
                    epoch=self.osdmap_epoch,
                    silent=round(silent_for, 1),
                )
                self.log.emit(
                    now, "mgr", "receiving heartbeats from surviving osds",
                    waiting=len(down_since),
                )
                self._note_markdown(osd_id, now)

    def _note_markdown(self, osd_id: int, now: float) -> None:
        """Track markdown frequency and pin a flapping OSD down.

        The markdown budget (count within period) consumed, the OSD is
        pinned: its heartbeats are disbelieved for ``pin`` seconds so
        the down->out clock runs to completion instead of resetting on
        every flap-up.  The history is cleared on pin, so re-pinning
        needs a fresh burst of markdowns.
        """
        history = self.markdown_history.setdefault(osd_id, [])
        history.append(now)
        cutoff = now - self.config.mon_osd_markdown_period
        while history and history[0] < cutoff:
            history.pop(0)
        if len(history) >= self.config.mon_osd_markdown_count:
            self.pinned_until[osd_id] = now + self.config.mon_osd_markdown_pin
            self.pins_total += 1
            self.log.emit(
                now, "mon", "flapping osd pinned down",
                osd=self.osds[osd_id].name,
                markdowns=len(history),
                pin=self.config.mon_osd_markdown_pin,
            )
            history.clear()

    def _check_down_out(self) -> None:
        now = self.env.now
        newly_out: Set[int] = set()
        for osd_id, since in list(self.down_since.items()):
            if now - since >= self.config.mon_osd_down_out_interval:
                del self.down_since[osd_id]
                self.out_osds.add(osd_id)
                newly_out.add(osd_id)
                self.osdmap_epoch += 1
                self.log.emit(
                    now,
                    "mon",
                    "marking osd out after down interval",
                    osd=self.osds[osd_id].name,
                    epoch=self.osdmap_epoch,
                )
        if newly_out:
            self.log.emit(
                now, "mgr", "osdmap changed, checking recovery resources",
                out=len(self.out_osds),
            )
            for callback in self.on_out:
                callback(newly_out)

    # -- capacity backpressure --------------------------------------------------------

    def _check_capacity(self) -> None:
        """Per-OSD capacity tiers and the cluster-wide write pause.

        Runs on every monitor tick.  Tier *transitions* are logged once
        (OSD_NEARFULL / OSD_BACKFILLFULL / OSD_FULL style); the write
        pause engages while any up OSD sits at the full ratio and
        releases — waking every gated client write — once all up OSDs
        are back below it.  Only OSDs whose disk usage changed since
        their last scan are re-tiered; liveness is read for the full
        ones alone.
        """
        now = self.env.now
        capacity_tier = self.config.capacity_tier
        scanned, full = self._scanned_used, self._full_osds
        for osd_id in self._osd_ids:
            osd = self.osds[osd_id]
            used = osd.disk.used_bytes
            if scanned.get(osd_id) == used:
                continue
            scanned[osd_id] = used
            usage = osd.disk.usage_ratio
            tier = capacity_tier(usage)
            if tier == "full":
                full.add(osd_id)
            else:
                full.discard(osd_id)
            previous = self.capacity_state.get(osd_id, "ok")
            if tier == previous:
                continue
            self.capacity_state[osd_id] = tier
            if tier == "ok":
                self.log.emit(
                    now, "mon", "osd capacity back below nearfull",
                    osd=osd.name,
                )
            else:
                check = {
                    "nearfull": "OSD_NEARFULL",
                    "backfillfull": "OSD_BACKFILLFULL",
                    "full": "OSD_FULL",
                }[tier]
                self.log.emit(
                    now, "mon", f"{check}: osd capacity threshold crossed",
                    osd=osd.name,
                    usage=round(usage, 4),
                )
        any_full = any(self.osds[osd_id].is_up() for osd_id in full)
        if any_full and not self.write_paused:
            self.write_paused = True
            self.write_pauses_total += 1
            self.log.emit(
                now, "mon",
                "osd(s) at full ratio, pausing client writes",
            )
        elif self.write_paused and not any_full:
            self.write_paused = False
            self.log.emit(
                now, "mon",
                "capacity recovered, resuming client writes",
            )
            resume = self._resume_event
            self._resume_event = None
            if resume is not None and not resume.triggered:
                resume.succeed()

    def write_gate(self) -> Optional[Event]:
        """The client-write admission gate.

        Returns ``None`` while writes are admitted (the common case —
        callers skip the yield entirely, keeping unpaused runs
        byte-identical to the pre-backpressure model) or an
        :class:`~repro.sim.Event` that fires when the monitor resumes
        writes after a full-ratio pause.
        """
        if not self.write_paused:
            return None
        if self._resume_event is None:
            self._resume_event = Event(self.env)
        return self._resume_event

    # -- health transitions (scrub / corruption subsystem) ---------------------------

    def record_health(self, status: str, reason: str) -> None:
        """Log a cluster-health transition (deduplicated on status).

        The scrub state machine drives the ``HEALTH_ERR -> HEALTH_WARN ->
        HEALTH_OK`` cycle through this hook as corruption is detected,
        repaired, and cleared; repeated reports of the current status are
        swallowed so the log shows transitions, not heartbeats.
        """
        if status == self.health_status:
            return
        self.health_status = status
        self.log.emit(
            self.env.now, "mon", f"cluster health now {status}", reason=reason
        )

    # -- queries -------------------------------------------------------------------

    def is_pinned(self, osd_id: int) -> bool:
        """Is this OSD's markdown currently dampening-pinned?"""
        return self.env.now < self.pinned_until.get(osd_id, float("-inf"))

    def active_pins(self) -> Dict[int, float]:
        """OSDs with a pin still in force (id -> expiry time)."""
        now = self.env.now
        return {
            osd_id: until
            for osd_id, until in self.pinned_until.items()
            if now < until
        }

    def is_out(self, osd_id: int) -> bool:
        return osd_id in self.out_osds
