"""Workers — ECFault's per-node agents (§3).

One Worker runs on every DataNode of the target DSS and does two things:

* **Virtual disk provisioning**: creates NVMe subsystems on the node's
  NVMe-oF target and connects them to the local OSDs, replacing physical
  disks so device state is under framework control (§3.1).
* **DSS manipulation**: applies the faults the Controller requests —
  shutting the node down (node-level fault), removing an NVMe subsystem
  (device-level fault), or degrading the node *without* killing it
  (gray faults: slow device, lossy/partitioned network, flapping
  daemon) — and restores state afterwards (§3.2).
"""

from __future__ import annotations

import random
from typing import Dict, Generator, List

from ..cluster.ceph import CephCluster
from ..cluster.network import NetDegradation
from ..cluster.nvme import NvmeSubsystem, NvmeTarget, default_nqn
from ..sim import Interrupt

__all__ = ["Worker", "deploy_workers"]


class Worker:
    """ECFault agent on one DataNode (OSD host)."""

    def __init__(self, cluster: CephCluster, host_id: int):
        self.cluster = cluster
        self.host = cluster.topology.hosts[host_id]
        self.target = NvmeTarget(self.host.name)
        self.log = cluster.host_logs[host_id]
        self._removed: Dict[int, NvmeSubsystem] = {}
        self._was_shutdown = False
        #: Gray-fault state this worker applied (rolled back by restore).
        self._slowed: Dict[int, float] = {}
        self._flapping: Dict[int, object] = {}
        self._net_degraded = False

    # -- provisioning (§3.1) --------------------------------------------------------

    def provision_disks(self) -> List[str]:
        """Export each OSD's backing disk via NVMe-oF and attach it.

        Returns the NQNs created.  Idempotent per host: provisioning an
        already-provisioned host raises, mirroring nvmetcli behaviour.
        """
        nqns: List[str] = []
        for index, osd_id in enumerate(self.host.osd_ids):
            nqn = default_nqn(self.host.name, index)
            disk = self.cluster.topology.osds[osd_id].disk
            self.target.create_subsystem(nqn, disk)
            self.target.connect(nqn, osd_id)
            nqns.append(nqn)
        self.log.emit(
            self.cluster.env.now, "client",
            "provisioned virtual NVMe namespaces", count=len(nqns),
        )
        return nqns

    def nqn_of(self, osd_id: int) -> str:
        """The NQN currently backing an OSD on this host."""
        for nqn, subsystem in self.target.subsystems.items():
            if subsystem.attached_osd == osd_id:
                return nqn
        raise KeyError(f"osd.{osd_id} has no attached subsystem on {self.host.name}")

    # -- fault application (§3.2) ------------------------------------------------------

    def shutdown_node(self) -> None:
        """Node-level fault: stop every daemon on this host."""
        for osd_id in self.host.osd_ids:
            self.cluster.osds[osd_id].host_running = False
        self._was_shutdown = True
        self.log.emit(self.cluster.env.now, "client", "node shutdown requested")

    def remove_device(self, osd_id: int) -> None:
        """Device-level fault: tear down the OSD's NVMe subsystem."""
        nqn = self.nqn_of(osd_id)
        subsystem = self.target.remove_subsystem(nqn)
        self._removed[osd_id] = subsystem
        self.log.emit(
            self.cluster.env.now, "client",
            "removed NVMe subsystem", nqn=nqn, osd=f"osd.{osd_id}",
        )

    def corrupt_chunk(
        self, pgid: str, object_name: str, shard: int, model: str, rng
    ) -> int:
        """Corruption-level fault: silently damage one stored chunk.

        Unlike node/device faults this leaves the daemon up and
        heartbeating — nothing in the cluster notices until a deep scrub
        re-reads the chunk and its crc32c fails.  Returns the number of
        checksum blocks damaged.  :meth:`restore` deliberately does *not*
        heal corruption: only a scrub repair can.
        """
        blocks = self.cluster.integrity.corrupt(
            pgid, object_name, shard, model, rng
        )
        self.log.emit(
            self.cluster.env.now, "client", "silent corruption injected",
            pg=pgid, shard=shard, model=model, blocks=blocks,
        )
        return blocks

    # -- Byzantine faults (lie, don't die) ---------------------------------------------

    def byz_corrupt_chunk(
        self, pgid: str, object_name: str, shard: int, osd_id: int, rng
    ) -> int:
        """Byzantine fault: rewrite a chunk *and* forge its local crc32c.

        Unlike :meth:`corrupt_chunk`, the stored checksums match the
        wrong bytes, so a local verify passes — only a deep-scrub
        EC-decode cross-check against the shard's peers can reveal the
        lie.  Returns the number of checksum blocks rewritten.
        :meth:`restore` never heals this: scrub repair does.
        """
        blocks = self.cluster.integrity.corrupt_byzantine(
            pgid, object_name, shard, rng
        )
        # Forge the OSD-local stored checksums to match the lie, so the
        # scrub's per-chunk verify stays green (data plane only — the
        # model plane tracks the forgery inside the integrity store).
        forged = self.cluster.integrity.actual_checksums(
            pgid, object_name, shard
        )
        if forged is not None:
            self.cluster.osds[osd_id].backend.put_chunk_checksums(
                (pgid, object_name, shard), forged
            )
        self.log.emit(
            self.cluster.env.now, "client",
            "byzantine corruption injected (checksum forged)",
            pg=pgid, shard=shard, blocks=blocks,
        )
        return blocks

    def byz_false_ack(self, pgid: str, object_name: str, shard: int) -> None:
        """Byzantine fault: the shard's write was acked but never applied.

        Pure daemon-state lie — the pg_log claims a version the store
        does not hold; peering's version cross-check will expose it.
        """
        self.log.emit(
            self.cluster.env.now, "client",
            "byzantine false ack injected (version claim is a lie)",
            pg=pgid, object=object_name, shard=shard,
        )

    def byz_stale_map(self, osd_id: int, epoch: int) -> None:
        """Byzantine fault: the daemon gossips an old osdmap epoch."""
        self.log.emit(
            self.cluster.env.now, "client",
            "byzantine stale osdmap gossip started",
            osd=f"osd.{osd_id}", epoch=epoch,
        )

    # -- gray faults (degrade, don't kill) ---------------------------------------------

    def slow_device(self, osd_id: int, factor: float) -> None:
        """Gray fault: inflate one device's service times by ``factor``.

        The OSD stays up and heartbeating — the disk just limps, the way
        an NVMe device with a failing die or a saturated controller does.
        """
        if osd_id in self._slowed:
            raise ValueError(f"osd.{osd_id} is already slowed")
        nqn = self.nqn_of(osd_id)
        self.target.degrade_subsystem(nqn, factor)
        self._slowed[osd_id] = factor
        self.log.emit(
            self.cluster.env.now, "client", "nvme service degraded",
            nqn=nqn, osd=f"osd.{osd_id}", factor=factor,
        )

    def degrade_network(self, degradation: NetDegradation) -> None:
        """Gray fault: make this host's NIC lossy, slow, or partitioned."""
        if self._net_degraded:
            raise ValueError(f"{self.host.name} network is already degraded")
        self.host.nic.degrade(degradation)
        self._net_degraded = True
        self.log.emit(
            self.cluster.env.now, "client", "network degraded",
            host=self.host.name,
            loss=degradation.loss,
            latency=degradation.latency,
            bandwidth_penalty=degradation.bandwidth_penalty,
            partition=degradation.partition,
        )

    def start_flap(self, osd_id: int, interval: float, rng: random.Random) -> None:
        """Gray fault: oscillate one OSD daemon up/down until restored.

        Each half-period lasts ``interval * [0.5, 1.5)`` drawn from the
        injector's seeded per-target stream, so flap phasing is
        deterministic per seed but not synchronised across targets.
        """
        if osd_id in self._flapping:
            raise ValueError(f"osd.{osd_id} is already flapping")
        if interval <= 0:
            raise ValueError(f"flap interval must be positive, got {interval}")
        self._flapping[osd_id] = self.cluster.env.process(
            self._flap_loop(osd_id, interval, rng)
        )

    def _flap_loop(self, osd_id: int, interval: float, rng: random.Random) -> Generator:
        osd = self.cluster.osds[osd_id]
        try:
            while True:
                osd.daemon_up = False
                self.log.emit(
                    self.cluster.env.now, "client", "osd daemon flapped down",
                    osd=osd.name,
                )
                yield self.cluster.env.timeout(interval * (0.5 + rng.random()))
                osd.daemon_up = True
                self.log.emit(
                    self.cluster.env.now, "client", "osd daemon flapped up",
                    osd=osd.name,
                )
                yield self.cluster.env.timeout(interval * (0.5 + rng.random()))
        except Interrupt:
            # restore() stops the oscillation.  Re-raise the daemon here
            # too, not just in restore(): when the inject and the restore
            # land at the same sim instant, this loop's first down-phase
            # runs *after* restore() already set daemon_up — without
            # this, the interrupt would strand the daemon down forever.
            osd.daemon_up = True
            return

    def restore(self) -> None:
        """Undo all faults this worker applied (experiment teardown).

        Idempotent: restores only what this worker recorded applying, and
        forgets each fault as it is rolled back, so calling twice (or
        after a partially-applied inject) never double-restores.
        """
        if self._was_shutdown:
            for osd_id in self.host.osd_ids:
                self.cluster.osds[osd_id].host_running = True
            self._was_shutdown = False
        for osd_id, subsystem in list(self._removed.items()):
            if subsystem.nqn not in self.target.subsystems:
                self.target.restore_subsystem(subsystem)
            del self._removed[osd_id]
        for osd_id in list(self._slowed):
            self.target.restore_subsystem_speed(self.nqn_of(osd_id))
            del self._slowed[osd_id]
        for osd_id, proc in list(self._flapping.items()):
            proc.interrupt()
            self.cluster.osds[osd_id].daemon_up = True
            del self._flapping[osd_id]
        if self._net_degraded:
            self.host.nic.restore_network()
            self._net_degraded = False


def deploy_workers(cluster: CephCluster) -> Dict[int, Worker]:
    """Stand up one Worker per OSD host and provision its disks."""
    workers = {host_id: Worker(cluster, host_id) for host_id in cluster.topology.hosts}
    for worker in workers.values():
        worker.provision_disks()
    return workers
