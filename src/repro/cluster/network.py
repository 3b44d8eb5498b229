"""Host NIC and fabric model.

Each host owns a full-duplex NIC modelled as two service centers (egress
and ingress).  A transfer charges the sender's egress, the receiver's
ingress, and a fixed propagation latency; intra-host transfers are free
(loopback), which is how the failure-locality effects of Figure 2d enter
the simulation — recovery flows that fan into a single surviving host
serialise on that host's ingress.

Gray failures enter here too: a NIC can carry a
:class:`NetDegradation` — packet-loss probability, extra latency, a
bandwidth penalty, or a full partition — and every transfer touching a
degraded endpoint pays for it (``net_degrade`` fault level).  Transfers
through a partitioned or lossy NIC fail with
:class:`NetworkPartitionedError` / :class:`TransferDroppedError`, which
the client and recovery retry machinery catch and back off on.  When no
endpoint is degraded the fast path is byte-identical to the healthy
model — no RNG draws, no extra events — so baseline experiments stay
deterministic across versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..sim import Chain, Environment, Event, ServiceCenter

__all__ = [
    "NicSpec",
    "M5_NIC",
    "NetDegradation",
    "Nic",
    "Fabric",
    "TransferDroppedError",
    "NetworkPartitionedError",
]


class TransferDroppedError(RuntimeError):
    """A transfer was lost to packet loss on a degraded link."""


class NetworkPartitionedError(TransferDroppedError):
    """A transfer touched a fully partitioned host."""


@dataclass(frozen=True)
class NicSpec:
    """Static NIC envelope."""

    name: str
    bandwidth: float  # bytes/second each direction
    latency: float  # seconds one-way
    message_overhead: float  # seconds per message (protocol processing)

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def wire_time(self, nbytes: float, bandwidth_penalty: float = 1.0) -> float:
        """Serialisation time of one ``nbytes`` message through this NIC.

        The per-message overhead plus the bytes at the NIC's bandwidth
        divided by ``bandwidth_penalty`` (a degradation's divisor).
        """
        if nbytes < 0:
            raise ValueError("negative byte count")
        return self.message_overhead + nbytes / (self.bandwidth / bandwidth_penalty)


#: m5.xlarge guests see ~10 Gb/s sustained to the 25 Gb fabric the paper
#: cites; 1.25e9 B/s with a light per-message cost.
M5_NIC = NicSpec(
    name="m5-10g",
    bandwidth=1.25e9,
    latency=0.0002,
    message_overhead=0.00005,
)


@dataclass(frozen=True)
class NetDegradation:
    """Gray-failure state of one NIC (the ``net_degrade`` fault payload).

    ``loss`` is the per-transfer drop probability, ``latency`` an extra
    one-way propagation delay, ``bandwidth_penalty`` a divisor on
    effective throughput, and ``partition`` isolates the host entirely
    (every non-loopback transfer fails).
    """

    loss: float = 0.0
    latency: float = 0.0
    bandwidth_penalty: float = 1.0
    partition: bool = False

    def __post_init__(self):
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be in [0, 1], got {self.loss}")
        if self.latency < 0.0:
            raise ValueError("extra latency must be non-negative")
        if self.bandwidth_penalty < 1.0:
            raise ValueError(
                f"bandwidth penalty must be >= 1.0, got {self.bandwidth_penalty}"
            )
        if not (self.partition or self.loss > 0.0 or self.latency > 0.0
                or self.bandwidth_penalty > 1.0):
            raise ValueError("degradation must degrade something")


class Nic:
    """One host's network interface: independent egress/ingress queues."""

    def __init__(self, env: Environment, spec: NicSpec, name: str = ""):
        self.env = env
        self.spec = spec
        self.name = name or spec.name
        self.egress = ServiceCenter(env, servers=1, name=f"{self.name}:tx")
        self.ingress = ServiceCenter(env, servers=1, name=f"{self.name}:rx")
        self.sent_bytes = 0
        self.received_bytes = 0
        #: Active gray degradation, or None when the NIC is healthy.
        self.degradation: Optional[NetDegradation] = None

    def degrade(self, degradation: NetDegradation) -> None:
        """Apply a gray network fault to this NIC (net_degrade level)."""
        self.degradation = degradation

    def restore_network(self) -> None:
        """Clear any gray degradation (fault restore)."""
        self.degradation = None

    @property
    def partitioned(self) -> bool:
        return self.degradation is not None and self.degradation.partition

    def wire_time(self, nbytes: int) -> float:
        if self.degradation is None:
            return self.spec.wire_time(nbytes)
        return self.spec.wire_time(nbytes, self.degradation.bandwidth_penalty)


class _Transfer(Chain):
    """One transfer in flight: the event its sender waits on.

    Its steps are the route at the start hop, the egress job's
    completion, the propagation delay's timed entry and the ingress
    job's completion, each placed where a process running the same
    sequence would resume (see :class:`~repro.sim.engine.Chain`).
    """

    __slots__ = ("fabric", "src", "dst", "nbytes", "loss", "delay")

    def __init__(self, fabric: "Fabric", src: Nic, dst: Nic, nbytes: int):
        super().__init__(fabric.env)
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.start(self._route)

    def _route(self, _arg) -> None:
        if self.src is self.dst:
            # Loopback: no NIC time, a token cost for the software path.
            self.sleep(self.src.spec.message_overhead, self.succeed)
            return
        self._charge_hop(0.0)

    def _charge_hop(self, wan_latency: float) -> None:
        """The one-hop charge sequence shared with the WAN fabric.

        Every non-loopback transfer — intra-region or not — pays exactly
        this sequence: partition check, sender egress, propagation, loss
        lottery, receiver ingress.  ``wan_latency`` lets a wrapping
        fabric add propagation delay without duplicating the charge
        logic (one NIC pair is still one hop, not one hop per NIC).
        """
        src, dst, nbytes = self.src, self.dst, self.nbytes
        if src.partitioned or dst.partitioned:
            self.fabric.partition_refusals += 1
            # The sender only learns by timeout; charge one propagation
            # delay before failing so detection is not instantaneous.
            self.sleep(src.spec.latency, self.fail, NetworkPartitionedError(
                f"transfer {src.name} -> {dst.name} crossed a partition"
            ))
            return
        loss = 0.0
        extra_latency = 0.0
        for nic in (src, dst):
            if nic.degradation is not None:
                loss = 1.0 - (1.0 - loss) * (1.0 - nic.degradation.loss)
                extra_latency += nic.degradation.latency
        src.sent_bytes += nbytes
        try:
            service = src.wire_time(nbytes)
        except ValueError as exc:
            self.fail(exc)
            return
        self.loss = loss
        self.delay = src.spec.latency + extra_latency + wan_latency
        self.wait(src.egress.request(service), self._sent)

    def _sent(self, _job) -> None:
        self.sleep(self.delay, self._arrived)

    def _arrived(self, _arg) -> None:
        src, dst, loss = self.src, self.dst, self.loss
        if loss > 0.0 and self.fabric.rng.random() < loss:
            # The sender burned its egress time for nothing; the
            # receiver never sees the bytes.
            self.fabric.drops += 1
            self.fail(TransferDroppedError(
                f"transfer {src.name} -> {dst.name} dropped "
                f"(loss={loss:.3f})"
            ))
            return
        dst.received_bytes += self.nbytes
        self.wait(dst.ingress.request(dst.wire_time(self.nbytes)), self._received)

    def _received(self, _job) -> None:
        """The receiver's ingress served the bytes: delivered."""
        self.succeed()


class Fabric:
    """The switch connecting all hosts; assumed non-blocking.

    The paper's testbed is a single 25 Gb AWS network; host NICs are the
    bottleneck, so the fabric itself only adds propagation latency.

    Packet loss is drawn from ``rng`` (reseedable by the Controller);
    the stream is consumed *only* while a degradation is active, so
    healthy runs never touch it and stay byte-identical.
    """

    #: What :meth:`transfer` builds: the transfer's steps, which a
    #: wrapping fabric extends.
    _transfer_type = _Transfer

    def __init__(self, env: Environment, rng: Optional[random.Random] = None):
        self.env = env
        self.transfers = 0
        self.drops = 0
        self.partition_refusals = 0
        self.rng = rng if rng is not None else random.Random(0)

    def transfer(self, src: Nic, dst: Nic, nbytes: int) -> Event:
        """Move ``nbytes`` from src host to dst host; fires on delivery.

        On a degraded path the event *fails* with
        :class:`TransferDroppedError` (loss) or
        :class:`NetworkPartitionedError` (partition) — the exception is
        raised at the waiter's ``yield``.  A negative ``nbytes`` between
        two hosts fails it with :class:`ValueError`.
        """
        self.transfers += 1
        return self._transfer_type(self, src, dst, nbytes)
