"""The Controller — ECFault's top-level component (§3, Figure 1).

A Controller binds the three sub-modules the paper names — the EC
Manager (an :class:`~repro.core.profile.ExperimentProfile`), the Fault
Injector, and the Coordinator — to one deployed target DSS.  Building a
Controller from a profile stands up the whole stack: simulation
environment, cluster, per-host Workers with NVMe-oF provisioned disks,
loggers, and the log bus.
"""

from __future__ import annotations

from typing import Dict

from ..sim import Environment
from ..sim.rng import SeedSequence
from .coordinator import Coordinator
from .fault_injector import FaultInjector
from .logbus import LogBus
from .profile import ExperimentProfile
from .worker import Worker, deploy_workers

__all__ = ["Controller"]


class Controller:
    """One experiment's control plane over one target DSS instance.

    Controllers are single-use: a fault-injection experiment mutates the
    cluster (failed devices, remapped PGs), so the Coordinator runs one
    cycle and each run of a sweep builds a fresh Controller — exactly
    how the real framework tears down and redeploys between profile runs.
    """

    def __init__(self, profile: ExperimentProfile, seed: int = 0):
        self.profile = profile
        self.seeds = SeedSequence(seed)
        self.env = Environment()
        self.cluster = profile.build_cluster(
            self.env, self.seeds.stream("crush").randrange(2**31)
        )
        # The fabric's drop lottery draws only while a net_degrade fault
        # is active; seeding it here makes degraded runs reproducible
        # per experiment seed without touching healthy-run determinism.
        self.cluster.topology.fabric.rng = self.seeds.stream("fabric")
        self.workers: Dict[int, Worker] = deploy_workers(self.cluster)
        self.bus = LogBus()
        self.fault_injector = FaultInjector(self.cluster, self.workers, self.seeds)
        self.coordinator = Coordinator(
            self.cluster, self.fault_injector, self.bus, self.seeds
        )
