"""Gray-failure experiments: degrade the DSS, measure what clients pay.

Crash experiments (:func:`~repro.core.experiment.run_experiment`) ask
"how long until redundancy is restored?".  Gray experiments ask the
*other* question the paper's fault axis leaves open: what do slow disks,
flaky networks, and flapping daemons cost while the cluster is neither
healthy nor failed — and how much do the defenses (flap dampening, op
timeouts, retry/backoff, hedged reads) buy back?

:func:`run_gray_experiment` is a preset of the experiment cycle's
restore timing (:func:`~repro.tenancy.experiment.run_tenant_experiment`)
with one open-loop client stream: the legacy-equivalent tenant fleet.
Its :class:`~repro.core.coordinator.ExperimentOutcome` carries the
client's latency samples and defense counters, the monitor's dampening
counters, the flap timeline, and a canonical digest that is
byte-identical across same-seed runs — the determinism contract the
examples assert.
"""

from __future__ import annotations

from typing import Sequence

from ..workload.generator import Workload
from .coordinator import ExperimentOutcome
from .fault_injector import FaultSpec
from .profile import ExperimentProfile

__all__ = ["run_gray_experiment"]


def run_gray_experiment(
    profile: ExperimentProfile,
    workload: Workload,
    faults: Sequence[FaultSpec],
    seed: int = 0,
    warmup: float = 50.0,
    fault_duration: float = 600.0,
    load_interval: float = 2.0,
    settle_time: float = 20_000.0,
    write_fraction: float = 0.0,
    rmw_fraction: float = 0.5,
) -> ExperimentOutcome:
    """Run one gray-failure cycle with a single client stream.

    One op every ``load_interval`` seconds runs for ``fault_duration``
    seconds while the faults are active; ``write_fraction`` of the ops
    are writes (``rmw_fraction`` of those partial-stripe RMWs).
    Defenses are configured through ``profile.ceph``
    (``client_op_timeout``, ``client_hedge_delay``, retry knobs); all of
    them default off.
    """
    # The tenancy package imports the core stack: resolve it at call time.
    from ..tenancy import TenantFleetSpec, run_tenant_experiment

    fleet = TenantFleetSpec.legacy(load_interval, write_fraction, rmw_fraction)
    return run_tenant_experiment(
        profile, workload, fleet, faults, seed=seed, warmup=warmup,
        fault_duration=fault_duration, settle_time=settle_time,
    )
