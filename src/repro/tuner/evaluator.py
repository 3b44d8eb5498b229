"""Budget-accounted, memoising configuration evaluator.

The tuner's cost model is the simulation itself: evaluating a point at
:class:`Fidelity` ``(objects, runs)`` simulates ``objects * runs``
object-runs, and that product is what gets charged against the budget.
Low fidelity (few objects) is cheap and noisy; full fidelity is what the
exhaustive :class:`~repro.tuner.strategies.GridSearch` measures for the
same base seed.

Guarantees the strategies and the resume logic rely on:

* **Memoisation** — results are cached by ``(config signature,
  fidelity)``; a configuration is never simulated twice at one fidelity,
  and cache hits charge nothing.
* **Determinism** — the seed of each evaluation derives from the base
  seed alone, never from evaluation order, so any strategy path
  reaching a point measures the same floats.
* **Serial/parallel equivalence** — with ``workers > 1`` a batch runs
  through a :class:`~concurrent.futures.ProcessPoolExecutor` keyed by
  input order, so artifacts are byte-identical to a ``workers=1`` run.
* **Hard budget** — an evaluation that would overrun the budget raises
  :class:`BudgetExhaustedError` *before* simulating anything.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.ceph import CephCluster
from ..cluster.client import ClientLoadGenerator, RadosClient
from ..core.fault_injector import FaultSpec
from ..core.profile import ExperimentProfile
from ..core.sweep import SweepResult, run_cell
from ..sim import Environment
from ..sim.rng import SeedSequence
from ..tenancy.fleet import TenantFleet
from ..tenancy.spec import SloSpec, TenantFleetSpec, TenantSpec
from ..workload.generator import Workload
from .space import TuningSpace

__all__ = [
    "Fidelity",
    "ReadProbe",
    "TenantProbe",
    "Measurement",
    "BudgetExhaustedError",
    "Evaluator",
    "measure_degraded_p99",
    "measure_tenant_slo_p99",
]

MB = 1024 * 1024


class BudgetExhaustedError(RuntimeError):
    """The requested evaluation does not fit the remaining budget."""


@dataclass(frozen=True)
class Fidelity:
    """How much simulation one evaluation buys.

    ``cost`` — the budget charge — is ``objects * runs``: the number of
    simulated object-runs.  With ``backend="twin"`` the rung is served by
    the analytical twin (:mod:`repro.twin`) instead of the DES; twin
    evaluations are effectively free, so their cost is 0 and a
    twin-backed halving strategy charges the budget only on the DES
    rungs it promotes finalists to.
    """

    objects: int
    runs: int = 1
    label: str = ""
    backend: str = "des"

    def __post_init__(self):
        if self.objects < 1:
            raise ValueError("objects must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.backend not in ("des", "twin"):
            raise ValueError(f"backend must be 'des' or 'twin', got {self.backend!r}")

    @property
    def cost(self) -> int:
        if self.backend == "twin":
            return 0
        return self.objects * self.runs

    def key(self) -> str:
        """Cache-key identity (label excluded: it is cosmetic)."""
        # The backend suffix appears only for twin rungs so DES cache
        # keys — and resumed artifacts from pre-twin runs — are unchanged.
        base = f"objects={self.objects},runs={self.runs}"
        if self.backend != "des":
            base += f",backend={self.backend}"
        return base

    def to_dict(self) -> Dict[str, Any]:
        data = {"objects": self.objects, "runs": self.runs, "label": self.label}
        # Emitted only when analytical, keeping DES artifacts byte-stable.
        if self.backend != "des":
            data["backend"] = self.backend
        return data

    @classmethod
    def from_dict(cls, blob: Mapping[str, Any]) -> "Fidelity":
        return cls(
            objects=int(blob["objects"]),
            runs=int(blob["runs"]),
            label=str(blob.get("label", "")),
            backend=str(blob.get("backend", "des")),
        )


@dataclass(frozen=True)
class ReadProbe:
    """Settings for the degraded-read side measurement.

    When attached to an evaluator, every simulated point also runs a
    small fixed-size outage probe — ingest ``objects`` objects, fail one
    host, drive a :class:`ClientLoadGenerator` through the checking
    window — and records the degraded-read p99 latency.  The probe is
    fixed-scale on purpose: its cost does not depend on fidelity, so it
    is charged as ``cost`` extra object-runs per evaluation.
    """

    objects: int = 48
    object_size: int = 8 * MB
    window: float = 30.0
    interval: float = 0.25

    def __post_init__(self):
        if self.objects < 1 or self.object_size < 1:
            raise ValueError("probe objects and object_size must be positive")
        if self.window <= 0 or self.interval <= 0:
            raise ValueError("probe window and interval must be positive")

    @property
    def cost(self) -> int:
        return self.objects

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objects": self.objects,
            "object_size": self.object_size,
            "window": self.window,
            "interval": self.interval,
        }


@dataclass(frozen=True)
class TenantProbe:
    """Settings for the multi-tenant QoS side measurement.

    When attached to an evaluator, every simulated point also runs a
    fixed-scale tenancy probe: ingest ``objects`` objects, fail one
    host, and drive a QoS-enabled two-tenant fleet — a reserved
    latency-sensitive tenant beside a saturating batch tenant — through
    the outage window.  The recorded metric is the latency tenant's p99
    read latency, i.e. how well this configuration (with mClock
    arbitration on) protects an SLO tenant during recovery pressure.
    Like :class:`ReadProbe`, the probe is fixed-scale and charged as
    ``cost`` extra object-runs per evaluation.
    """

    objects: int = 32
    object_size: int = 4 * MB
    window: float = 40.0
    interval: float = 0.5
    #: The latency tenant's mClock reservation (share of each OSD).
    reservation: float = 0.2

    def __post_init__(self):
        if self.objects < 1 or self.object_size < 1:
            raise ValueError("probe objects and object_size must be positive")
        if self.window <= 0 or self.interval <= 0:
            raise ValueError("probe window and interval must be positive")
        if not 0.0 < self.reservation <= 0.3:
            raise ValueError("reservation must be in (0, 0.3]")

    @property
    def cost(self) -> int:
        return self.objects

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objects": self.objects,
            "object_size": self.object_size,
            "window": self.window,
            "interval": self.interval,
            "reservation": self.reservation,
        }


@dataclass(frozen=True)
class Measurement:
    """One evaluated configuration at one fidelity."""

    signature: str
    settings: Dict[str, Any]
    fidelity: Fidelity
    recovery_time: float
    checking_fraction: float
    wa_actual: float
    degraded_p99: Optional[float]
    cost: int
    #: The tenancy probe's metric: the reserved latency tenant's p99
    #: read latency during an outage with QoS arbitration on.  None when
    #: the evaluator carries no tenant probe.
    tenant_slo_p99: Optional[float] = None

    @property
    def label(self) -> str:
        params = ",".join(
            f"{k}={v}" for k, v in sorted(self.settings["ec_params"].items())
        )
        extras = [
            f"{name}={value}"
            for name, value in sorted(self.settings.items())
            if name not in ("ec_plugin", "ec_params")
        ]
        return "/".join([f"{self.settings['ec_plugin']}({params})"] + extras)

    def to_sweep_result(self) -> SweepResult:
        """Bridge to the sensitivity analysis (``rank_axes`` etc.)."""
        return SweepResult(
            label=self.label,
            settings=dict(self.settings),
            recovery_time=self.recovery_time,
            checking_fraction=self.checking_fraction,
            wa_actual=self.wa_actual,
            runs=self.fidelity.runs,
        )

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "signature": self.signature,
            "settings": self.settings,
            "fidelity": self.fidelity.to_dict(),
            "recovery_time": self.recovery_time,
            "checking_fraction": self.checking_fraction,
            "wa_actual": self.wa_actual,
            "degraded_p99": self.degraded_p99,
            "cost": self.cost,
        }
        # Pruned at None so artifacts from tenant-probe-free runs stay
        # byte-identical to the pre-tenancy schema.
        if self.tenant_slo_p99 is not None:
            data["tenant_slo_p99"] = self.tenant_slo_p99
        return data

    @classmethod
    def from_dict(cls, blob: Mapping[str, Any]) -> "Measurement":
        return cls(
            signature=blob["signature"],
            settings=dict(blob["settings"]),
            fidelity=Fidelity.from_dict(blob["fidelity"]),
            recovery_time=blob["recovery_time"],
            checking_fraction=blob["checking_fraction"],
            wa_actual=blob["wa_actual"],
            degraded_p99=blob["degraded_p99"],
            cost=int(blob["cost"]),
            tenant_slo_p99=blob.get("tenant_slo_p99"),
        )


def _probe_outage(
    profile: ExperimentProfile,
    probe: "ReadProbe | TenantProbe",
    seeds: SeedSequence,
    crush_stream: str,
) -> Tuple[Environment, CephCluster]:
    """A fresh cluster for a DES probe, with one data-holding host failed.

    CRUSH is seeded from the probe's own ``crush_stream``; the host
    holding PG 0's first shard goes down with the probe's objects in.
    """
    env = Environment()
    cluster = profile.build_cluster(
        env, seeds.stream(crush_stream).randrange(2**31)
    )
    for index in range(probe.objects):
        cluster.ingest_object(f"probe-{index}", probe.object_size)
    victim = cluster.topology.osds[cluster.pool.pgs[0].acting[0]].host_id
    for osd_id in cluster.topology.hosts[victim].osd_ids:
        cluster.osds[osd_id].host_running = False
    return env, cluster


def measure_degraded_p99(
    profile: ExperimentProfile, probe: ReadProbe, seed: int
) -> float:
    """Degraded-read p99 latency during the checking window.

    Builds a fresh cluster for ``profile``, ingests the probe's objects,
    fails one data-holding host, and drives an open-loop read load while
    the host is down-but-not-out.  Returns the p99 over degraded
    samples (over all samples if the load happened to dodge the outage).
    """
    seeds = SeedSequence(seed)
    env, cluster = _probe_outage(profile, probe, seeds, "tuner-probe-crush")
    generator = ClientLoadGenerator(
        RadosClient(cluster),
        interval=probe.interval,
        seeds=SeedSequence(seeds.stream("tuner-probe-load").randrange(2**31)),
    )
    env.run_until_process(generator.run_for(probe.window))
    stats = generator.stats
    if stats.degraded_count:
        return stats.latency_percentile(99, degraded=True)
    return stats.latency_percentile(99)


def measure_tenant_slo_p99(
    profile: ExperimentProfile, probe: TenantProbe, seed: int
) -> float:
    """A reserved SLO tenant's p99 read latency through an outage.

    Builds a fresh cluster for ``profile``, ingests the probe's objects,
    fails one data-holding host, and drives a QoS-enabled two-tenant
    fleet — a latency tenant holding ``probe.reservation`` of every OSD
    beside a saturating poisson batch writer — through the outage
    window.  Returns the latency tenant's p99 over all its reads: how
    well mClock protects the SLO tenant under this configuration.
    """
    seeds = SeedSequence(seed)
    env, cluster = _probe_outage(profile, probe, seeds, "tuner-tenant-crush")
    fleet_spec = TenantFleetSpec(
        tenants=(
            TenantSpec(
                name="latency",
                interval=probe.interval,
                reservation=probe.reservation,
                weight=4.0,
                slo=SloSpec(p99_latency=1.0),
            ),
            TenantSpec(
                name="batch",
                interval=probe.interval / 2,
                arrival="poisson",
                write_fraction=0.5,
                weight=1.0,
            ),
        ),
        qos_enabled=True,
    )
    fleet = TenantFleet(
        cluster,
        fleet_spec,
        seeds=SeedSequence(seeds.stream("tuner-tenant-load").randrange(2**31)),
    )
    env.run_until_process(fleet.run_for(probe.window))
    return fleet.tenants["latency"].load.stats.latency_percentile(99)


def _evaluate_item(
    args,
) -> Tuple[float, float, float, Optional[float], Optional[float]]:
    """One evaluation work item (module-level for process pools)."""
    (run_cell_fn, profile, object_size, faults, fidelity, probe,
     tenant_probe, seed) = args
    if fidelity.backend == "twin":
        # Analytical rung: same row shape and probe metrics, no DES.
        # Imported lazily so DES-only tuner runs never load the twin.
        from ..twin import (
            predict_degraded_p99,
            predict_tenant_slo_p99,
            twin_run_cell,
        )

        row = twin_run_cell(
            profile,
            Workload(num_objects=fidelity.objects, object_size=object_size),
            faults,
            fidelity.runs,
            seed,
        )
        degraded_p99 = (
            predict_degraded_p99(
                profile,
                objects=probe.objects,
                object_size=probe.object_size,
                interval=probe.interval,
            )
            if probe is not None
            else None
        )
        tenant_slo_p99 = (
            predict_tenant_slo_p99(
                profile,
                objects=tenant_probe.objects,
                object_size=tenant_probe.object_size,
                interval=tenant_probe.interval,
                reservation=tenant_probe.reservation,
            )
            if tenant_probe is not None
            else None
        )
        return (
            row.recovery_time,
            row.checking_fraction,
            row.wa_actual,
            degraded_p99,
            tenant_slo_p99,
        )
    row = run_cell_fn(
        profile,
        Workload(num_objects=fidelity.objects, object_size=object_size),
        faults,
        fidelity.runs,
        seed,
    )
    degraded_p99 = (
        measure_degraded_p99(profile, probe, seed) if probe is not None else None
    )
    tenant_slo_p99 = (
        measure_tenant_slo_p99(profile, tenant_probe, seed)
        if tenant_probe is not None
        else None
    )
    return (
        row.recovery_time,
        row.checking_fraction,
        row.wa_actual,
        degraded_p99,
        tenant_slo_p99,
    )


class Evaluator:
    """Runs points through the simulator under a budget, with memoisation.

    ``run_cell_fn`` defaults to the real single-cell simulation
    (:func:`repro.core.sweep.run_cell`); tests substitute a counting
    stub with the same signature.  ``on_result`` fires once per *fresh*
    measurement, in deterministic batch order — the artifact checkpoint
    hook.
    """

    def __init__(
        self,
        space: TuningSpace,
        *,
        object_size: int = 8 * MB,
        faults: Optional[Sequence[FaultSpec]] = None,
        base_seed: int = 0,
        budget: Optional[int] = None,
        workers: int = 1,
        probe: Optional[ReadProbe] = None,
        tenant_probe: Optional[TenantProbe] = None,
        run_cell_fn: Optional[Callable] = None,
        on_result: Optional[Callable[[Measurement], None]] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if object_size < 1:
            raise ValueError("object_size must be positive")
        self.space = space
        self.object_size = object_size
        self.faults = list(faults) if faults is not None else [FaultSpec(level="node")]
        self.base_seed = base_seed
        self.budget = budget
        self.workers = workers
        self.probe = probe
        self.tenant_probe = tenant_probe
        self.run_cell_fn = run_cell_fn or run_cell
        self.on_result = on_result
        #: Object-runs charged so far (restored from artifacts on resume).
        self.spent = 0
        #: Fresh simulations actually executed by *this* evaluator.
        self.simulations = 0
        self._cache: Dict[Tuple[str, str], Measurement] = {}

    # -- budget ---------------------------------------------------------------------

    @property
    def remaining(self) -> Optional[int]:
        """Object-runs left, or None when unbudgeted."""
        return None if self.budget is None else max(0, self.budget - self.spent)

    def cost_of(self, fidelity: Fidelity) -> int:
        """Budget charge for one fresh evaluation at ``fidelity``."""
        if fidelity.backend == "twin":
            # Analytical all the way down — the probes run through the
            # twin's closed forms too, so nothing hits the simulator.
            return 0
        return (
            fidelity.cost
            + (self.probe.cost if self.probe is not None else 0)
            + (self.tenant_probe.cost if self.tenant_probe is not None else 0)
        )

    def affords(self, count: int, fidelity: Fidelity) -> bool:
        """Whether ``count`` fresh evaluations fit the remaining budget."""
        if self.budget is None:
            return True
        return self.cost_of(fidelity) * count <= self.budget - self.spent

    # -- cache ----------------------------------------------------------------------

    def seed_cache(self, measurements: Sequence[Measurement]) -> None:
        """Preload prior results (resume path).  Charges nothing."""
        for measurement in measurements:
            key = (measurement.signature, measurement.fidelity.key())
            self._cache[key] = measurement

    def cached(self, point: Mapping[str, Any], fidelity: Fidelity) -> Optional[Measurement]:
        return self._cache.get((self.space.signature(point), fidelity.key()))

    # -- evaluation -----------------------------------------------------------------

    def evaluate_many(
        self, points: Sequence[Mapping[str, Any]], fidelity: Fidelity
    ) -> List[Measurement]:
        """Evaluate a batch; returns measurements in input order.

        The whole batch is admitted or refused atomically: if the
        uncached portion would overrun the budget, nothing is simulated
        and :class:`BudgetExhaustedError` is raised.
        """
        keys = [(self.space.signature(point), fidelity.key()) for point in points]
        todo: List[Tuple[Tuple[str, str], Mapping[str, Any]]] = []
        seen: set = set()
        for key, point in zip(keys, points):
            if key in self._cache or key in seen:
                continue
            seen.add(key)
            todo.append((key, point))
        charge = len(todo) * self.cost_of(fidelity)
        if self.budget is not None and self.spent + charge > self.budget:
            raise BudgetExhaustedError(
                f"evaluating {len(todo)} fresh point(s) at {fidelity.key()} "
                f"costs {charge} object-runs; only "
                f"{self.budget - self.spent} of {self.budget} remain"
            )
        items = [
            (
                self.run_cell_fn,
                self.space.to_profile(point),
                self.object_size,
                self.faults,
                fidelity,
                self.probe,
                self.tenant_probe,
                self.base_seed,
            )
            for _, point in todo
        ]
        with ExitStack() as stack:
            if self.workers == 1 or len(items) <= 1:
                raw = map(_evaluate_item, items)
            else:
                raw = stack.enter_context(
                    ProcessPoolExecutor(max_workers=self.workers)
                ).map(_evaluate_item, items)
            # raw is lazy: each result is cached, charged and reported
            # (progress, checkpoint) as its cell finishes.
            for (key, point), (recovery, fraction, wa, p99, tenant_p99) in zip(
                todo, raw
            ):
                measurement = Measurement(
                    signature=key[0],
                    settings=self.space.settings(point),
                    fidelity=fidelity,
                    recovery_time=recovery,
                    checking_fraction=fraction,
                    wa_actual=wa,
                    degraded_p99=p99,
                    cost=self.cost_of(fidelity),
                    tenant_slo_p99=tenant_p99,
                )
                self._cache[key] = measurement
                self.spent += measurement.cost
                self.simulations += 1
                if self.on_result is not None:
                    self.on_result(measurement)
        return [self._cache[key] for key in keys]
