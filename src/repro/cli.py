"""``ecfault`` — the command-line front end (§6's open-source artifact).

Subcommands::

    ecfault run          one experiment: profile, load, EC-aware faults
    ecfault sweep        the exhaustive configuration grid, as a tuning report
    ecfault analyze      sensitivity analysis over a sweep or tuning report
    ecfault tune         budgeted configuration search (resumable)
    ecfault twin         analytical twin prediction (instant, no DES run)
    ecfault repair-plan  repair I/O a code performs for a loss pattern
    ecfault wa           write-amplification estimate (the §4.4 formula)
    ecfault autoscale    pg_num advice for a pool/cluster shape
    ecfault chaos        seeded randomized fault campaigns with invariants
    ecfault fuzz         coverage-guided adversarial campaign fuzzing
    ecfault replay       re-execute a chaos repro artifact exactly
    ecfault cascade      a correlated-failure cascade under a recovery policy

Every command prints plain text; ``sweep`` and ``tune`` write one
machine-readable JSON format, the tuning report, so results can be
analysed later or elsewhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections import Counter
from dataclasses import replace
from typing import List, Optional

from .analysis.sensitivity import rank_axes, recommend_configuration
from .cluster.autoscale import autoscale_advice
from .cluster.crush import PlacementError
from .core.experiment import run_experiment
from .core.fault_injector import (
    FAULT_LEVELS,
    GEO_LEVELS,
    GRAY_LEVELS,
    Colocation,
    CorruptionModel,
    FaultSpec,
)
from .core.profile import ExperimentProfile
from .core.report import format_table
from .core.wa import estimate_wa, theoretical_wa
from .ec.base import create_plugin
from .geo.experiment import GeoOutcome
from .workload.generator import Workload

KB = 1024
MB = 1024 * 1024


def parse_size(text: str) -> int:
    """'4KB' / '4MB' / '4096' -> bytes."""
    match = re.fullmatch(r"(\d+)\s*(KB|MB|GB|B)?", text.strip(), re.IGNORECASE)
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}")
    unit = (match.group(2) or "B").upper()
    return int(match.group(1)) * {"B": 1, "KB": KB, "MB": MB, "GB": 1024 * MB}[unit]


def positive_seconds(text: str) -> float:
    """A fault window's length: seconds > 0.  argparse turns the
    ``ValueError`` into an error naming the flag, before any cluster is
    built."""
    seconds = float(text)
    if not seconds > 0:
        raise ValueError(text)
    return seconds


def non_negative_seconds(text: str) -> float:
    """A delay before the fault: seconds >= 0, refused as above."""
    seconds = float(text)
    if not seconds >= 0:
        raise ValueError(text)
    return seconds


def _parse_ec(plugin: str, params_text: str) -> dict:
    """'k=9,m=3,d=11' -> {'k': 9, 'm': 3, 'd': 11} (values as ints)."""
    params = {}
    for part in params_text.split(","):
        if not part.strip():
            continue
        key, _, value = part.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(
                f"EC parameter {part!r} is not key=value"
            )
        params[key.strip()] = int(value)
    return params


def _unknown_levels(command: str, levels: Optional[tuple]) -> bool:
    """Report ``--levels`` entries that name no fault level on stderr;
    True when there were any (the command then exits with status 2)."""
    unknown = sorted(set(levels or ()) - set(FAULT_LEVELS))
    if unknown:
        print(f"{command}: unknown fault levels {unknown}; allowed: "
              f"{','.join(FAULT_LEVELS)}", file=sys.stderr)
    return bool(unknown)


def _profile_from_args(args) -> ExperimentProfile:
    return ExperimentProfile(
        name="cli",
        ec_plugin=args.plugin,
        ec_params=_parse_ec(args.plugin, args.ec_params),
        pg_num=args.pg_num,
        stripe_unit=args.stripe_unit,
        cache_scheme=args.cache_scheme,
        failure_domain=args.failure_domain,
        num_hosts=args.hosts,
        osds_per_host=args.osds_per_host,
    )


def _add_profile_arguments(parser) -> None:
    parser.add_argument("--plugin", default="jerasure",
                        help="EC plugin (jerasure/isa/clay/lrc/shec)")
    parser.add_argument("--ec-params", default="k=9,m=3",
                        help="plugin parameters, e.g. k=9,m=3,d=11")
    parser.add_argument("--pg-num", type=int, default=256)
    parser.add_argument("--stripe-unit", type=parse_size, default=4 * MB)
    parser.add_argument("--cache-scheme", default="autotune")
    parser.add_argument("--failure-domain", default="host")
    parser.add_argument("--hosts", type=int, default=30)
    parser.add_argument("--osds-per-host", type=int, default=2)
    parser.add_argument("--objects", type=int, default=2000)
    parser.add_argument("--object-size", type=parse_size, default=64 * MB)
    parser.add_argument("--seed", type=int, default=0)


def _add_fault_arguments(parser, levels) -> None:
    """The one fault ``run`` and ``twin`` take, at one of ``levels``."""
    parser.add_argument("--fault", choices=levels, default="node")
    parser.add_argument("--fault-count", type=int, default=1)
    parser.add_argument("--colocation", choices=list(Colocation.ALL),
                        default="any")


def _faults_from_args(args, **settings) -> List[FaultSpec]:
    """``--fault`` as a fault list, empty for ``none``; ``settings`` are
    the level-specific :class:`FaultSpec` fields."""
    if args.fault == "none":
        return []
    return [FaultSpec(level=args.fault, count=args.fault_count,
                      colocation=args.colocation, **settings)]


def _add_grid_arguments(parser) -> None:
    """The grid axes and per-cell settings ``sweep`` and ``tune`` share."""
    parser.add_argument("--sweep-pg-num", help="comma list, e.g. 1,16,256")
    parser.add_argument("--sweep-stripe-unit",
                        help="comma list, e.g. 4KB,4MB,64MB")
    parser.add_argument("--sweep-cache-scheme", help="comma list of schemes")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes")


def _refuse_bad_input(command):
    """Wrap a command that runs the model or reads a report: a profile,
    fault, timing, search setting or report it refuses (``ValueError``,
    which includes ``FaultToleranceError`` and ``TuningArtifactError``,
    or ``PlacementError``) prints ``<command>: <message>`` on stderr and
    exits 2, as the other commands' input checks do."""

    @functools.wraps(command)
    def run(args) -> int:
        try:
            return command(args)
        except (ValueError, PlacementError) as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2

    return run


def _fleet_from_args(args):
    """``--fleet`` or the ``--read-interval`` stream as a tenant fleet;
    None when neither is given (the run has no client load)."""
    from .tenancy import TenantFleetSpec

    mix = {
        name: value
        for name, value in (("write_fraction", args.write_fraction),
                            ("rmw_fraction", args.rmw_fraction))
        if value is not None
    }
    if args.read_interval is not None:
        return TenantFleetSpec.legacy(args.read_interval, **mix)
    if mix:
        raise ValueError("--write-fraction and --rmw-fraction shape the "
                         "--read-interval stream: pass --read-interval")
    if args.fleet is None:
        return None
    try:
        with open(args.fleet) as handle:
            return TenantFleetSpec.from_dict(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad fleet spec: {exc}") from exc


@_refuse_bad_input
def cmd_run(args) -> int:
    fleet_spec = _fleet_from_args(args)
    profile = _profile_from_args(args)
    profile = profile.with_overrides(
        ceph=replace(
            profile.ceph,
            client_op_timeout=args.op_timeout,
            client_hedge_delay=args.hedge_delay,
            mon_osd_markdown_count=args.markdown_count,
            recovery_locality_aware=not args.naive,
        ),
        scrub_interval=args.scrub_interval,
        scrub_pgs_per_batch=args.pgs_per_batch,
        csum_block_size=args.csum_block_size,
        integrity_data_plane=args.data_plane,
        num_regions=args.regions,
        wan_latency=args.wan_latency,
        wan_egress_bandwidth=args.wan_egress_bandwidth,
        wan_ingress_bandwidth=args.wan_ingress_bandwidth,
        wan_egress_cost_per_gib=args.wan_egress_cost,
    )
    workload = Workload(num_objects=args.objects, object_size=args.object_size)
    faults = _faults_from_args(
        args,
        factor=args.factor,
        loss=args.loss,
        latency=args.latency,
        bandwidth_penalty=args.bandwidth_penalty,
        partition=args.partition,
        flap_interval=args.flap_interval,
        corruption=args.corruption,
    )
    outcome = run_experiment(
        profile, workload, faults, seed=args.seed, fleet_spec=fleet_spec,
        warmup=args.warmup, fault_duration=args.fault_duration,
    )
    geo = GeoOutcome.of(profile, outcome) if profile.num_regions > 1 else None
    violated = [r.name for r in outcome.reports if r.slo_met is False]
    status = 1 if outcome.converged is False or violated else 0

    if args.json:
        payload = {
            "converged": outcome.converged,
            "health": outcome.health,
            "injected_osds": outcome.injected_osds,
        }
        if fleet_spec is not None:
            payload["fleet"] = fleet_spec.to_dict()
            payload["tenants"] = [r.to_dict() for r in outcome.reports]
            if fleet_spec.qos_enabled:
                payload["qos"] = outcome.fleet.qos_class_totals()
        if geo is not None:
            payload.update(geo.to_dict())
        print(json.dumps(payload, indent=2, sort_keys=True))
        return status

    print(f"profile: {profile.describe()}")
    if faults and args.fault_duration is not None:
        print(f"fault: level={args.fault} count={args.fault_count} "
              f"for {args.fault_duration:g} s "
              f"(defenses: op_timeout={args.op_timeout:g}s "
              f"hedge_delay={args.hedge_delay:g}s)")
    if outcome.slowed_osds:
        print(f"slowed osds:       {outcome.slowed_osds}")
    if outcome.injected_osds:
        print(f"affected osds:     {outcome.injected_osds}")
    if profile.scrub_interval > 0:
        print(f"scrub interval {args.scrub_interval:.0f} s, "
              f"csum block {args.csum_block_size} B, model {args.corruption}")
    if geo is not None:
        print(f"stretch: {args.regions} regions, "
              f"WAN latency {args.wan_latency * 1000:.0f} ms, "
              f"egress {args.wan_egress_bandwidth / MB:.0f} MB/s @ "
              f"${args.wan_egress_cost:.3f}/GiB, "
              f"locality-aware recovery {'off' if args.naive else 'on'}")
    timeline = outcome.timeline
    if timeline is not None:
        print(f"checking period:   {timeline.checking_period:9.1f} s")
        print(f"EC recovery:       {timeline.ec_recovery_period:9.1f} s")
        print(f"total recovery:    {timeline.total_recovery:9.1f} s")
        print(f"checking fraction: {timeline.checking_fraction * 100:8.1f} %")
    elif geo is not None:
        print(f"total recovery:    {geo.total_recovery_time:9.1f} s")
    _print_scrub(outcome)
    stats = outcome.recovery_stats
    print(f"objects recovered: {stats.objects_recovered}")
    print(f"write amplification: {outcome.wa.actual:.3f} "
          f"(theoretical {outcome.wa.theoretical:.3f})")
    print(f"recovery retries:  {stats.op_retries} "
          f"({stats.ops_abandoned} ops abandoned)")
    if stats.pgs_abandoned:
        # A restore requeues or heals them; the final health says which.
        print(f"PGs abandoned:     {stats.pgs_abandoned} of {stats.pgs_queued} "
              f"queued{' (left degraded)' if outcome.converged is None else ''}")
    if geo is not None:
        _print_wan_bill(geo)
    if fleet_spec is not None and fleet_spec.is_legacy_equivalent():
        _print_client_stream(outcome)
    elif fleet_spec is not None:
        _print_fleet(outcome)
    print(f"monitor markdowns: {outcome.markdowns} ({outcome.pins} pins)")
    flap_timeline = outcome.flap_timeline()
    if flap_timeline is not None:
        for offset, label in flap_timeline.annotations():
            print(f"  t+{offset:9.1f} s  {label}")
    if outcome.converged is not None:
        print(f"final health:      {outcome.health}"
              + ("" if outcome.converged else " (NOT converged)"))
    if violated:
        print(f"\nSLO violated for: {', '.join(violated)}")
    return status


def _print_scrub(outcome) -> None:
    """The scrub timeline, when one completed, and the scrub counters,
    when scrubbing is on."""
    timeline = outcome.scrub_timeline
    if timeline is not None:
        print(f"detection period:  {timeline.detection_period:9.1f} s")
        print(f"repair period:     {timeline.repair_period:9.3f} s")
        print(f"total cycle:       {timeline.total_cycle:9.1f} s")
        print(f"detection fraction:{timeline.detection_fraction * 100:8.1f} %")
        for offset, label in timeline.annotations():
            print(f"  t+{offset:9.1f} s  {label}")
    if outcome.cluster.scrub.config.enabled:
        stats = outcome.scrub_stats
        print(f"chunks scrubbed:   {stats.chunks_scrubbed}")
        print(f"errors detected:   {stats.errors_detected}")
        print(f"chunks repaired:   {stats.chunks_repaired}")


def _print_wan_bill(geo) -> None:
    """What recovery moved across regions and what the WAN metered."""
    print(f"cross-region repair: "
          f"{geo.cross_region_bytes_read / MB:.1f} MB pulled "
          f"({geo.cross_region_pulls} pulls), "
          f"{geo.cross_region_bytes_written / MB:.1f} MB pushed "
          f"({geo.cross_region_pushes} pushes)")
    print(f"WAN delivered:     {geo.wan_cross_region_bytes / MB:9.1f} MB "
          f"in {geo.wan_cross_region_transfers} transfers"
          + (f" ({geo.wan_partition_refusals} refused at severed uplinks)"
             if geo.wan_partition_refusals else ""))
    for region, nbytes in enumerate(geo.egress_bytes_by_region):
        print(f"  region {region} egress: {nbytes / MB:9.1f} MB")
    print(f"egress cost:       ${geo.egress_cost:9.4f}")
    print(f"outcome digest:    {geo.digest()}")


def _print_client_stream(outcome) -> None:
    """The single ``--read-interval`` client: samples and defenses."""
    stats = outcome.read_stats
    if stats.count:
        print(f"client reads:      {stats.count} ok, {stats.failures} failed, "
              f"{stats.degraded_fraction * 100:.1f}% degraded")
        print(f"read latency p50:  {stats.latency_percentile(50):9.4f} s")
        print(f"read latency p99:  {stats.latency_percentile(99):9.4f} s")
    writes = outcome.write_stats
    if writes.count or writes.failures:
        print(f"client writes:     {writes.count} ok, {writes.failures} failed, "
              f"{writes.degraded_fraction * 100:.1f}% degraded")
        if writes.count:
            print(f"write latency avg: {writes.mean_latency():9.4f} s")
    ops = outcome.client_stats
    print(f"retries/timeouts:  {ops.retries} / {ops.timeouts} "
          f"(drops seen: {ops.drops_seen})")
    if ops.hedges_issued:
        print(f"hedged fetches:    {ops.hedges_issued} issued, "
              f"{ops.hedges_won} won, "
              f"{ops.hedge_wasted_bytes / MB:.1f} MB duplicated")


def _print_fleet(outcome) -> None:
    """The ``--fleet`` bill: one row per tenant, and the QoS classes."""
    fleet_spec = outcome.fleet_spec
    print(f"fleet: {len(fleet_spec.tenants)} tenant(s), "
          f"QoS {'on' if fleet_spec.qos_enabled else 'off'}")

    def fmt_latency(value):
        return f"{value * 1000:.1f}" if value is not None else "-"

    rows = []
    for report in outcome.reports:
        slo_cell = "-"
        if report.slo is not None:
            slo_cell = "met" if report.slo_met else (
                f"VIOLATED x{len(report.slo_violations)}"
            )
        rows.append([
            report.name,
            report.reads_ok,
            report.read_failures,
            fmt_latency(report.p50),
            fmt_latency(report.p99),
            fmt_latency(report.p999),
            f"{report.throughput / MB:.2f}",
            report.writes_ok,
            f"{report.wa_attributed:.2f}" if report.writes_ok else "-",
            slo_cell,
        ])
    print()
    print(
        format_table(
            "per-tenant accounting",
            ["tenant", "reads", "fail", "p50 (ms)", "p99 (ms)", "p999 (ms)",
             "MB/s", "writes", "WA", "SLO"],
            rows,
        )
    )
    if fleet_spec.qos_enabled:
        print()
        totals = outcome.fleet.qos_class_totals()
        print(
            format_table(
                "QoS classes (all OSD schedulers)",
                ["class", "enqueued", "served", "busy (s)", "max wait (ms)"],
                [
                    [name, int(t["enqueued"]), int(t["served"]),
                     f"{t['busy_time']:.1f}", f"{t['max_wait'] * 1000:.1f}"]
                    for name, t in sorted(totals.items())
                ],
            )
        )


def _grid_axes(args, ec_variants=None) -> list:
    """The tuning axes named by ``--sweep-*`` (and ``--ec-variants``)."""
    from .tuner import CategoricalAxis, EcVariantAxis

    axes = [
        CategoricalAxis(name, tuple(parse(v) for v in text.split(",")))
        for name, text, parse in (
            ("pg_num", args.sweep_pg_num, int),
            ("stripe_unit", args.sweep_stripe_unit, parse_size),
            ("cache_scheme", args.sweep_cache_scheme, str),
        )
        if text
    ]
    if ec_variants:
        axes.append(EcVariantAxis(variants=tuple(
            (plugin, tuple(sorted(params.items())))
            for plugin, params in ec_variants
        )))
    return axes


def _print_progress(measurement, evaluator) -> None:
    """One stderr line per fresh measurement of ``sweep`` and ``tune``."""
    remaining = (
        f", {evaluator.remaining} of {evaluator.budget} object-runs left"
        if evaluator.budget is not None else ""
    )
    print(
        f"[{evaluator.simulations}] {measurement.label} "
        f"@{measurement.fidelity.label or measurement.fidelity.key()}: "
        f"recovery {measurement.recovery_time:.1f}s{remaining}",
        file=sys.stderr,
    )


@_refuse_bad_input
def cmd_sweep(args) -> int:
    from .tuner import Fidelity, GridSearch, TuningSpace, tune

    axes = _grid_axes(args)
    if not axes:
        print("nothing to sweep: pass at least one --sweep-* option",
              file=sys.stderr)
        return 2
    outcome = tune(
        TuningSpace(_profile_from_args(args), axes=axes),
        GridSearch(Fidelity(args.objects, runs=args.runs)),
        seed=args.seed,
        object_size=args.object_size,
        workers=args.workers,
        artifact_path=args.output,
        on_progress=_print_progress,
    )
    rows = outcome.evaluations
    print(
        format_table(
            f"sweep results ({len(rows)} cells; saved to {args.output})",
            ["configuration", "recovery (s)", "checking %", "WA"],
            [
                [m.label, f"{m.recovery_time:.1f}",
                 f"{m.checking_fraction * 100:.1f}", f"{m.wa_actual:.3f}"]
                for m in rows
            ],
        )
    )
    return 0


@_refuse_bad_input
def cmd_analyze(args) -> int:
    from .tuner import load_tuning_artifact, top_fidelity_measurements

    artifact = load_tuning_artifact(args.results)
    results = [
        m.to_sweep_result()
        for m in top_fidelity_measurements(artifact.evaluations)
    ]
    if not results:
        print(f"analyze: {args.results} holds no measurements",
              file=sys.stderr)
        return 2
    axes = args.axes.split(",") if args.axes else ["pg_num", "stripe_unit", "cache_scheme"]
    impacts = rank_axes(results, axes)
    print(
        format_table(
            "configuration-axis impact on recovery time",
            ["axis", "impact", "best value", "worst value"],
            [
                [i.axis, f"{i.impact_percent:.0f}%", i.best, i.worst]
                for i in impacts
            ],
        )
    )
    try:
        recommendation = recommend_configuration(results, wa_budget=args.wa_budget)
    except ValueError as exc:  # as tune does: warn and fall back
        print(f"analyze: WARNING: {exc}; recommending the fastest "
              "configuration instead", file=sys.stderr)
        recommendation = recommend_configuration(results)
    print()
    print(recommendation.summary())
    return 0


def _parse_ec_variants(text: str) -> list:
    """'jerasure:k=9,m=3;clay:k=9,m=3,d=11' -> [(plugin, params), ...]."""
    variants = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        plugin, sep, params_text = part.partition(":")
        if not sep or not plugin.strip():
            raise argparse.ArgumentTypeError(
                f"EC variant {part!r} is not plugin:key=value,..."
            )
        variants.append((plugin.strip(), _parse_ec(plugin, params_text)))
    if not variants:
        raise argparse.ArgumentTypeError("no EC variants given")
    return variants


@_refuse_bad_input
def cmd_tune(args) -> int:
    from .tuner import (
        Fidelity,
        ReadProbe,
        SuccessiveHalving,
        TenantProbe,
        TuningSpace,
        default_objectives,
        pool_width_fits,
        stripe_unit_divides,
        top_fidelity_measurements,
        tune,
    )

    base = _profile_from_args(args)
    axes = _grid_axes(args, args.ec_variants_list)
    if not axes:
        print("nothing to tune: pass at least one --sweep-* option "
              "or --ec-variants", file=sys.stderr)
        return 2
    space = TuningSpace(
        base,
        axes=axes,
        constraints=[pool_width_fits(), stripe_unit_divides(args.object_size)],
    )
    if not space.enumerate():
        violated = Counter(
            name
            for point in TuningSpace(base, axes=axes).enumerate()  # whole grid
            for name in space.violated(point)
        )
        counts = ", ".join(f"{name}: {n}" for name, n in sorted(violated.items()))
        print(f"tune: none of the {space.size()} grid points satisfies the "
              f"constraints ({counts})", file=sys.stderr)
        return 2

    probe_enabled = args.probe_reads or args.p99_budget is not None
    tenant_probe_enabled = (
        args.probe_tenants or args.tenant_p99_budget is not None
    )
    full = Fidelity(args.objects, runs=args.runs, label="full")
    screen_objects = (
        max(1, args.objects // 8)
        if args.screen_objects is None
        else args.screen_objects
    )
    screen_backend = "twin" if args.twin_screen else "des"
    mid_objects = max(
        screen_objects + 1, int(round((screen_objects * args.objects) ** 0.5))
    )
    rungs = [Fidelity(screen_objects, runs=args.runs, label="screen",
                      backend=screen_backend)]
    if screen_objects < mid_objects < args.objects:
        rungs.append(Fidelity(mid_objects, runs=args.runs, label="mid",
                              backend=screen_backend))
    rungs.append(full)
    strategy = SuccessiveHalving(rungs, eta=args.eta)

    outcome = tune(
        space,
        strategy,
        seed=args.seed,
        object_size=args.object_size,
        budget=args.budget,
        workers=args.workers,
        probe=ReadProbe() if probe_enabled else None,
        tenant_probe=TenantProbe() if tenant_probe_enabled else None,
        objectives=default_objectives(
            wa_budget=args.wa_budget,
            p99_budget=args.p99_budget,
            include_p99=probe_enabled,
            tenant_p99_budget=args.tenant_p99_budget,
            include_tenant_p99=tenant_probe_enabled,
        ),
        artifact_path=args.output,
        resume=args.resume,
        on_progress=_print_progress,
    )

    exhaustive = len(space.enumerate()) * (
        full.cost
        + (ReadProbe().cost if probe_enabled else 0)
        + (TenantProbe().cost if tenant_probe_enabled else 0)
    )
    print(f"tuned {space.size()} -> {len(space.enumerate())} valid "
          f"configurations with {strategy.name}: {outcome.simulations} "
          f"simulations, {outcome.spent} object-runs "
          f"(exhaustive full-fidelity grid: {exhaustive}; "
          f"saved {max(0.0, 1 - outcome.spent / exhaustive) * 100:.0f}%)")
    finals = sorted(
        {m.signature: m
         for m in top_fidelity_measurements(outcome.evaluations)}.values(),
        key=lambda m: m.recovery_time,
    )
    if finals:
        print()
        print(
            format_table(
                "full-fidelity measurements",
                ["configuration", "recovery (s)", "WA"],
                [
                    [m.label, f"{m.recovery_time:.1f}", f"{m.wa_actual:.3f}"]
                    for m in finals
                ],
            )
        )
    print()
    if outcome.recommendation is not None:
        print(outcome.recommendation.summary())
    else:
        print("no full-fidelity measurement completed within the budget; "
              "re-run with --resume and a larger --budget", file=sys.stderr)
        print(f"partial artifact saved to {args.output}")
        return 1
    print(f"\ntuning report saved to {args.output} "
          f"(resume with: ecfault tune ... --resume)")
    return 0


@_refuse_bad_input
def cmd_twin(args) -> int:
    from .twin import AnalyticalTwin

    profile = _profile_from_args(args)
    workload = Workload(num_objects=args.objects, object_size=args.object_size)
    faults = _faults_from_args(args)
    twin = AnalyticalTwin()
    prediction = twin.predict(profile, workload, faults)
    if args.json:
        print(json.dumps(prediction.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"profile: {profile.describe()}")
    print(f"checking period:   {prediction.checking_period:9.1f} s")
    print(f"EC recovery:       {prediction.ec_recovery_period:9.1f} s")
    print(f"total recovery:    {prediction.recovery_time:9.1f} s")
    print(f"checking fraction: {prediction.checking_fraction * 100:8.1f} %")
    print(f"write amplification: {prediction.wa_actual:.3f}")
    print(f"repair bytes: {prediction.repair_bytes_read / MB:.1f} MB read, "
          f"{prediction.repair_bytes_written / MB:.1f} MB written "
          f"({prediction.affected_objects:.1f} objects, "
          f"{prediction.lost_chunks:.1f} lost chunks)")
    print(f"prediction digest: {prediction.digest()[:16]}")
    if args.compare:
        outcome = run_experiment(profile, workload, faults, seed=args.seed)
        des_recovery = (
            outcome.timeline.total_recovery if outcome.timeline else 0.0
        )
        des_wa = outcome.wa.actual
        rows = []
        for metric, twin_value, des_value in (
            ("recovery_time", prediction.recovery_time, des_recovery),
            ("wa_actual", prediction.wa_actual, des_wa),
        ):
            err = (
                abs(twin_value - des_value) / des_value if des_value
                else (0.0 if not twin_value else float("inf"))
            )
            rows.append([metric, f"{twin_value:.3f}", f"{des_value:.3f}",
                         f"{err * 100:.1f}%"])
        print()
        print(format_table("twin vs DES (one seed)",
                           ["metric", "twin", "DES", "rel err"], rows))
    return 0


def cmd_repair_plan(args) -> int:
    code = create_plugin(args.plugin, **_parse_ec(args.plugin, args.ec_params))
    lost = [int(v) for v in args.lost.split(",")]
    alive = [i for i in range(code.n) if i not in lost]
    plan = code.repair_plan(lost, alive)
    print(f"{args.plugin}({code.n},{code.k}) losing {lost}:")
    print(
        format_table(
            "repair reads",
            ["helper chunk", "fraction", "io runs"],
            [[r.chunk_index, f"{r.fraction:.3f}", r.io_ops] for r in plan.reads],
        )
    )
    print(f"total read: {plan.read_fraction_total():.2f} chunk-equivalents "
          f"(conventional RS: {code.k}.00)")
    return 0


def cmd_wa(args) -> int:
    code = create_plugin(args.plugin, **_parse_ec(args.plugin, args.ec_params))
    n, k = code.n, code.k
    estimate = estimate_wa(args.object_size, n, k, args.stripe_unit)
    print(f"object {args.object_size} B, RS({n},{k}), "
          f"stripe_unit {args.stripe_unit} B")
    print(f"theoretical n/k: {theoretical_wa(n, k):.4f}")
    print(f"formula estimate: {estimate:.4f} "
          f"({(estimate / theoretical_wa(n, k) - 1) * 100:+.1f}%)")
    return 0


def cmd_chaos(args) -> int:
    from .chaos import run_chaos, save_artifact, shrink_campaign
    from .chaos.artifact import ReproArtifact
    from .chaos.sampler import check_streams

    def progress(index, spec, result, error):
        if error is not None:
            print(f"[{index + 1}/{args.campaigns}] seed {spec.seed}: "
                  f"invalid ({error})", file=sys.stderr)
        elif not result.passed:
            print(f"[{index + 1}/{args.campaigns}] seed {spec.seed}: "
                  f"FAILED ({len(result.violations)} violations)",
                  file=sys.stderr)
        elif args.verbose:
            print(f"[{index + 1}/{args.campaigns}] seed {spec.seed}: ok "
                  f"({spec.ec_plugin}, {len(spec.actions)} actions)",
                  file=sys.stderr)

    try:
        check_streams(writes=args.writes, tenants=args.tenants, geo=args.geo,
                      byzantine=args.byzantine, cascade=args.cascade)
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    levels = tuple(args.levels.split(",")) if args.levels else None
    if _unknown_levels("chaos", levels):
        return 2
    report = run_chaos(
        args.seed,
        args.campaigns,
        on_campaign=progress,
        stop_on_failure=args.stop_on_failure,
        levels=levels,
        writes=args.writes,
        tenants=args.tenants,
        geo=args.geo,
        byzantine=args.byzantine,
        cascade=args.cascade,
    )
    print(f"chaos: {report.campaigns} campaigns from seed {report.root_seed}: "
          f"{report.passed} passed, {report.invalid} invalid, "
          f"{len(report.failures)} failed")
    for result in report.failures:
        shrunk_spec, shrunk_result = shrink_campaign(result.spec)
        artifact = ReproArtifact(
            spec=shrunk_spec,
            violations=shrunk_result.violations,
            outcome_hash=shrunk_result.outcome_hash,
            original_spec=result.spec,
        )
        path = save_artifact(
            artifact, f"{args.artifact_dir}/repro-{result.spec.seed}.json"
        )
        print(f"  seed {result.spec.seed}: schedule shrunk "
              f"{len(result.spec.actions)} -> {len(shrunk_spec.actions)} "
              f"actions; artifact: {path}")
        for violation in shrunk_result.violations:
            print(f"    {violation.invariant}: {violation.detail}")
    return 1 if report.failures else 0


def cmd_fuzz(args) -> int:
    from pathlib import Path

    from .adversary import run_fuzz

    if args.budget < 1:
        print("fuzz: --budget must be >= 1", file=sys.stderr)
        return 2
    if args.corpus_in is not None and not Path(args.corpus_in).is_dir():
        print(f"fuzz: --corpus-in {args.corpus_in!r} is not a directory",
              file=sys.stderr)
        return 2
    levels = tuple(args.levels.split(",")) if args.levels else None
    if _unknown_levels("fuzz", levels):
        return 2

    def progress(index, kind, spec, result, error):
        if error is not None:
            print(f"[{index + 1}/{args.budget}] {kind} seed {spec.seed}: "
                  f"invalid ({error})", file=sys.stderr)
        elif not result.passed:
            print(f"[{index + 1}/{args.budget}] {kind} seed {spec.seed}: "
                  f"FAILED ({len(result.violations)} violations)",
                  file=sys.stderr)
        elif args.verbose:
            print(f"[{index + 1}/{args.budget}] {kind} seed {spec.seed}: ok "
                  f"({spec.ec_plugin}, {len(spec.actions)} actions)",
                  file=sys.stderr)

    report = run_fuzz(
        args.seed,
        args.budget,
        levels=levels,
        byzantine=args.byzantine,
        corpus_dir=args.corpus_dir,
        corpus_in=args.corpus_in,
        on_run=progress,
    )
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return 1 if report.failures else 0


def cmd_replay(args) -> int:
    from .chaos import ArtifactError, CampaignInvalid, load_artifact, run_campaign

    try:
        artifact = load_artifact(args.artifact)
    except ArtifactError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    spec = artifact.spec
    print(f"replaying seed {spec.seed}: {spec.ec_plugin}"
          f"({','.join(f'{k}={v}' for k, v in spec.ec_params)}), "
          f"{len(spec.actions)} actions, expecting hash "
          f"{artifact.outcome_hash[:16]}…")
    try:
        result = run_campaign(spec)
    except CampaignInvalid as exc:
        print(f"replay: campaign no longer applicable: {exc}", file=sys.stderr)
        return 1
    for violation in result.violations:
        print(f"  {violation.invariant} at t={violation.at_time:g} "
              f"(step {violation.step}): {violation.detail}")
    if result.outcome_hash == artifact.outcome_hash:
        print(f"replay: outcome hash {result.outcome_hash[:16]}… matches — "
              f"failure reproduced exactly "
              f"({len(result.violations)} violations)")
        return 0
    print(f"replay: OUTCOME DIVERGED — expected {artifact.outcome_hash} "
          f"got {result.outcome_hash}", file=sys.stderr)
    return 1


def cmd_cascade(args) -> int:
    from .chaos import cascade_scenario, run_campaign

    priorities = (
        ("fifo", "risk") if args.compare else (args.priority,)
    )
    runs = {}
    for priority in priorities:
        spec = cascade_scenario(args.seed, recovery_priority=priority)
        result = run_campaign(spec)
        runs[priority] = (spec, result)

    if args.json:
        payload = {}
        for priority, (spec, result) in runs.items():
            recovery = result.digest["recovery"]
            payload[priority] = {
                "outcome_hash": result.outcome_hash,
                "violations": len(result.violations),
                "time_at_min_redundancy": recovery.get(
                    "time_at_min_redundancy", 0.0
                ),
                "pgs_at_min_redundancy": recovery.get(
                    "pgs_at_min_redundancy", 0
                ),
                "pgs_recovered": recovery.get("pgs_recovered", 0),
                "pgs_toofull_requeued": recovery.get(
                    "pgs_toofull_requeued", 0
                ),
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if any(r.violations for _, r in runs.values()) else 0

    failed = False
    for priority, (spec, result) in runs.items():
        recovery = result.digest["recovery"]
        print(f"cascade seed {spec.seed}, recovery priority {priority}:")
        print(f"  time at min redundancy: "
              f"{recovery.get('time_at_min_redundancy', 0.0):9.3f} s")
        print(f"  PGs that hit min redundancy: "
              f"{recovery.get('pgs_at_min_redundancy', 0)}")
        print(f"  PGs recovered:          "
              f"{recovery.get('pgs_recovered', 0)}")
        if recovery.get("pgs_toofull_requeued", 0):
            print(f"  toofull re-queues:      "
                  f"{recovery['pgs_toofull_requeued']}")
        print(f"  invariant violations:   {len(result.violations)}")
        for violation in result.violations:
            print(f"    {violation.invariant}: {violation.detail}")
        print(f"  outcome hash:           {result.outcome_hash[:16]}…")
        failed = failed or bool(result.violations)
    if args.compare:
        fifo = runs["fifo"][1].digest["recovery"]
        risk = runs["risk"][1].digest["recovery"]
        fifo_t = fifo.get("time_at_min_redundancy", 0.0)
        risk_t = risk.get("time_at_min_redundancy", 0.0)
        saved = fifo_t - risk_t
        pct = (saved / fifo_t * 100) if fifo_t else 0.0
        print(f"risk-prioritized recovery saved {saved:.3f} s at min "
              f"redundancy ({pct:.1f}% of fifo's {fifo_t:.3f} s)")
    return 1 if failed else 0


def cmd_autoscale(args) -> int:
    width = create_plugin(
        args.plugin, **_parse_ec(args.plugin, args.ec_params)
    ).n
    advice = autoscale_advice(
        args.pg_num, args.hosts * args.osds_per_host, width
    )
    print(advice.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecfault",
        description="EC configuration-sensitivity experiments (HotStorage '24)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="one experiment: an EC profile, a client load or tenant "
             "fleet, EC-aware faults held or restored, one report",
    )
    _add_profile_arguments(run)
    _add_fault_arguments(
        run, ["node", "device", "corrupt", *GRAY_LEVELS, *GEO_LEVELS, "none"]
    )
    run.add_argument("--factor", type=float, default=16.0,
                     help="slow_device service-time inflation (x)")
    run.add_argument("--loss", type=float, default=0.0,
                     help="net_degrade per-host packet-loss probability")
    run.add_argument("--latency", type=float, default=0.0,
                     help="net_degrade added one-way latency (s)")
    run.add_argument("--bandwidth-penalty", type=float, default=1.0,
                     help="net_degrade bandwidth divisor (>= 1)")
    run.add_argument("--partition", action="store_true",
                     help="net_degrade: full partition instead of loss")
    run.add_argument("--flap-interval", type=float, default=60.0,
                     help="flap half-period base (s)")
    run.add_argument("--corruption", choices=list(CorruptionModel.ALL),
                     default="bit_rot", help="corrupt damage model")
    run.add_argument("--warmup", type=non_negative_seconds, default=60.0,
                     help="seconds before the fault is injected")
    run.add_argument("--fault-duration", type=positive_seconds, default=None,
                     metavar="SECONDS",
                     help="restore the fault after this many seconds and "
                          "settle (default: hold it until recovery ends); "
                          "a client load runs during this window")
    load = run.add_mutually_exclusive_group()
    load.add_argument("--fleet", default=None, metavar="FILE",
                      help="JSON tenant fleet (TenantFleetSpec.to_dict "
                           "shape)")
    load.add_argument("--read-interval", type=float, default=None,
                      help="one client stream: seconds between ops")
    run.add_argument("--write-fraction", type=float, default=None,
                     help="fraction of the stream's ops that are writes "
                          "(default 0: pure reads)")
    run.add_argument("--rmw-fraction", type=float, default=None,
                     help="fraction of the stream's writes that are "
                          "partial-stripe RMWs (default 0.5)")
    run.add_argument("--op-timeout", type=float, default=0.0,
                     help="client per-op timeout (0 = off)")
    run.add_argument("--hedge-delay", type=float, default=0.0,
                     help="client hedged-read delay (0 = off)")
    run.add_argument("--markdown-count", type=int, default=5,
                     help="markdowns within the period before flap "
                          "dampening pins an OSD down")
    run.add_argument("--scrub-interval", type=float, default=0.0,
                     help="seconds between deep-scrub batches (0 = off)")
    run.add_argument("--pgs-per-batch", type=int, default=4)
    run.add_argument("--csum-block-size", type=parse_size, default=4 * KB,
                     help="checksum granularity (bytes per crc32c)")
    run.add_argument("--data-plane", action="store_true",
                     help="materialise real chunk bytes (small objects only)")
    run.add_argument("--regions", type=int, default=1,
                     help="regions the hosts are dealt across")
    run.add_argument("--wan-latency", type=float, default=0.03,
                     help="one-way inter-region latency (s)")
    run.add_argument("--wan-egress-bandwidth", type=float, default=6.25e8,
                     help="per-region WAN egress bandwidth (B/s)")
    run.add_argument("--wan-ingress-bandwidth", type=float, default=1.25e9,
                     help="per-region WAN ingress bandwidth (B/s)")
    run.add_argument("--wan-egress-cost", type=float, default=0.02,
                     help="metered egress price (USD per GiB)")
    run.add_argument("--naive", action="store_true",
                     help="disable locality-aware recovery (helpers picked "
                          "with no regard for regions)")
    run.add_argument("--json", action="store_true",
                     help="print health, the tenant bill and the stretch "
                          "bill as JSON")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run the full configuration grid")
    _add_profile_arguments(sweep)
    _add_grid_arguments(sweep)
    sweep.add_argument("--output", default="sweep.json")
    sweep.set_defaults(func=cmd_sweep)

    analyze = sub.add_parser("analyze", help="sensitivity analysis of a report")
    analyze.add_argument("results", help="report written by 'ecfault sweep' or 'tune'")
    analyze.add_argument("--axes", help="comma list of settings to rank")
    analyze.add_argument("--wa-budget", type=float, default=None)
    analyze.set_defaults(func=cmd_analyze)

    tune = sub.add_parser(
        "tune", help="budgeted configuration search (resumable)"
    )
    _add_profile_arguments(tune)
    _add_grid_arguments(tune)
    tune.add_argument("--budget", type=int, default=None,
                      help="simulation budget in object-runs (hard ceiling)")
    tune.add_argument("--ec-variants", dest="ec_variants_list",
                      type=_parse_ec_variants,
                      help="semicolon list, e.g. "
                           "'jerasure:k=9,m=3;clay:k=9,m=3,d=11'")
    tune.add_argument("--screen-objects", type=int, default=None,
                      help="low-fidelity object count (default: objects/8)")
    tune.add_argument("--twin-screen", action="store_true",
                      help="serve the halving screen/mid rungs from the "
                           "analytical twin (free) so the budget buys only "
                           "full-fidelity DES finalist runs")
    tune.add_argument("--eta", type=int, default=4,
                      help="successive-halving promotion ratio")
    tune.add_argument("--probe-reads", action="store_true",
                      help="also measure degraded-read p99 per point")
    tune.add_argument("--wa-budget", type=float, default=None)
    tune.add_argument("--p99-budget", type=float, default=None,
                      help="degraded-read p99 budget in seconds "
                           "(implies --probe-reads)")
    tune.add_argument("--probe-tenants", action="store_true",
                      help="also measure a reserved SLO tenant's p99 under "
                           "QoS during an outage per point")
    tune.add_argument("--tenant-p99-budget", type=float, default=None,
                      help="tenant SLO p99 budget in seconds "
                           "(implies --probe-tenants)")
    tune.add_argument("--output", default="tuning.json")
    tune.add_argument("--resume", action="store_true",
                      help="continue from an existing --output artifact")
    tune.set_defaults(func=cmd_tune)

    twin = sub.add_parser(
        "twin",
        help="analytical twin prediction (instant, no simulation)",
    )
    _add_profile_arguments(twin)
    _add_fault_arguments(twin, ["node", "device", "none"])
    twin.add_argument("--compare", action="store_true",
                      help="also run the DES at --seed and show per-metric "
                           "relative error")
    twin.add_argument("--json", action="store_true",
                      help="print the prediction as JSON")
    twin.set_defaults(func=cmd_twin)

    plan = sub.add_parser("repair-plan", help="repair I/O for a loss pattern")
    plan.add_argument("--plugin", default="clay")
    plan.add_argument("--ec-params", default="k=9,m=3,d=11")
    plan.add_argument("--lost", default="0", help="comma list of chunk indices")
    plan.set_defaults(func=cmd_repair_plan)

    wa = sub.add_parser("wa", help="write-amplification estimate (§4.4)")
    wa.add_argument("--plugin", default="jerasure")
    wa.add_argument("--ec-params", default="k=9,m=3")
    wa.add_argument("--object-size", type=parse_size, required=True)
    wa.add_argument("--stripe-unit", type=parse_size, default=4 * KB)
    wa.set_defaults(func=cmd_wa)

    chaos = sub.add_parser(
        "chaos",
        help="seeded randomized fault/workload campaigns with invariants",
    )
    chaos.add_argument("--campaigns", type=int, default=100,
                       help="number of campaigns to sample and run")
    chaos.add_argument("--seed", type=int, default=0,
                       help="root seed; campaign i uses substream 'campaign-i'")
    chaos.add_argument("--artifact-dir", default="chaos-artifacts",
                       help="where shrunk repro artifacts are written")
    chaos.add_argument("--levels", default=None,
                       help="comma list restricting sampled fault levels, "
                            "e.g. slow_device,net_degrade,flap")
    chaos.add_argument("--writes", action="store_true",
                       help="add a sampled mixed read-write client load to "
                            "every campaign (degraded writes, pg_log delta "
                            "recovery, version-convergence invariants)")
    chaos.add_argument("--tenants", action="store_true",
                       help="drive every campaign with a sampled QoS-enabled "
                            "tenant fleet and check the fairness invariant "
                            "(exclusive with --writes)")
    chaos.add_argument("--geo", action="store_true",
                       help="re-shape every campaign into a three-region "
                            "stretch cluster with region outages and WAN "
                            "partitions, checking the cross-region-byte "
                            "invariant (exclusive with --writes/--tenants)")
    chaos.add_argument("--byzantine", action="store_true",
                       help="replace every schedule with lying-OSD faults "
                            "(forged checksums, stale osdmap gossip, false "
                            "write acks) and check the byzantine-containment "
                            "invariant (exclusive with "
                            "--writes/--tenants/--geo)")
    chaos.add_argument("--cascade", action="store_true",
                       help="re-shape every campaign into a rack-sharded "
                            "cluster hit by correlated rack crashes with "
                            "aftershocks, checking the no-avoidable-loss "
                            "and priority-soundness invariants (exclusive "
                            "with --writes/--tenants/--geo/--byzantine)")
    chaos.add_argument("--stop-on-failure", action="store_true",
                       help="stop at the first failing campaign")
    chaos.add_argument("--verbose", action="store_true",
                       help="log every campaign, not just failures")
    chaos.set_defaults(func=cmd_chaos)

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided adversarial campaign fuzzing with a "
             "novelty-retaining corpus",
    )
    fuzz.add_argument("--budget", type=int, default=50,
                      help="total campaign runs (seeds + mutants)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="root seed; the whole session derives from it")
    fuzz.add_argument("--corpus-dir", "--corpus-out", dest="corpus_dir",
                      default="fuzz-corpus",
                      help="where retained corpus entries, the summary, and "
                           "shrunk repro artifacts are written")
    fuzz.add_argument("--corpus-in", default=None,
                      help="seed this session's corpus from a directory a "
                           "previous run's --corpus-out wrote (coverage and "
                           "fitness records carry over, so only campaigns "
                           "novel against the old corpus are retained)")
    fuzz.add_argument("--levels", default=None,
                      help="comma list restricting seed-sample fault levels, "
                           "e.g. byz_corrupt_data,byz_stale_map")
    fuzz.add_argument("--byzantine", action="store_true",
                      help="seed the corpus with byzantine campaigns "
                           "(lying OSDs; containment invariant armed)")
    fuzz.add_argument("--verbose", action="store_true",
                      help="log every run, not just failures")
    fuzz.set_defaults(func=cmd_fuzz)

    replay = sub.add_parser(
        "replay", help="re-execute a chaos repro artifact exactly"
    )
    replay.add_argument("artifact", help="JSON written by 'ecfault chaos'")
    replay.set_defaults(func=cmd_replay)

    cascade = sub.add_parser(
        "cascade",
        help="correlated-failure cascade (rack crash + aftershock) under "
             "fifo or risk-prioritized recovery",
    )
    cascade.add_argument("--seed", type=int, default=0,
                         help="scenario seed (fixed cluster shape; the seed "
                              "feeds placement and service-time draws)")
    cascade.add_argument("--priority", choices=["fifo", "risk"],
                         default="risk",
                         help="recovery admission order: arrival order or "
                              "lowest-redundancy-margin first")
    cascade.add_argument("--compare", action="store_true",
                         help="run both priorities on the same seed and "
                              "report the time-at-min-redundancy delta")
    cascade.add_argument("--json", action="store_true",
                         help="emit per-priority results as JSON")
    cascade.set_defaults(func=cmd_cascade)

    autoscale = sub.add_parser("autoscale", help="pg_num advice")
    autoscale.add_argument("--plugin", default="jerasure")
    autoscale.add_argument("--ec-params", default="k=9,m=3")
    autoscale.add_argument("--pg-num", type=int, required=True)
    autoscale.add_argument("--hosts", type=int, default=30)
    autoscale.add_argument("--osds-per-host", type=int, default=2)
    autoscale.set_defaults(func=cmd_autoscale)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
