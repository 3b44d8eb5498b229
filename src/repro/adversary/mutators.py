"""Typed, validity-preserving campaign mutators.

Each mutator has the shape ``(rng, spec) -> Optional[CampaignSpec]``: it
either returns a structurally-valid mutant or ``None`` (nothing to do,
or the mutation would break a spec-level rule).  Validity is enforced by
*reconstruction* — every mutant is rebuilt through the frozen dataclass
constructors, so ``CampaignSpec.__post_init__`` and
``ScheduledAction.__post_init__`` re-run and any rule violation surfaces
as ``ValueError`` (caught here, returned as ``None``).  Runtime-state
collisions the spec cannot see (e.g. corruption landing on an already
damaged stripe) still surface as ``CampaignInvalid`` when the mutant
runs; the fuzzer counts those, they are cheap.

Mutators never touch the campaign ``seed``: a mutant differs from its
parent only by the genes mutated, so lineage stays interpretable.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from ..chaos.campaign import CampaignSpec, ScheduledAction
from ..chaos.sampler import (
    _EC_CHOICES,
    _OBJECT_SIZES,
    _STRIPE_UNITS,
    _shard_count,
    _tolerance,
)
from ..core.fault_injector import BYZ_LEVELS

__all__ = [
    "MUTATORS",
    "allowed_levels",
    "fault_round",
    "mutate",
    "press_capacity",
    "press_data",
    "reshape_to",
    "splice",
]

#: Levels whose damage persists until a scrub heals it — the spec
#: forbids scheduling them with scrubbing off.
_NEEDS_SCRUB = ("corrupt", "byz_corrupt_data", "byz_false_ack")


def _rebuild(spec: CampaignSpec, actions: List[ScheduledAction],
             **config) -> Optional[CampaignSpec]:
    """Reconstruct a mutant through the validating constructors.

    Every mutant stays in the sampler's *expected-to-converge* family:
    a schedule ending on an un-restored inject would trip the
    health-convergence oracle trivially (no bug, just a dangling fault),
    so a trailing restore is appended whenever a mutation leaves one.
    """
    try:
        ordered = sorted(actions, key=lambda action: action.at)
        if ordered and ordered[-1].kind == "inject":
            ordered.append(
                ScheduledAction(at=ordered[-1].at + 200.0, kind="restore")
            )
        return replace(spec, actions=tuple(ordered), **config)
    except ValueError:
        return None


def _injects(spec: CampaignSpec) -> List[int]:
    return [
        index for index, action in enumerate(spec.actions)
        if action.kind == "inject"
    ]


def drop_action(rng, spec: CampaignSpec) -> Optional[CampaignSpec]:
    """Remove one action (ddmin's unit step, applied speculatively)."""
    if len(spec.actions) < 2:
        return None
    index = rng.randrange(len(spec.actions))
    actions = [a for i, a in enumerate(spec.actions) if i != index]
    return _rebuild(spec, actions)


def duplicate_action(rng, spec: CampaignSpec) -> Optional[CampaignSpec]:
    """Replay one inject later — repeated pressure on the same arc."""
    injects = _injects(spec)
    if not injects:
        return None
    action = spec.actions[rng.choice(injects)]
    last = spec.actions[-1].at if spec.actions else 100.0
    copy = replace(action, at=last + float(rng.choice((50, 150, 400))))
    return _rebuild(spec, [*spec.actions, copy])


def retime_action(rng, spec: CampaignSpec) -> Optional[CampaignSpec]:
    """Shift one action in time (races restores against detection)."""
    if not spec.actions:
        return None
    index = rng.randrange(len(spec.actions))
    action = spec.actions[index]
    shift = float(rng.choice((-200, -50, -10, 10, 50, 200)))
    try:
        moved = replace(action, at=max(0.0, action.at + shift))
    except ValueError:
        return None
    actions = list(spec.actions)
    actions[index] = moved
    return _rebuild(spec, actions)


def retarget_action(rng, spec: CampaignSpec) -> Optional[CampaignSpec]:
    """Change one inject's targeting genes (colocation, corruption mode)."""
    injects = _injects(spec)
    if not injects:
        return None
    index = rng.choice(injects)
    action = spec.actions[index]
    try:
        if action.level == "corrupt":
            mutated = replace(action, corruption=rng.choice(
                ("bit_rot", "torn_write", "misdirected_write")))
        elif action.level == "device":
            mutated = replace(action, colocation=rng.choice(
                ("any", "diff_hosts", "same_host")))
        elif action.level == "slow_device":
            mutated = replace(action, factor=float(rng.choice((4, 8, 16, 32))))
        elif action.level == "net_degrade":
            mutated = replace(action, loss=rng.choice((0.05, 0.2, 0.5)),
                              partition=rng.random() < 0.25)
        elif action.level == "flap":
            mutated = replace(action, flap_interval=float(
                rng.choice((15.0, 40.0, 90.0))))
        elif action.level in BYZ_LEVELS:
            # Escalate within the byz family: swap the lie being told.
            mutated = replace(action, level=rng.choice(BYZ_LEVELS), count=1)
        else:
            return None
    except ValueError:
        return None
    actions = list(spec.actions)
    actions[index] = mutated
    return _rebuild(spec, actions)


def escalate_action(rng, spec: CampaignSpec) -> Optional[CampaignSpec]:
    """Raise one inject's count by one, inside white-box tolerance.

    The bound is the *same* one the injector's guard enforces, so
    escalation probes the tolerance boundary without ever (statically)
    crossing it — the near-miss margins the fitness vector rewards.
    """
    tolerance = _tolerance(spec.ec_plugin, spec.ec_params)
    injects = [
        index for index in _injects(spec)
        if spec.actions[index].level in
        ("node", "device", "corrupt", "byz_corrupt_data")
    ]
    if not injects:
        return None
    index = rng.choice(injects)
    action = spec.actions[index]
    if action.count + 1 > tolerance:
        return None
    try:
        mutated = replace(action, count=action.count + 1)
    except ValueError:
        return None
    actions = list(spec.actions)
    actions[index] = mutated
    return _rebuild(spec, actions)


def perturb_config(rng, spec: CampaignSpec) -> Optional[CampaignSpec]:
    """Perturb one configuration axis, respecting cross-field rules."""
    axis = rng.choice((
        "pg_num", "stripe_unit", "scrub_interval",
        "mon_osd_down_out_interval", "num_objects", "object_size",
        "num_hosts",
    ))
    if axis == "pg_num":
        return _rebuild(spec, list(spec.actions),
                        pg_num=rng.choice((4, 8, 16, 32)))
    if axis == "stripe_unit":
        return _rebuild(spec, list(spec.actions),
                        stripe_unit=rng.choice(_STRIPE_UNITS))
    if axis == "scrub_interval":
        needs_scrub = any(
            action.kind == "inject" and action.level in _NEEDS_SCRUB
            for action in spec.actions
        )
        choices = (200.0, 400.0, 800.0) if needs_scrub \
            else (0.0, 200.0, 400.0, 800.0)
        return _rebuild(spec, list(spec.actions),
                        scrub_interval=float(rng.choice(choices)))
    if axis == "mon_osd_down_out_interval":
        return _rebuild(spec, list(spec.actions),
                        mon_osd_down_out_interval=float(
                            rng.choice((30, 60, 120, 300))))
    if axis == "num_objects":
        return _rebuild(spec, list(spec.actions),
                        num_objects=rng.randrange(8, 33))
    if axis == "object_size":
        return _rebuild(spec, list(spec.actions),
                        object_size=rng.choice(_OBJECT_SIZES))
    # num_hosts only grows: shrinking could leave too few failure-domain
    # buckets for placement, a rule the spec cannot check statically.
    return _rebuild(spec, list(spec.actions),
                    num_hosts=spec.num_hosts + rng.randrange(1, 3))


def press_data(rng, spec: CampaignSpec) -> Optional[CampaignSpec]:
    """Grow the data the schedule churns: more objects, bigger objects.

    Only ever moves upward (and stays inside the sampler's own ranges),
    so repeated application hill-climbs the repair-bytes fitness axis —
    every byte stored is a byte recovery and scrub can be made to move.
    """
    num_objects = min(32, spec.num_objects + int(rng.choice((4, 8, 12))))
    object_size = max(spec.object_size, rng.choice(_OBJECT_SIZES))
    if (num_objects == spec.num_objects
            and object_size == spec.object_size):
        return None
    return _rebuild(spec, list(spec.actions),
                    num_objects=num_objects, object_size=object_size)


def press_capacity(rng, spec: CampaignSpec) -> Optional[CampaignSpec]:
    """Jump the stored data straight to the sampler's ceiling.

    Where :func:`press_data` hill-climbs the repair-bytes axis in
    steps, this mutator maximizes both genes at once — most objects at
    the largest size — so backfill targets feel the most capacity
    pressure a sampled campaign can generate, aiming at the nearfull /
    backfillfull arcs of the capacity-backpressure machinery.
    """
    num_objects = 32
    object_size = max(_OBJECT_SIZES)
    if (num_objects == spec.num_objects
            and object_size == spec.object_size):
        return None
    return _rebuild(spec, list(spec.actions),
                    num_objects=num_objects, object_size=object_size)


def allowed_levels(spec: CampaignSpec) -> List[str]:
    """The fault levels a mutant of ``spec`` may legitimately add.

    Byzantine campaigns stay pure (every detection attributable to a
    defense, the sampler's rule); everything else draws from the plain
    single-region levels, honouring the corrupt-needs-scrub spec rule.
    """
    has_byz = any(
        action.kind == "inject" and action.level in BYZ_LEVELS
        for action in spec.actions
    )
    if has_byz:
        return list(BYZ_LEVELS)
    levels = ["node", "device", "slow_device", "net_degrade", "flap"]
    if spec.scrub_interval > 0:
        levels.append("corrupt")
    return levels


def fault_round(rng, spec: CampaignSpec,
                level: str) -> Optional[CampaignSpec]:
    """Append a fresh inject+restore round at the given fault level."""
    base = spec.actions[-1].at if spec.actions else 100.0
    at = base + float(rng.choice((100, 250, 500)))
    try:
        if level == "net_degrade":
            inject = ScheduledAction(at=at, kind="inject", level=level,
                                     count=1, loss=rng.choice((0.2, 0.5)),
                                     partition=rng.random() < 0.25)
        else:
            inject = ScheduledAction(at=at, kind="inject", level=level,
                                     count=1)
    except ValueError:
        return None
    restore = ScheduledAction(
        at=at + float(rng.choice((50, 200, 500))), kind="restore"
    )
    return _rebuild(spec, [*spec.actions, inject, restore])


def add_fault_round(rng, spec: CampaignSpec) -> Optional[CampaignSpec]:
    """Append an inject+restore round with a level the schedule may not
    have tried yet — one of two mutators that move a campaign along the
    fault-level coverage axis (the fuzzer's gap-aiming step is the
    other, via :func:`fault_round` with a chosen level).
    """
    return fault_round(rng, spec, rng.choice(allowed_levels(spec)))


def reshape_to(rng, spec: CampaignSpec,
               plugin: Optional[str] = None) -> Optional[CampaignSpec]:
    """Re-run the schedule under a different EC geometry.

    Draws from the sampler's own (plugin, params) table, restricted to
    geometries at least as tolerant as the current one — the schedule's
    budget accounting was done against the old ``m``, so any
    equal-or-better code keeps every inject statically safe.  With
    ``plugin`` given, only that plugin's geometries are considered (the
    fuzzer aims at coverage gaps this way); ``None`` means any.
    """
    if spec.num_regions > 1:
        return None  # geo geometries have their own region-cap table
    current = _tolerance(spec.ec_plugin, spec.ec_params)
    choices = [
        (candidate, params)
        for candidate, params in _EC_CHOICES
        if (candidate, params) != (spec.ec_plugin, spec.ec_params)
        and _tolerance(candidate, params) >= current
        and (plugin is None or candidate == plugin)
    ]
    if not choices:
        return None
    chosen, params = rng.choice(choices)
    hosts_needed = _shard_count(params) + _tolerance(chosen, params) + 1
    return _rebuild(
        spec, list(spec.actions),
        ec_plugin=chosen, ec_params=params,
        num_hosts=max(spec.num_hosts, hosts_needed),
    )


def reshape_code(rng, spec: CampaignSpec) -> Optional[CampaignSpec]:
    """Re-run the schedule under any other (equally tolerant) geometry."""
    return reshape_to(rng, spec, None)


#: The single-spec mutators ``mutate`` draws from.
MUTATORS = (
    drop_action,
    duplicate_action,
    retime_action,
    retarget_action,
    escalate_action,
    perturb_config,
    press_data,
    press_capacity,
    add_fault_round,
    reshape_code,
)


def splice(rng, first: CampaignSpec,
           second: CampaignSpec) -> Optional[CampaignSpec]:
    """Crossover: first's config and schedule prefix, second's suffix.

    The suffix is re-based in time to land after the prefix, so the
    spliced schedule stays ordered.  Levels that second's schedule needs
    scrubbing for keep it honest via reconstruction (a corrupt suffix
    into a scrub-off first returns ``None``).
    """
    if not first.actions or not second.actions:
        return None
    cut_a = rng.randrange(1, len(first.actions) + 1)
    cut_b = rng.randrange(len(second.actions))
    prefix = list(first.actions[:cut_a])
    base = prefix[-1].at
    suffix = []
    try:
        for action in second.actions[cut_b:]:
            offset = action.at - second.actions[cut_b].at
            suffix.append(replace(action, at=base + 50.0 + offset))
    except ValueError:
        return None
    return _rebuild(first, prefix + suffix)


def mutate(rng, spec: CampaignSpec, others=()) -> Optional[CampaignSpec]:
    """One mutation round: a random mutator (or a splice when possible)."""
    if others and rng.random() < 0.2:
        other = rng.choice(list(others))
        return splice(rng, spec, other)
    mutator = rng.choice(MUTATORS)
    return mutator(rng, spec)
