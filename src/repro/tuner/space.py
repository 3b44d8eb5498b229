"""Typed parameter-space DSL for the configuration tuner.

The paper sweeps hand-picked grids; the tuner searches *spaces*.  A
:class:`TuningSpace` pairs a base :class:`ExperimentProfile` with typed
axes — categorical values and whole EC variants — plus cross-axis
:class:`Constraint`\\ s (``k+m <= num_osds``, stripe-unit divisibility,
...).  The space can enumerate every valid point, validate arbitrary
points, and render any point as a runnable profile or as a canonical
signature string the evaluator memoises by.

A *point* is a plain ``dict`` mapping axis names to values; the special
axis name ``"ec"`` carries a ``(plugin, params)`` pair and expands to the
profile's ``ec_plugin``/``ec_params`` fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

from ..core.profile import ExperimentProfile

__all__ = [
    "Axis",
    "CategoricalAxis",
    "EcVariantAxis",
    "Constraint",
    "pool_width_fits",
    "stripe_unit_divides",
    "TuningSpace",
    "canonical_settings",
    "point_signature",
]

#: The reserved axis name that sweeps whole (plugin, params) EC variants.
EC_AXIS = "ec"


class Axis:
    """One searchable configuration dimension.

    Subclasses define the value set; the base class provides
    membership in terms of :meth:`values`.
    """

    name: str

    def values(self) -> Tuple[Any, ...]:
        """Every value this axis can take, in canonical order."""
        raise NotImplementedError

    def contains(self, value: Any) -> bool:
        return value in self.values()

    def __len__(self) -> int:
        return len(self.values())


@dataclass(frozen=True)
class CategoricalAxis(Axis):
    """An unordered, explicitly-listed value set (e.g. cache schemes)."""

    name: str
    choices: Tuple[Any, ...]

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(self.choices))
        if not self.choices:
            raise ValueError(f"axis {self.name!r} has no values")
        if len(set(map(repr, self.choices))) != len(self.choices):
            raise ValueError(f"axis {self.name!r} has duplicate values")

    def values(self) -> Tuple[Any, ...]:
        return self.choices


@dataclass(frozen=True)
class EcVariantAxis(Axis):
    """Whole ``(plugin, params)`` erasure-code variants as one axis."""

    variants: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]
    name: str = EC_AXIS

    def __post_init__(self):
        if self.name != EC_AXIS:
            raise ValueError(f"EC axis must be named {EC_AXIS!r}")
        frozen = tuple(
            (plugin, tuple(sorted(dict(params).items())))
            for plugin, params in self.variants
        )
        object.__setattr__(self, "variants", frozen)
        if not frozen:
            raise ValueError("EC axis has no variants")
        if len(set(frozen)) != len(frozen):
            raise ValueError("EC axis has duplicate variants")

    def values(self) -> Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]:
        return self.variants


@dataclass(frozen=True)
class Constraint:
    """A named cross-axis validity predicate.

    ``predicate(settings, base)`` receives the *canonical settings* of a
    point (axis values with the EC axis expanded to ``ec_plugin`` /
    ``ec_params``, defaults filled from the base profile) plus the base
    profile, and returns True when the point is admissible.
    """

    name: str
    predicate: Callable[[Mapping[str, Any], ExperimentProfile], bool]
    description: str = ""

    def holds(self, settings: Mapping[str, Any], base: ExperimentProfile) -> bool:
        return bool(self.predicate(settings, base))


def _ec_width(params: Mapping[str, Any]) -> int:
    """Pool width (total chunks) from a plugin's parameters."""
    k = int(params["k"])
    if "m" in params:
        return k + int(params["m"])
    # LRC-style: l local + r global parities.
    return k + int(params.get("l", 0)) + int(params.get("r", 0))


def pool_width_fits() -> Constraint:
    """``k+m <= num_osds`` — and per-host placement needs one host per chunk."""

    def check(settings: Mapping[str, Any], base: ExperimentProfile) -> bool:
        width = _ec_width(settings["ec_params"])
        num_hosts = int(settings.get("num_hosts", base.num_hosts))
        per_host = int(settings.get("osds_per_host", base.osds_per_host))
        if width > num_hosts * per_host:
            return False
        domain = settings.get("failure_domain", base.failure_domain)
        if domain == "host" and width > num_hosts:
            return False
        return True

    return Constraint(
        name="pool-width-fits",
        predicate=check,
        description="EC width k+m must fit the cluster (and one host per "
                    "chunk under a host failure domain)",
    )


def stripe_unit_divides(object_size: int) -> Constraint:
    """``object_size % stripe_unit == 0`` — no ragged trailing stripe."""
    if object_size < 1:
        raise ValueError("object_size must be positive")

    def check(settings: Mapping[str, Any], base: ExperimentProfile) -> bool:
        stripe_unit = int(settings.get("stripe_unit", base.stripe_unit))
        return object_size % stripe_unit == 0

    return Constraint(
        name="stripe-unit-divides",
        predicate=check,
        description=f"stripe_unit must divide the {object_size}-byte objects",
    )


def canonical_settings(
    point: Mapping[str, Any], base: ExperimentProfile
) -> Dict[str, Any]:
    """A point's full, canonical settings dict.

    Always contains ``ec_plugin``, ``ec_params`` (a plain sorted dict)
    and the Table-1 fields the sensitivity analysis ranks, with defaults
    filled from the base profile; plus any extra axes the point sets.
    """
    settings: Dict[str, Any] = {
        "ec_plugin": base.ec_plugin,
        "ec_params": dict(sorted(base.ec_params.items())),
        "pg_num": base.pg_num,
        "stripe_unit": base.stripe_unit,
        "cache_scheme": base.cache_scheme,
        "failure_domain": base.failure_domain,
    }
    for name, value in point.items():
        if name == EC_AXIS:
            plugin, params = value
            settings["ec_plugin"] = plugin
            settings["ec_params"] = dict(sorted(dict(params).items()))
        else:
            settings[name] = value
    return settings


def point_signature(point: Mapping[str, Any], base: ExperimentProfile) -> str:
    """Canonical, order-independent identity of a configuration.

    Two points that resolve to the same full settings — regardless of
    dict ordering or tuple-vs-dict EC params — share a signature; the
    evaluator uses it as the memoisation key.
    """
    return json.dumps(canonical_settings(point, base), sort_keys=True)


class TuningSpace:
    """A searchable configuration space around a base profile."""

    def __init__(
        self,
        base: ExperimentProfile,
        axes: Sequence[Axis],
        constraints: Sequence[Constraint] = (),
    ):
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        if not axes:
            raise ValueError("a tuning space needs at least one axis")
        for axis in axes:
            if axis.name != EC_AXIS and not hasattr(base, axis.name):
                raise ValueError(f"unknown profile field {axis.name!r}")
        self.base = base
        self.axes: Tuple[Axis, ...] = tuple(axes)
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)

    # -- geometry -------------------------------------------------------------------

    def size(self) -> int:
        """Grid cardinality *before* constraint filtering."""
        cells = 1
        for axis in self.axes:
            cells *= len(axis)
        return cells

    def violated(self, point: Mapping[str, Any]) -> List[str]:
        """Names of every constraint the point breaks (empty = valid)."""
        for name in point:
            if name not in {axis.name for axis in self.axes}:
                raise KeyError(f"point sets unknown axis {name!r}")
        for axis in self.axes:
            if axis.name in point and not axis.contains(point[axis.name]):
                raise ValueError(
                    f"value {point[axis.name]!r} not on axis {axis.name!r}"
                )
        settings = canonical_settings(point, self.base)
        return [
            constraint.name
            for constraint in self.constraints
            if not constraint.holds(settings, self.base)
        ]

    def is_valid(self, point: Mapping[str, Any]) -> bool:
        return not self.violated(point)

    def enumerate(self) -> List[Dict[str, Any]]:
        """Every valid point, in deterministic grid order."""
        return list(self._iter_valid())

    def _iter_valid(self) -> Iterator[Dict[str, Any]]:
        def expand(index: int, partial: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
            if index == len(self.axes):
                if self.is_valid(partial):
                    yield dict(partial)
                return
            axis = self.axes[index]
            for value in axis.values():
                partial[axis.name] = value
                yield from expand(index + 1, partial)
            del partial[axis.name]

        yield from expand(0, {})

    # -- rendering ------------------------------------------------------------------

    def signature(self, point: Mapping[str, Any]) -> str:
        return point_signature(point, self.base)

    def settings(self, point: Mapping[str, Any]) -> Dict[str, Any]:
        return canonical_settings(point, self.base)

    def to_profile(self, point: Mapping[str, Any]) -> ExperimentProfile:
        """Render a point as a runnable profile (labelled like sweep cells)."""
        overrides: Dict[str, Any] = {}
        for name, value in point.items():
            if name == EC_AXIS:
                plugin, params = value
                overrides["ec_plugin"] = plugin
                overrides["ec_params"] = dict(params)
            else:
                overrides[name] = value
        label_parts = [overrides.get("ec_plugin", self.base.ec_plugin)] + [
            f"{name}={value}"
            for name, value in sorted(overrides.items())
            if name not in ("ec_plugin", "ec_params")
        ]
        overrides["name"] = "/".join(label_parts)
        return self.base.with_overrides(**overrides)

    def describe(self) -> Dict[str, Any]:
        """A JSON-able fingerprint of the space (stored in artifacts)."""
        axes = [
            {
                "name": axis.name,
                "type": type(axis).__name__,
                "values": list(axis.values()),
            }
            for axis in self.axes
        ]
        # Round-trip through JSON so the fingerprint compares equal to a
        # reloaded artifact's copy (tuples normalise to lists).
        return json.loads(json.dumps({
            "base": asdict(self.base),
            "axes": axes,
            "constraints": [c.name for c in self.constraints],
        }, default=str))
