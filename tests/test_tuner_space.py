"""The tuner's parameter-space DSL: axes, constraints, signatures."""

import pytest

from repro.core import ExperimentProfile
from repro.tuner import (
    CategoricalAxis,
    EcVariantAxis,
    TuningSpace,
    pool_width_fits,
    stripe_unit_divides,
)

MB = 1024 * 1024

RS = ("jerasure", (("k", 9), ("m", 3)))
CLAY = ("clay", (("d", 11), ("k", 9), ("m", 3)))
WIDE_RS = ("jerasure", (("k", 20), ("m", 4)))


def small_space(base=None, constraints=()):
    return TuningSpace(
        base or ExperimentProfile(name="t"),
        axes=[
            CategoricalAxis("pg_num", (16, 256)),
            CategoricalAxis("cache_scheme", ("kv-optimized", "autotune")),
            EcVariantAxis(variants=(RS, CLAY)),
        ],
        constraints=constraints,
    )


# -- axes -----------------------------------------------------------------------


def test_categorical_axis_values_and_validation():
    axis = CategoricalAxis("cache_scheme", ("a", "b"))
    assert axis.values() == ("a", "b")
    assert axis.contains("a") and not axis.contains("c")
    with pytest.raises(ValueError, match="no values"):
        CategoricalAxis("x", ())
    with pytest.raises(ValueError, match="duplicate"):
        CategoricalAxis("x", ("a", "a"))


def test_ec_axis_requires_reserved_name():
    with pytest.raises(ValueError, match="must be named"):
        EcVariantAxis(variants=(RS,), name="codes")


# -- space geometry -------------------------------------------------------------


def test_enumerate_covers_the_grid_deterministically():
    space = small_space()
    points = space.enumerate()
    assert len(points) == 8 == space.size()
    assert points == space.enumerate()  # stable order
    signatures = {space.signature(p) for p in points}
    assert len(signatures) == 8


def test_constraints_filter_enumeration():
    # 12 OSDs on 6 hosts: width-12 codes fit the OSD count but not a
    # host failure domain; width-24 fits neither.
    base = ExperimentProfile(name="t", num_hosts=6, pg_num=16)
    space = TuningSpace(
        base,
        axes=[EcVariantAxis(variants=(RS, WIDE_RS))],
        constraints=[pool_width_fits()],
    )
    assert space.enumerate() == []
    rack_base = base.with_overrides(failure_domain="osd")
    space = TuningSpace(
        rack_base,
        axes=[EcVariantAxis(variants=(RS, WIDE_RS))],
        constraints=[pool_width_fits()],
    )
    points = space.enumerate()
    assert len(points) == 1 and points[0]["ec"][0] == "jerasure"


def test_stripe_unit_divisibility_constraint():
    base = ExperimentProfile(name="t")
    space = TuningSpace(
        base,
        axes=[CategoricalAxis("stripe_unit", (1 * MB, 3 * MB, 4 * MB))],
        constraints=[stripe_unit_divides(8 * MB)],
    )
    kept = [p["stripe_unit"] for p in space.enumerate()]
    assert kept == [1 * MB, 4 * MB]
    assert space.violated({"stripe_unit": 3 * MB}) == ["stripe-unit-divides"]


def test_violated_rejects_off_axis_values_and_unknown_axes():
    space = small_space()
    with pytest.raises(ValueError, match="not on axis"):
        space.violated({"pg_num": 17})
    with pytest.raises(KeyError, match="unknown axis"):
        space.violated({"nonsense": 1})
    with pytest.raises(ValueError, match="unknown profile field"):
        TuningSpace(ExperimentProfile(name="t"),
                    axes=[CategoricalAxis("warp_factor", (9,))])


# -- rendering ------------------------------------------------------------------


def test_to_profile_expands_ec_axis():
    space = small_space()
    profile = space.to_profile(
        {"pg_num": 16, "cache_scheme": "autotune", "ec": CLAY}
    )
    assert profile.ec_plugin == "clay"
    assert profile.ec_params == {"k": 9, "m": 3, "d": 11}
    assert profile.pg_num == 16
    assert "clay" in profile.name and "pg_num=16" in profile.name


def test_signature_is_order_and_representation_independent():
    space = small_space()
    sig_a = space.signature({"pg_num": 16, "cache_scheme": "autotune", "ec": CLAY})
    sig_b = space.signature({"ec": CLAY, "cache_scheme": "autotune", "pg_num": 16})
    assert sig_a == sig_b
    # Partial points fill from the base profile.
    sig_partial = space.signature({"pg_num": 256})
    assert "256" in sig_partial


def test_fingerprint_survives_json_roundtrip():
    import json

    space = small_space(constraints=[pool_width_fits()])
    assert json.loads(json.dumps(space.describe())) == space.describe()
