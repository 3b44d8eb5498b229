"""pg autoscaling."""

import pytest

from repro.cluster import autoscale_advice, recommended_pg_num


# -- autoscaler -----------------------------------------------------------------


def test_recommended_pg_num_matches_target():
    # 60 OSDs, width 12 -> 60*100/12 = 500 -> rounded to 512.
    assert recommended_pg_num(60, 12) == 512
    # 16 OSDs, width 6 -> 266 -> 256.
    assert recommended_pg_num(16, 6) == 256


def test_recommended_pg_num_power_of_two():
    for osds in (3, 10, 37, 90):
        value = recommended_pg_num(osds, 12)
        assert value & (value - 1) == 0  # power of two


def test_recommended_pg_num_bounds():
    assert recommended_pg_num(1, 200) == 1
    assert recommended_pg_num(100_000, 1) <= 32768


def test_recommended_validation():
    with pytest.raises(ValueError):
        recommended_pg_num(0, 12)


def test_autoscale_advice_flags_gross_misconfiguration():
    # The paper's pg_num=1 case: 60 OSDs, width 12.
    advice = autoscale_advice(1, 60, 12)
    assert advice.recommended == 512
    assert advice.should_scale
    assert "SCALE" in advice.summary()
    assert advice.shards_per_osd == pytest.approx(0.2)


def test_autoscale_advice_accepts_reasonable_pg_num():
    advice = autoscale_advice(256, 60, 12)
    assert not advice.should_scale
    assert "ok" in advice.summary()


def test_autoscale_advice_validation():
    with pytest.raises(ValueError):
        autoscale_advice(0, 60, 12)


def test_round_power_of_two_uses_geometric_midpoint():
    """The tie point between 2^n and 2^(n+1) is sqrt(2)*2^n, not 1.5x."""
    import math

    from repro.cluster.autoscale import _round_power_of_two

    assert _round_power_of_two(5.68) == 8   # ratio 1.42 > sqrt(2): up
    assert _round_power_of_two(5.64) == 4   # ratio 1.41 < sqrt(2): down
    # Between sqrt(2) and the old arithmetic-flavoured 1.5 cutoff: the
    # geometric rule rounds up where the old rule rounded down.
    assert _round_power_of_two(5.8) == 8    # ratio 1.45
    # The exact midpoint rounds down.
    assert _round_power_of_two(4 * math.sqrt(2.0)) == 4
    # Exact powers map to themselves.
    for power in (1, 2, 64, 32768):
        assert _round_power_of_two(power) == power
