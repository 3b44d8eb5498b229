"""Report formatting and analysis statistics."""

import pytest

from repro.analysis import (
    impact_range_percent,
    normalised_series,
    render_figure2_panel,
    render_figure3_timeline,
    render_table,
)
from repro.core import Series, format_grouped_bars, format_table, normalise
from repro.core.timeline import RecoveryTimeline


def test_normalise_to_minimum():
    out = normalise({"a": 2.0, "b": 4.0, "c": 3.0})
    assert out == {"a": 1.0, "b": 2.0, "c": 1.5}


def test_normalise_to_explicit_baseline():
    out = normalise({"a": 2.0, "b": 4.0}, baseline="b")
    assert out["b"] == 1.0
    assert out["a"] == 0.5


def test_normalise_guards():
    assert normalise({}) == {}
    with pytest.raises(ValueError):
        normalise({"a": 0.0})


def test_impact_range_percent_matches_headline_semantics():
    """'426%' means worst config takes 4.26x the best's time."""
    assert impact_range_percent({"best": 1.0, "worst": 4.26}) == pytest.approx(426.0)
    with pytest.raises(ValueError):
        impact_range_percent({})


def test_normalised_series():
    out = normalised_series({"x": 10.0, "y": 25.0})
    assert out["x"] == 1.0 and out["y"] == 2.5


def test_format_grouped_bars_renders_all_entries():
    text = format_grouped_bars(
        "Panel",
        ["g1", "g2"],
        [Series("RS", {"g1": 1.0, "g2": 2.0}), Series("Clay", {"g1": 1.5})],
    )
    assert "Panel" in text
    assert text.count("RS") == 2
    assert text.count("Clay") == 1
    assert "2.00x" in text


def test_format_table_alignment():
    text = format_table("T", ["id", "value"], [["a", 1], ["bb", 22]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "id" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_render_figure2_panel():
    text = render_figure2_panel(
        "a", ["kv-optimized"], {"kv-optimized": 1.05}, {"kv-optimized": 1.11}
    )
    assert "Figure 2a" in text
    assert "RS(12,9)" in text and "Clay(12,9,11)" in text


def test_render_figure3_timeline():
    timeline = RecoveryTimeline(None, 0.0, 600.0, 600.0, 602.0, 1128.0)
    text = render_figure3_timeline(timeline)
    assert "System Checking Period (602s)" in text
    assert "EC Recovery Period (526s)" in text
    assert "53.4%" in text
    with pytest.raises(ValueError):
        render_figure3_timeline(RecoveryTimeline(None, 1.0, 1.0, 1.0, 1.0, 1.0))


def test_render_table_passthrough():
    assert "Cache" in render_table("Cache", ["a"], [["x"]])
