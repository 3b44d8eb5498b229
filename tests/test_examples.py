"""Smoke tests: every example script runs clean (at reduced scale)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=300):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_examples_directory_has_scripts():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert "quickstart.py" in scripts
    assert len(scripts) >= 4  # quickstart + >= 3 scenarios


def test_repair_bandwidth_example():
    proc = run_example("repair_bandwidth.py")
    assert proc.returncode == 0, proc.stderr
    assert "clay(12,9)" in proc.stdout
    assert "Clay saves" in proc.stdout


def test_wa_calculator_example():
    proc = run_example("wa_calculator.py", "--object-size", "44KB")
    assert proc.returncode == 0, proc.stderr
    assert "n/k" in proc.stdout
    assert "estimate" in proc.stdout


def test_failure_modes_example_small():
    proc = run_example("failure_modes.py", "--objects", "150")
    assert proc.returncode == 0, proc.stderr
    assert "vs 1-failure" in proc.stdout
    assert "3 failures, diff hosts" in proc.stdout


def test_configuration_sweep_example_small():
    proc = run_example("configuration_sweep.py", "--objects", "60")
    assert proc.returncode == 0, proc.stderr
    assert "Figure 2b (example scale)" in proc.stdout


def test_auto_tuning_example_small():
    proc = run_example("auto_tuning.py", "--objects", "60",
                       "--verify-exhaustive")
    assert proc.returncode == 0, proc.stderr
    assert "recommended configuration" in proc.stdout
    assert "tuner matched the exhaustive recommendation" in proc.stdout
    assert "autoscaler view" in proc.stdout


def test_quickstart_example():
    proc = run_example("quickstart.py", timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "Figure 3: Timeline of System Recovery" in proc.stdout
    assert "write amplification" in proc.stdout


def test_degraded_reads_example():
    proc = run_example("degraded_reads.py", timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "checking period" in proc.stdout
    assert "degraded" in proc.stdout


def test_silent_corruption_example():
    proc = run_example("silent_corruption.py", "--objects", "8")
    assert proc.returncode == 0, proc.stderr
    assert "bit_rot" in proc.stdout
    assert "misdirected_write" in proc.stdout
    assert "HEALTH_OK restored" in proc.stdout


def test_gray_failures_example():
    proc = run_example("gray_failures.py")
    assert proc.returncode == 0, proc.stderr
    assert "byte-identical" in proc.stdout
    assert "Flap dampening pinned OSD down" in proc.stdout
    assert "cut p99" in proc.stdout
