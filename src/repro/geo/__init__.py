"""Geo-distributed stretch clusters: regions, WAN links, egress costs.

This package adds the geo axis on top of the single-datacenter model:

- :mod:`repro.geo.wan` — the :class:`WanFabric`, a drop-in
  :class:`~repro.cluster.network.Fabric` that routes cross-region
  transfers through per-region WAN uplinks (asymmetric bandwidth,
  propagation latency, per-byte egress-cost ledger) while intra-region
  transfers keep the existing single-hop charge sequence byte-for-byte.
- :mod:`repro.geo.rules` — :class:`RegionRule`, the CRUSH region-spanning
  placement rule ("pick R regions, host-spread within each").
- :mod:`repro.geo.experiment` — the seeded stretch-cluster experiment
  behind ``ecfault run --regions`` with its canonical digest.

The package initialiser stays import-light (only specs and rules) so the
cluster layer can depend on it without cycles; the experiment module is
loaded lazily on first attribute access.
"""

from __future__ import annotations

from .rules import RegionRule
from .wan import (
    DEFAULT_WAN,
    EgressLedger,
    WanFabric,
    WanSpec,
    WanUplink,
)

__all__ = [
    "RegionRule",
    "WanSpec",
    "WanUplink",
    "WanFabric",
    "EgressLedger",
    "DEFAULT_WAN",
    "GeoOutcome",
    "run_stretch_experiment",
]

_LAZY = {"GeoOutcome", "run_stretch_experiment"}


def __getattr__(name: str):
    # The experiment module pulls in the controller stack, which in turn
    # imports the cluster layer that imports this package — resolve it
    # lazily to keep the import graph acyclic.
    if name in _LAZY:
        from . import experiment

        return getattr(experiment, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
