"""Deterministic discrete-event simulation substrate.

This subpackage is the clock everything else runs on: a generator-based
event kernel (:mod:`repro.sim.engine`), contention primitives
(:mod:`repro.sim.resources`), and seeded random streams
(:mod:`repro.sim.rng`).
"""

from .engine import AllOf, AnyOf, Chain, Environment, Event, Interrupt, Process, Timeout
from .resources import Resource, ServiceCenter
from .rng import SeedSequence, substream_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Chain",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "Resource",
    "ServiceCenter",
    "SeedSequence",
    "substream_seed",
]
