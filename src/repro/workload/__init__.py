"""Workload generation and I/O statistics collection."""

from .generator import PAPER_DEFAULT, ObjectWrite, Workload
from .iostat import IoSample, IostatCollector

__all__ = [
    "PAPER_DEFAULT",
    "ObjectWrite",
    "Workload",
    "IoSample",
    "IostatCollector",
]
