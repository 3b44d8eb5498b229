"""iostat-style per-device I/O statistics collection (§3.3).

ECFault runs ``iostat`` on every DSS server; here a kernel timer walks
the simulated disks on a fixed interval and records deltas, yielding the
same per-device time series (ops and bytes per interval) the real
framework parses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..sim import Environment
from ..cluster.devices import Disk

__all__ = ["IoSample", "IostatCollector"]


@dataclass(frozen=True)
class IoSample:
    """One interval's delta counters for one device."""

    time: float
    device: str
    read_ops: int
    write_ops: int
    read_bytes: int
    written_bytes: int
    interval: float


class IostatCollector:
    """Samples a set of disks every ``interval`` simulated seconds."""

    def __init__(self, env: Environment, disks: Dict[str, Disk], interval: float = 10.0):
        self.env = env
        self.disks = dict(disks)
        self.interval = interval
        self.samples: List[IoSample] = []
        self._last: Dict[str, tuple] = {
            name: (d.read_ops, d.write_ops, d.read_bytes, d.written_bytes)
            for name, d in self.disks.items()
        }
        env.every(interval, self._sample)

    def _sample(self, _arg: None = None) -> None:
        now = self.env.now
        for name, disk in self.disks.items():
            prev = self._last[name]
            current = (disk.read_ops, disk.write_ops, disk.read_bytes, disk.written_bytes)
            self._last[name] = current
            self.samples.append(
                IoSample(
                    time=now,
                    device=name,
                    read_ops=current[0] - prev[0],
                    write_ops=current[1] - prev[1],
                    read_bytes=current[2] - prev[2],
                    written_bytes=current[3] - prev[3],
                    interval=self.interval,
                )
            )

    def busiest_devices(self, top: int = 5) -> List[str]:
        """Devices ranked by total bytes moved across all samples."""
        totals: Dict[str, int] = {}
        for sample in self.samples:
            totals[sample.device] = (
                totals.get(sample.device, 0)
                + sample.read_bytes
                + sample.written_bytes
            )
        ranked = sorted(totals, key=lambda name: totals[name], reverse=True)
        return ranked[:top]
