"""Recovery-cycle timeline analysis (the paper's §4.3 / Figure 3).

Segments one system recovery cycle from the merged, classified logs —
the same way the paper annotates Figure 3 with MGR/OSD log lines:

* ``failure detected`` — MON marks the OSD down (t = 0 of Figure 3);
* **System Checking Period** — heartbeats, the down->out interval,
  resource checks, collecting missing OSDs, queueing, peering;
* ``EC Recovery started`` — the first "start recovery I/O" line;
* **EC Recovery Period** — the actual repair reads/decodes/writes;
* ``EC Recovery finished`` — the last "recovery completed" line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .logger import LogCollector

__all__ = [
    "RecoveryTimeline",
    "ScrubTimeline",
    "FlapTimeline",
    "TimelineError",
    "build_timeline",
    "build_scrub_timeline",
    "build_flap_timeline",
    "first_nonmonotone",
]


def first_nonmonotone(records) -> Optional[int]:
    """Index of the first record whose timestamp runs backwards, or None.

    Per-node logs are append-only and the simulation clock never rewinds,
    so every in-order scan of one node's records must be non-decreasing
    in time — the timeline-monotonicity invariant the chaos harness
    asserts after every campaign step.
    """
    last = None
    for index, record in enumerate(records):
        if last is not None and record.time < last:
            return index
        last = record.time
    return None


class TimelineError(RuntimeError):
    """The logs do not contain a complete recovery cycle."""


@dataclass(frozen=True)
class RecoveryTimeline:
    """Absolute timestamps of one recovery cycle plus derived metrics."""

    fault_injected: Optional[float]
    failure_detected: float
    marked_out: float
    recovery_queued: float
    ec_recovery_started: float
    ec_recovery_finished: float

    @property
    def checking_period(self) -> float:
        """Detection -> first recovery I/O (the paper's checking period)."""
        return self.ec_recovery_started - self.failure_detected

    @property
    def ec_recovery_period(self) -> float:
        return self.ec_recovery_finished - self.ec_recovery_started

    @property
    def total_recovery(self) -> float:
        """The overall system recovery period (detection -> finished)."""
        return self.ec_recovery_finished - self.failure_detected

    @property
    def checking_fraction(self) -> float:
        """Share of the cycle spent checking (41%-58% in the paper)."""
        if self.total_recovery <= 0:
            return 0.0
        return self.checking_period / self.total_recovery

    def annotations(self) -> List[Tuple[float, str]]:
        """(relative time, label) pairs matching Figure 3's annotations."""
        zero = self.failure_detected
        return [
            (0.0, "Failure detected"),
            (self.marked_out - zero, "OSD marked out (osdmap change)"),
            (self.recovery_queued - zero, "collecting missing OSDs, queueing recovery"),
            (self.ec_recovery_started - zero, "EC Recovery started"),
            (self.ec_recovery_finished - zero, "EC Recovery finished"),
        ]


@dataclass(frozen=True)
class ScrubTimeline:
    """Timestamps of one silent-corruption cycle: inject -> detect -> heal.

    The Fig-3-style breakdown gains a *scrub band*: nothing in the
    cluster reacts between injection and the deep scrub that reads the
    damaged chunk (the **detection period**, governed by the scrub
    interval — the corruption analogue of the paper's System Checking
    Period), then the **repair period** covers the EC decode-repair
    until health returns to OK.
    """

    corruption_injected: Optional[float]
    error_detected: float
    pg_inconsistent: float
    repair_started: float
    repair_finished: float
    health_ok: float

    @property
    def detection_period(self) -> float:
        """Injection -> first checksum mismatch (scrub-interval bound)."""
        if self.corruption_injected is None:
            return 0.0
        return self.error_detected - self.corruption_injected

    @property
    def repair_period(self) -> float:
        return self.repair_finished - self.repair_started

    @property
    def total_cycle(self) -> float:
        """Injection (or detection) -> health back to OK."""
        zero = (
            self.corruption_injected
            if self.corruption_injected is not None
            else self.error_detected
        )
        return self.health_ok - zero

    @property
    def detection_fraction(self) -> float:
        """Share of the cycle spent waiting for scrub to find the damage."""
        if self.total_cycle <= 0:
            return 0.0
        return self.detection_period / self.total_cycle

    def annotations(self) -> List[Tuple[float, str]]:
        """(relative time, label) pairs for a Figure-3-style scrub band."""
        zero = (
            self.corruption_injected
            if self.corruption_injected is not None
            else self.error_detected
        )
        marks: List[Tuple[float, str]] = []
        if self.corruption_injected is not None:
            marks.append((0.0, "Silent corruption injected"))
        marks.extend(
            [
                (self.error_detected - zero, "Scrub detected checksum mismatch"),
                (self.pg_inconsistent - zero, "PG marked inconsistent (HEALTH_ERR)"),
                (self.repair_started - zero, "Scrub repair started (HEALTH_WARN)"),
                (self.repair_finished - zero, "Scrub repair finished"),
                (self.health_ok - zero, "HEALTH_OK restored"),
            ]
        )
        return marks


@dataclass(frozen=True)
class FlapTimeline:
    """Timestamps of one flapping-OSD cycle: flap -> dampening -> settle.

    The Fig-3-style breakdown gains a *gray band*: an oscillating daemon
    thrashes the failure detector (each flap-down eventually costs a
    markdown and an osdmap epoch) until the monitor's markdown budget
    runs out and flap dampening pins the OSD down.  From the pin onward
    the cycle looks like an ordinary crash: down->out interval, optional
    mark-out and recovery, then mark-in and convergence after restore.
    """

    flap_started: Optional[float]
    first_markdown: float
    pinned: float
    markdowns_before_pin: int
    marked_out: Optional[float] = None
    marked_in: Optional[float] = None
    health_ok: Optional[float] = None

    def annotations(self) -> List[Tuple[float, str]]:
        """(relative time, label) pairs for a Figure-3-style gray band."""
        zero = (
            self.flap_started
            if self.flap_started is not None
            else self.first_markdown
        )
        marks: List[Tuple[float, str]] = []
        if self.flap_started is not None:
            marks.append((0.0, "OSD daemon started flapping"))
        marks.extend(
            [
                (self.first_markdown - zero, "First markdown (detector thrash)"),
                (
                    self.pinned - zero,
                    f"Flap dampening pinned OSD down "
                    f"({self.markdowns_before_pin} markdowns)",
                ),
            ]
        )
        if self.marked_out is not None:
            marks.append((self.marked_out - zero, "OSD marked out (osdmap change)"))
        if self.marked_in is not None:
            marks.append((self.marked_in - zero, "OSD marked in after restore"))
        if self.health_ok is not None:
            marks.append((self.health_ok - zero, "HEALTH_OK restored"))
        return marks


def build_timeline(collector: LogCollector) -> RecoveryTimeline:
    """Extract the recovery timeline from collected logs.

    Raises :class:`TimelineError` when a phase marker is missing (e.g.,
    the experiment ended before recovery finished).
    """
    injected = collector.first_matching("shutdown") or collector.first_matching(
        "removed nvme"
    )
    detected = collector.first_matching("marking down")
    out = collector.first_matching("marking osd out")
    queued = collector.first_matching("queueing recovery")
    started = collector.first_matching("start recovery i/o")
    finished = collector.last_matching("recovery completed")
    missing = [
        name
        for name, record in (
            ("failure detection", detected),
            ("mark-out", out),
            ("recovery queueing", queued),
            ("recovery start", started),
            ("recovery completion", finished),
        )
        if record is None
    ]
    if missing:
        raise TimelineError(f"incomplete recovery cycle; missing: {missing}")
    return RecoveryTimeline(
        fault_injected=injected.time if injected else None,
        failure_detected=detected.time,
        marked_out=out.time,
        recovery_queued=queued.time,
        ec_recovery_started=started.time,
        ec_recovery_finished=finished.time,
    )


def build_scrub_timeline(collector: LogCollector) -> ScrubTimeline:
    """Extract the silent-corruption cycle from collected logs.

    Raises :class:`TimelineError` when a phase marker is missing (e.g.,
    scrub was disabled, or the experiment ended mid-repair).
    """
    injected = collector.first_matching("silent corruption")
    detected = collector.first_matching("scrub error")
    inconsistent = collector.first_matching("pg inconsistent")
    repair_started = collector.first_matching("scrub repair started")
    repair_finished = collector.last_matching("scrub repair completed")
    health_ok = collector.last_matching("cluster health now health_ok")
    missing = [
        name
        for name, record in (
            ("scrub error detection", detected),
            ("pg inconsistent mark", inconsistent),
            ("scrub repair start", repair_started),
            ("scrub repair completion", repair_finished),
            ("health-ok restoration", health_ok),
        )
        if record is None
    ]
    if missing:
        raise TimelineError(f"incomplete scrub cycle; missing: {missing}")
    return ScrubTimeline(
        corruption_injected=injected.time if injected else None,
        error_detected=detected.time,
        pg_inconsistent=inconsistent.time,
        repair_started=repair_started.time,
        repair_finished=repair_finished.time,
        health_ok=health_ok.time,
    )


def build_flap_timeline(collector: LogCollector) -> FlapTimeline:
    """Extract the flapping-OSD cycle from collected logs.

    Raises :class:`TimelineError` when the cycle is incomplete — the OSD
    never flapped long enough to be marked down, or the markdown budget
    never ran out so dampening never pinned it.
    """
    flap_started = collector.first_matching("flapped down")
    first_markdown = collector.first_matching("marking down")
    pinned = collector.first_matching("flapping osd pinned")
    missing = [
        name
        for name, record in (
            ("first markdown", first_markdown),
            ("dampening pin", pinned),
        )
        if record is None
    ]
    if missing:
        raise TimelineError(f"incomplete flap cycle; missing: {missing}")
    markdowns_before_pin = sum(
        1
        for record in collector.records
        if "marking down" in record.record.message.lower()
        and record.time <= pinned.time
    )
    marked_out = collector.first_matching("marking osd out")
    marked_in = collector.last_matching("marking in")
    health_ok = collector.last_matching("cluster health now health_ok")
    return FlapTimeline(
        flap_started=flap_started.time if flap_started else None,
        first_markdown=first_markdown.time,
        pinned=pinned.time,
        markdowns_before_pin=markdowns_before_pin,
        marked_out=marked_out.time if marked_out else None,
        marked_in=marked_in.time if marked_in else None,
        health_ok=health_ok.time if health_ok else None,
    )
