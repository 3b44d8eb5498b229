"""The log message bus between Loggers and the Coordinator (§3.3).

The paper ships classified log entries from per-node Loggers to the
Coordinator over Kafka.  This module models that pipeline: named topics,
per-topic FIFO delivery, and consumer offsets — enough structure that
the Logger's "filter locally, ship only relevant entries" behaviour and
the Coordinator's global merge are real data flows rather than function
calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

__all__ = ["BusMessage", "LogBus"]


@dataclass(frozen=True)
class BusMessage:
    """One message on a topic: producer, payload, and publish time."""

    topic: str
    producer: str
    time: float
    payload: Any


class LogBus:
    """A minimal Kafka-like bus: append-only topics plus consumer offsets."""

    def __init__(self):
        self._topics: Dict[str, List[BusMessage]] = {}
        self._offsets: Dict[tuple, int] = {}

    def topics(self) -> List[str]:
        return sorted(self._topics)

    def publish(self, topic: str, producer: str, time: float, payload: Any) -> BusMessage:
        """Append a message to a topic (topics auto-create)."""
        message = BusMessage(topic=topic, producer=producer, time=time, payload=payload)
        self._topics.setdefault(topic, []).append(message)
        return message

    def consume(self, topic: str, group: str = "coordinator") -> List[BusMessage]:
        """Fetch messages the group has not seen yet, advancing its offset."""
        log = self._topics.get(topic, [])
        key = (topic, group)
        offset = self._offsets.get(key, 0)
        new = log[offset:]
        self._offsets[key] = len(log)
        return new
