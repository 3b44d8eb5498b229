"""DSS logs, keyword classification, the log bus, and global merge."""

import pytest

from repro.cluster import LogRecord, NodeLog
from repro.core import LogBus, LogCollector, NodeLogger, classify


def test_node_log_emit_and_fields():
    log = NodeLog("host.1")
    record = log.emit(12.5, "osd", "start recovery I/O", pg="1.a", objects=3)
    assert record.time == 12.5
    assert record.node == "host.1"
    assert record.field("pg") == "1.a"
    assert record.field("missing", "default") == "default"
    assert len(log) == 1
    assert "start recovery I/O" in str(record)


def test_classification_keywords():
    def rec(message):
        return LogRecord(0.0, "n", "osd", message)

    assert classify(rec("no heartbeats from osd, marking down")) == "failure"
    assert classify(rec("marking osd out after down interval")) == "osdmap"
    assert classify(rec("start recovery I/O")) == "recovery"
    assert classify(rec("decoding shard 3")) == "decoding"
    assert classify(rec("provisioned virtual NVMe namespaces")) == "provisioning"
    assert classify(rec("unrelated chatter")) is None


def test_logger_filters_irrelevant_entries():
    log = NodeLog("host.0")
    bus = LogBus()
    logger = NodeLogger(log, bus)
    log.emit(1.0, "osd", "start recovery I/O")
    log.emit(2.0, "osd", "something boring")
    shipped = logger.flush()
    assert shipped == 1
    assert logger.dropped == 1
    assert len(bus.consume("ecfault.logs.recovery", "x")) == 1


def test_logger_flush_is_incremental():
    log = NodeLog("host.0")
    bus = LogBus()
    logger = NodeLogger(log, bus)
    log.emit(1.0, "osd", "recovery completed")
    assert logger.flush() == 1
    assert logger.flush() == 0  # nothing new
    log.emit(2.0, "osd", "recovery completed")
    assert logger.flush() == 1


def test_bus_topics_and_offsets():
    bus = LogBus()
    bus.publish("t1", "p", 1.0, "a")
    bus.publish("t1", "p", 2.0, "b")
    got = bus.consume("t1", group="g")
    assert [m.payload for m in got] == ["a", "b"]
    assert bus.consume("t1", group="g") == []
    # Independent group sees everything.
    assert len(bus.consume("t1", group="other")) == 2
    assert bus.consume("t1", group="fresh")[0].producer == "p"
    assert bus.topics() == ["t1"]


def test_collector_global_merge_sorts_by_time():
    bus = LogBus()
    log_a, log_b = NodeLog("host.a"), NodeLog("host.b")
    log_a.emit(5.0, "osd", "recovery completed")
    log_b.emit(2.0, "osd", "start recovery I/O")
    log_b.emit(9.0, "osd", "recovery completed")
    for log in (log_a, log_b):
        NodeLogger(log, bus).flush()
    collector = LogCollector(bus)
    assert collector.collect() == 3
    times = [r.time for r in collector.records]
    assert times == sorted(times)


def test_collector_queries():
    bus = LogBus()
    log = NodeLog("mon.0")
    log.emit(1.0, "mon", "no heartbeats from osd, marking down")
    log.emit(3.0, "osd", "start recovery I/O")
    log.emit(7.0, "osd", "recovery completed")
    log.emit(9.0, "osd", "recovery completed")
    NodeLogger(log, bus).flush()
    collector = LogCollector(bus)
    collector.collect()
    assert collector.first_matching("marking down").time == 1.0
    assert collector.last_matching("recovery completed").time == 9.0
    assert collector.first_matching("nonexistent") is None
    assert len(collector.of_class("recovery")) == 3
    assert len(collector.of_class("failure")) == 1


def test_collector_incremental_collect():
    bus = LogBus()
    log = NodeLog("h")
    logger = NodeLogger(log, bus)
    collector = LogCollector(bus)
    log.emit(1.0, "osd", "recovery completed")
    logger.flush()
    assert collector.collect() == 1
    log.emit(2.0, "osd", "recovery completed")
    logger.flush()
    assert collector.collect() == 1
    assert len(collector.records) == 2
