"""Pin over every observable effect of the fault injector.

One SHA-256 over the step records of a fixed scenario set, recorded
while ``FaultInjector.inject`` still drew each fault's victims twice
(once in a separate ``validate()`` guard, once to apply them).  Any
change to target selection, the white-box guards or the order in which
faults reach the Workers must reproduce it byte for byte.

A step record holds ``inject()``'s return value (or the exception's type
and message), the injector's ``injected_osds``, ``slowed_osds`` and
``partitioned_regions``, every OSD's ``host_running``, ``daemon_up``,
``disk.failed`` and ``disk.slow_factor``, every host NIC's degradation,
every WAN uplink's ``partitioned`` flag, the integrity store's corrupt
shards, the Byzantine digest section and the log records written since
the previous step.  A record is taken after each inject, after a 200 s
settle, and after each of two ``restore_all()`` calls.

Unknown explicit host and OSD targets are left out: their error is
covered by ``tests/test_fault_injector.py``.

The hash was re-recorded once, when repeated explicit targets began to
be refused: only the six ``*/single/4`` scenarios (``targets=[3, 3]``,
which used to shut host 3 down twice) changed their records.
"""

import hashlib
from collections import Counter

from repro.cluster import RadosClient
from repro.core.controller import Controller
from repro.core.digest import canonical_json
from repro.core.fault_injector import (
    FAULT_LEVELS,
    Colocation,
    CorruptionModel,
    FaultSpec,
)
from repro.core.profile import ExperimentProfile

MB = 1024 * 1024
OBJECTS = 40
SETTLE = 200.0

#: SHA-256 over the canonical JSON of every scenario's step records.
PINNED_INJECTOR_HASH = (
    "1d50dca2f6cbb0e34ea729f50133822e6259281dc2af1ee59b8350932b0f2ac7"
)


def _profile(name, **overrides):
    fields = dict(
        name=name, ec_params={"k": 4, "m": 2}, pg_num=16,
        num_hosts=10, osds_per_host=3,
    )
    fields.update(overrides)
    return ExperimentProfile(**fields)


PROFILES = {
    "host": _profile("host"),
    "host-scrub": _profile("host-scrub", scrub_interval=120.0),
    "osd": _profile("osd", failure_domain="osd", num_hosts=4,
                    osds_per_host=4),
    "rack": _profile("rack", failure_domain="rack", num_hosts=16,
                     osds_per_host=2, num_racks=8),
    "regions": _profile("regions", num_hosts=12, osds_per_host=2,
                        num_regions=3),
    "clay": _profile("clay", ec_plugin="clay",
                     ec_params={"k": 4, "m": 2, "d": 5}, num_hosts=9,
                     osds_per_host=2, scrub_interval=120.0),
}

SAME = Colocation.SAME_HOST
DIFF = Colocation.DIFFERENT_HOSTS

#: Each spec runs alone on a fresh cluster of every profile.
SINGLE_SPECS = [
    FaultSpec(level="node"),
    FaultSpec(level="node", count=2),
    FaultSpec(level="node", count=3),
    FaultSpec(level="node", count=2, targets=[1, 2]),
    FaultSpec(level="node", count=2, targets=[3, 3]),
    FaultSpec(level="device"),
    FaultSpec(level="device", count=2),
    FaultSpec(level="device", count=2, colocation=SAME),
    FaultSpec(level="device", count=2, colocation=DIFF),
    FaultSpec(level="device", count=3),
    FaultSpec(level="device", count=3, colocation=SAME),
    FaultSpec(level="device", count=3, colocation=DIFF),
    FaultSpec(level="device", count=2, targets=[5, 9]),
    FaultSpec(level="corrupt"),
    FaultSpec(level="corrupt", count=2,
              corruption=CorruptionModel.TORN_WRITE),
    FaultSpec(level="corrupt", count=3),
    FaultSpec(level="corrupt", count=2, targets=[0, 3]),
    FaultSpec(level="corrupt", count=2, targets=[1, 9]),
    FaultSpec(level="slow_device"),
    FaultSpec(level="slow_device", count=2, colocation=SAME, factor=8.0),
    FaultSpec(level="slow_device", count=3, targets=[4, 6, 7]),
    FaultSpec(level="net_degrade", loss=0.2),
    FaultSpec(level="net_degrade", count=2, partition=True),
    FaultSpec(level="net_degrade", count=3, latency=0.01),
    FaultSpec(level="net_degrade", targets=[2], bandwidth_penalty=4.0),
    FaultSpec(level="flap"),
    FaultSpec(level="flap", count=2, colocation=DIFF, flap_interval=30.0),
    FaultSpec(level="flap", count=3),
    FaultSpec(level="flap", targets=[8]),
    FaultSpec(level="region_outage"),
    FaultSpec(level="region_outage", targets=[1]),
    FaultSpec(level="region_outage", targets=[7]),
    FaultSpec(level="wan_partition"),
    FaultSpec(level="wan_partition", count=2),
    FaultSpec(level="byz_corrupt_data"),
    FaultSpec(level="byz_corrupt_data", count=2),
    FaultSpec(level="byz_false_ack"),
    FaultSpec(level="byz_false_ack", count=2, targets=[0, 5]),
    FaultSpec(level="byz_false_ack", count=3),
    FaultSpec(level="byz_stale_map"),
    FaultSpec(level="byz_stale_map", count=2),
    FaultSpec(level="byz_stale_map", targets=[10]),
    FaultSpec(level="correlated_crash"),
    FaultSpec(level="correlated_crash", domain="rack"),
    FaultSpec(level="correlated_crash", count=2, targets=[0, 1]),
    FaultSpec(level="correlated_crash", targets=[99]),
]

#: Each sequence runs its specs in order on a fresh cluster.
STACKS = [
    # crash on crash
    [FaultSpec(level="node"), FaultSpec(level="node"),
     FaultSpec(level="node"), FaultSpec(level="device")],
    # gray, then crash
    [FaultSpec(level="net_degrade", partition=True),
     FaultSpec(level="slow_device"), FaultSpec(level="flap"),
     FaultSpec(level="node"), FaultSpec(level="device")],
    # corruption, then crash
    [FaultSpec(level="corrupt"), FaultSpec(level="node"),
     FaultSpec(level="node"), FaultSpec(level="corrupt", count=2)],
    # Byzantine stacks
    [FaultSpec(level="byz_false_ack"), FaultSpec(level="byz_corrupt_data"),
     FaultSpec(level="byz_stale_map"), FaultSpec(level="byz_stale_map"),
     FaultSpec(level="node")],
    # held OSDs, then corruption
    [FaultSpec(level="flap"), FaultSpec(level="byz_stale_map"),
     FaultSpec(level="corrupt", count=2), FaultSpec(level="corrupt")],
    # geo stacks
    [FaultSpec(level="wan_partition"), FaultSpec(level="region_outage"),
     FaultSpec(level="node"), FaultSpec(level="wan_partition")],
    # rack cascades
    [FaultSpec(level="correlated_crash", domain="rack"),
     FaultSpec(level="correlated_crash"), FaultSpec(level="device")],
    # repeated slow targets
    [FaultSpec(level="slow_device", targets=[3]),
     FaultSpec(level="slow_device", targets=[3]),
     FaultSpec(level="slow_device", count=2)],
    # repeated flap targets
    [FaultSpec(level="flap", targets=[4]),
     FaultSpec(level="flap", targets=[4]), FaultSpec(level="device")],
    # repeated net targets
    [FaultSpec(level="net_degrade", targets=[1], loss=0.1),
     FaultSpec(level="net_degrade", targets=[1], latency=0.02),
     FaultSpec(level="node", targets=[1])],
]

#: Degraded writes race a node fault; these follow once they are stale.
WRITES = "writes"
RESTORE = "restore"
STALE_FOLLOW_UPS = [
    FaultSpec(level="node", count=2),
    FaultSpec(level="corrupt", count=2),
    FaultSpec(level="flap", count=2),
    FaultSpec(level="region_outage"),
]


def _scenarios():
    for name in sorted(PROFILES):
        for index, spec in enumerate(SINGLE_SPECS):
            yield f"{name}/single/{index}", name, [spec]
        for index, stack in enumerate(STACKS):
            yield f"{name}/stack/{index}", name, stack
        for index, follow in enumerate(STALE_FOLLOW_UPS):
            yield (f"{name}/stale-held/{index}", name,
                   [FaultSpec(level="node"), WRITES, follow])
            yield (f"{name}/stale-restored/{index}", name,
                   [FaultSpec(level="node"), WRITES, RESTORE, follow])


def _state(cluster, injector):
    topology = cluster.topology
    corrupt = []
    for pg in cluster.pool.pgs.values():
        for obj in pg.objects:
            shards = cluster.integrity.corrupt_shards(pg.pgid, obj.name)
            if shards:
                corrupt.append([pg.pgid, obj.name, sorted(shards)])
    nics = []
    for host_id in sorted(topology.hosts):
        degradation = topology.hosts[host_id].nic.degradation
        nics.append(None if degradation is None else [
            degradation.loss, degradation.latency,
            degradation.bandwidth_penalty, degradation.partition,
        ])
    byz = cluster.byzantine
    return {
        "injected": sorted(injector.injected_osds),
        "slowed": sorted(injector.slowed_osds),
        "partitioned": sorted(injector.partitioned_regions),
        "osds": [
            [osd.host_running, osd.daemon_up, osd.disk.failed,
             osd.disk.slow_factor]
            for _, osd in sorted(cluster.osds.items())
        ],
        "nics": nics,
        "wan": None if topology.wan is None else [
            uplink.partitioned for uplink in topology.wan.uplinks
        ],
        "corrupt": corrupt,
        "byzantine": None if byz is None else byz.digest_section(),
    }


def _new_records(cluster, seen):
    records = []
    for log in cluster.all_logs():
        start = seen.get(log.node, 0)
        records.extend(
            [r.time, r.node, r.subsystem, r.message, repr(r.fields)]
            for r in log.records[start:]
        )
        seen[log.node] = len(log.records)
    return records


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the pin records refusals and failures
        return [type(exc).__name__, str(exc)]


def _run(profile_name, actions, tally):
    controller = Controller(PROFILES[profile_name], seed=11)
    env, cluster = controller.env, controller.cluster
    injector = controller.fault_injector
    for i in range(OBJECTS):
        cluster.ingest_object(f"obj-{i}", MB)
    seen = {}
    steps = []

    def record(label, result):
        steps.append([label, result, _state(cluster, injector),
                      _new_records(cluster, seen)])

    for action in actions:
        if action == WRITES:
            env.run(until=env.now + 60.0)
            client = RadosClient(cluster)
            results = [
                _call(env.run_until_process, client.write_object(f"obj-{i}"))
                for i in range(12)
            ]
            record(WRITES, [isinstance(r, list) for r in results])
        elif action == RESTORE:
            record(RESTORE, _call(injector.restore_all))
        else:
            result = _call(injector.inject, action)
            applied = not (result and isinstance(result[0], str))
            tally[(action.level, applied)] += 1
            record(action.level, result)
    env.run(until=env.now + SETTLE)
    record("settle", env.now)
    record("restore", _call(injector.restore_all))
    record("restore", _call(injector.restore_all))
    return steps


def _pin():
    tally = Counter()
    records = [
        [label, _run(profile_name, actions, tally)]
        for label, profile_name, actions in _scenarios()
    ]
    digest = hashlib.sha256(canonical_json(records).encode()).hexdigest()
    return digest, tally


def test_injector_effects_pinned():
    digest, tally = _pin()
    # Every level is both applied and refused somewhere, so the pin
    # covers the apply paths and the guards alike.
    for level in FAULT_LEVELS:
        assert tally[(level, True)] > 0, level
        assert tally[(level, False)] > 0, level
    assert digest == PINNED_INJECTOR_HASH
