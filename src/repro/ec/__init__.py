"""Erasure-code substrate: real codes over GF(256) plus repair planning.

Importing this package registers every plugin (``jerasure``, ``isa``,
``clay``, ``lrc``, ``shec``) with the plugin registry, mirroring how a
Ceph build links its erasure-code plugins.
"""

from .base import (
    ChunkUnavailableError,
    ErasureCode,
    InsufficientChunksError,
    RepairPlan,
    RepairRead,
    available_plugins,
    create_plugin,
    register_plugin,
)
from .clay import ClayCode
from .lrc import LocallyRepairableCode
from .reed_solomon import IsaReedSolomon, ReedSolomon
from .repair import RepairTraffic, traffic_for_plan
from .shec import ShingledErasureCode

__all__ = [
    "ChunkUnavailableError",
    "ErasureCode",
    "InsufficientChunksError",
    "RepairPlan",
    "RepairRead",
    "available_plugins",
    "create_plugin",
    "register_plugin",
    "ClayCode",
    "LocallyRepairableCode",
    "ReedSolomon",
    "IsaReedSolomon",
    "ShingledErasureCode",
    "RepairTraffic",
    "traffic_for_plan",
]
