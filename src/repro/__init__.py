"""ECFault: configuration-sensitivity analysis of erasure-coded storage.

Reproduction of "Revisiting Erasure Codes: A Configuration Perspective"
(HotStorage '24).  See DESIGN.md for the system inventory, EXPERIMENTS.md
for the paper-vs-measured record, and docs/ARCHITECTURE.md for the
layering.

The most common entry points are re-exported here::

    from repro import ExperimentProfile, FaultSpec, Workload, run_experiment

    profile = ExperimentProfile(ec_plugin="clay",
                                ec_params={"k": 9, "m": 3, "d": 11})
    outcome = run_experiment(profile,
                             Workload(num_objects=2000),
                             [FaultSpec(level="node")])
"""

from .core.experiment import run_experiment
from .core.fault_injector import Colocation, FaultSpec
from .core.profile import ExperimentProfile
from .workload.generator import Workload

__version__ = "1.0.0"

__all__ = [
    "Colocation",
    "ExperimentProfile",
    "FaultSpec",
    "Workload",
    "run_experiment",
    "__version__",
]
