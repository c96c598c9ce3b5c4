"""repro — a simulation-based reproduction of
*Understanding Host Network Stack Overheads* (SIGCOMM 2021).

Public API quickstart::

    from repro import Experiment, ExperimentConfig, TrafficPattern

    config = ExperimentConfig(pattern=TrafficPattern.SINGLE)
    result = Experiment(config).run()
    print(result.summary())
    print(result.receiver_breakdown.as_rows())

Batches of independent configs parallelize and cache transparently::

    from repro import ResultCache, run_many

    results = run_many(configs, jobs=8, cache=ResultCache())

See ``repro.figures`` for generators reproducing every figure of the paper's
evaluation, and DESIGN.md for the system inventory.
"""

from .config import (
    CongestionControl,
    ExperimentConfig,
    HostConfig,
    LinkConfig,
    NicConfig,
    NumaPolicy,
    OptimizationConfig,
    SteeringMode,
    TcpConfig,
    TrafficPattern,
    WorkloadConfig,
)
from .core.cache import ResultCache
from .core.experiment import Experiment
from .core.metrics import MetricsHub
from .core.profiler import CpuProfiler
from .core.results import BreakdownTable, ExperimentResult
from .core.runner import RunnerStats, run_many
from .core.taxonomy import Category
from .costs.calibration import default_cost_model, zero_copy_cost_model
from .costs.model import CostModel

__version__ = "1.0.0"

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "BreakdownTable",
    "Category",
    "CongestionControl",
    "CostModel",
    "CpuProfiler",
    "HostConfig",
    "LinkConfig",
    "MetricsHub",
    "NicConfig",
    "NumaPolicy",
    "OptimizationConfig",
    "ResultCache",
    "RunnerStats",
    "SteeringMode",
    "TcpConfig",
    "TrafficPattern",
    "WorkloadConfig",
    "default_cost_model",
    "run_many",
    "zero_copy_cost_model",
    "__version__",
]
