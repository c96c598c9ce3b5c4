"""The paper's primary contribution: CPU profiling harness, experiment runner,
metrics and reports for host network stack overheads."""

from .taxonomy import Category, categorize, FUNCTION_CATEGORY
from .profiler import CpuProfiler
from .metrics import SideMetrics
from .results import ExperimentResult, BreakdownTable
from .experiment import Experiment
from .cache import ResultCache, config_cache_key
from .runner import RunnerStats, run_many

__all__ = [
    "Category",
    "categorize",
    "FUNCTION_CATEGORY",
    "CpuProfiler",
    "SideMetrics",
    "ExperimentResult",
    "BreakdownTable",
    "Experiment",
    "ResultCache",
    "config_cache_key",
    "RunnerStats",
    "run_many",
]
