"""Shared fixtures for integration tests.

Heavyweight scenario results are computed once per session and shared across
the assertions that consume them. The figure configs are one such sweep: the
golden-digest gate and the strict-audit gate read the same runs.
"""

from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.config import ExperimentConfig, OptimizationConfig, TrafficPattern
from repro.core.audit import AuditError, audit_experiment
from repro.core.experiment import Experiment
from repro.figures.base import harvest_configs
from repro.golden import golden_run
from repro.units import msec

DURATION = msec(6)


def run(config, warmup_ms=10):
    return Experiment(
        config.replace(duration_ns=DURATION, warmup_ns=msec(warmup_ms))
    ).run()


@pytest.fixture(scope="session")
def single_flow_result():
    """The §3.1 baseline: single flow, all optimizations."""
    return run(ExperimentConfig())


@pytest.fixture(scope="session")
def ladder_results():
    """Fig 3a: the four incremental optimization columns."""
    return {
        label: run(ExperimentConfig(opts=opts))
        for label, opts in OptimizationConfig.incremental_ladder()
    }


@pytest.fixture(scope="session")
def incast_results():
    """Fig 6: incast with 1 and 8 flows."""
    return {
        n: run(
            ExperimentConfig(pattern=TrafficPattern.INCAST, num_flows=n),
            warmup_ms=35,
        )
        for n in (1, 8)
    }


@pytest.fixture(scope="session")
def harvested_configs():
    """Every unique config the figure panels submit (full windows)."""
    return harvest_configs()


@dataclass
class FigureSweep:
    """Every harvested figure config, run once at the golden windows."""

    #: Cache key of the full-window config -> digest of its golden run.
    digests: Dict[str, str] = field(default_factory=dict)
    #: One message per config whose golden run fails the strict audit.
    audit_failures: List[str] = field(default_factory=list)


@pytest.fixture(scope="session")
def figure_sweep(harvested_configs):
    """Run each figure config once: digest its result, then strict-audit the
    same experiment."""
    sweep = FigureSweep()
    for config in harvested_configs:
        key, experiment, digest = golden_run(config)
        sweep.digests[key] = digest
        try:
            audit_experiment(experiment, strict=True)
        except AuditError as error:
            sweep.audit_failures.append(f"{config.to_canonical_dict()}:\n{error}")
    return sweep
