"""Every experiment setting is one that something varies.

A config field that takes one value in every figure config is a testbed
constant in disguise: it belongs in ``repro.constants`` (DESIGN.md §2), not
in ``ExperimentConfig``, where it widens the cache key and the config space
for nothing.

Likewise every ``CostModel`` constant is live: scaled by 1.25 through
``cost_overrides``, each moves some result of a small probe set, so a
sensitivity sweep over the constants measures something for each of them.
"""

import dataclasses
import json

import pytest

from repro.config import (
    CongestionControl,
    ExperimentConfig,
    HostConfig,
    LinkConfig,
    OptimizationConfig,
    SteeringMode,
    TcpConfig,
)
from repro.core.experiment import Experiment
from repro.costs.model import CostModel
from repro.golden import result_digest
from repro.units import msec

#: Leaves no panel varies, each with what does vary it.
EXEMPT = {
    "seed": "set by the benchmark's workload seeds and `repro run --seed`",
    "trace": "set by the benchmark's bulk_traced workload and `repro trace`",
    "duration_ns": "set by the golden windows and `repro run --duration-ms`",
}


def _leaf_paths(cls, prefix=""):
    """Dotted paths of every leaf field, nested config sections expanded."""
    for f in dataclasses.fields(cls):
        default = (
            f.default_factory() if f.default_factory is not dataclasses.MISSING
            else f.default
        )
        if dataclasses.is_dataclass(default):
            yield from _leaf_paths(type(default), f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def _value(canonical: dict, path: str) -> str:
    for name in path.split("."):
        canonical = canonical[name]
    return json.dumps(canonical, sort_keys=True)


def test_every_config_leaf_takes_two_values_across_the_figures(harvested_configs):
    paths = list(_leaf_paths(ExperimentConfig))
    assert set(EXEMPT) <= set(paths), "an exemption names no config field"
    canonicals = [config.to_canonical_dict() for config in harvested_configs]
    fixed = sorted(
        path for path in paths
        if path not in EXEMPT
        and len({_value(canonical, path) for canonical in canonicals}) < 2
    )
    assert not fixed, (
        f"config fields with one value in every figure config: {fixed}; "
        "make each a constant in repro.constants"
    )


def _probe(**fields) -> ExperimentConfig:
    return ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(1), **fields)


_NO_OPTS = OptimizationConfig(tso_gro=False, jumbo=False, arfs=False, lro=False)

#: Short configs that between them run every charged mechanism: the default
#: stack; no offloads under the IOMMU with the worst-case IRQ mapping
#: (remote-node copies and frees, contended socket lock); a lossy switched
#: link under BBR (retransmits, SACK, pacing); software RFS steering
#: (backlog enqueue on the IRQ core).
COST_PROBES = {
    "default": _probe(),
    "no-offloads-iommu": _probe(opts=_NO_OPTS, host=HostConfig(iommu_enabled=True)),
    "lossy-bbr": _probe(
        link=LinkConfig(loss_rate=0.015, has_switch=True),
        tcp=TcpConfig(congestion_control=CongestionControl.BBR),
    ),
    "rfs": _probe(
        opts=_NO_OPTS, steering=SteeringMode.RFS, worst_case_irq_mapping=False
    ),
}


@pytest.fixture(scope="module")
def probe_digests():
    return {
        name: result_digest(Experiment(config).run())
        for name, config in COST_PROBES.items()
    }


def _moves(name: str, probe_digests) -> bool:
    """Whether scaling cost ``name`` by 1.25 moves some probe's result."""
    scaled = getattr(CostModel(), name) * 1.25
    for probe, config in COST_PROBES.items():
        run = Experiment(config.replace(cost_overrides={name: scaled})).run()
        if result_digest(run) != probe_digests[probe]:
            return True
    return False


def test_every_cost_constant_moves_a_result(probe_digests):
    names = [f.name for f in dataclasses.fields(CostModel)]
    dead = [name for name in names if not _moves(name, probe_digests)]
    assert not dead, (
        f"cost constants that move no probe result when scaled by 1.25: {dead}; "
        "delete each, or add a probe config that charges it"
    )
