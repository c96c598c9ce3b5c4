"""Ablations of the model's mechanisms, beyond the paper's figures.

Each panel isolates one mechanism on the single-flow workload so its
contribution to the headline results is visible:

 ablation_steering      all four Table-2 steering mechanisms,
 ablation_lro           NIC-side LRO vs software GRO (the paper's footnote 3),
 ablation_dca_dilution  the descriptor-footprint dilution exponent behind Fig 3e,
 ablation_zero_copy     the §4 what-if: a receive path without the user-space copy.
"""

from __future__ import annotations

import dataclasses

from ..config import (
    ExperimentConfig,
    HostConfig,
    NicConfig,
    OptimizationConfig,
    SteeringMode,
    TcpConfig,
)
from ..core.report import Table
from ..core.taxonomy import Category
from ..costs.calibration import zero_copy_cost_model
from ..units import kb
from .base import pct, run_all

#: DCA dilution exponents swept (0.25 is the calibrated default).
DILUTION_EXPONENTS = (0.0, 0.25, 1.0)


def ablation_steering() -> Table:
    """All four Table-2 steering mechanisms on the single-flow workload."""
    table = Table(
        "Ablation: flow steering mechanisms (single flow)",
        ["mechanism", "thpt_per_core_gbps", "miss_rate", "receiver_cores"],
    )
    cases = [
        ("aRFS", ExperimentConfig(opts=OptimizationConfig.all())),
        (
            "RFS",
            ExperimentConfig(
                opts=OptimizationConfig.tso_gro_jumbo(),
                worst_case_irq_mapping=False,
                steering=SteeringMode.RFS,
            ),
        ),
        (
            "RSS/RPS",
            ExperimentConfig(
                opts=OptimizationConfig.tso_gro_jumbo(),
                worst_case_irq_mapping=False,
                steering=SteeringMode.RSS,
            ),
        ),
        (
            "RSS (worst-case pin)",
            ExperimentConfig(opts=OptimizationConfig.tso_gro_jumbo()),
        ),
    ]
    results = run_all([config for _, config in cases])
    for (label, _), result in zip(cases, results):
        table.add_row(
            label,
            result.throughput_per_core_gbps,
            pct(result.receiver_cache_miss_rate),
            result.receiver_utilization_cores,
        )
    return table


def ablation_lro() -> Table:
    """Footnote 3: NIC-side LRO vs software GRO."""
    table = Table(
        "Ablation: LRO (NIC merge) vs GRO (software merge)",
        ["receive_offload", "thpt_per_core_gbps", "netdev_fraction"],
    )
    cases = (
        ("GRO", OptimizationConfig.all()),
        ("LRO", OptimizationConfig(tso_gro=True, jumbo=True, arfs=True, lro=True)),
    )
    results = run_all([ExperimentConfig(opts=opts) for _, opts in cases])
    for (label, _), result in zip(cases, results):
        table.add_row(
            label,
            result.throughput_per_core_gbps,
            result.receiver_breakdown.fraction(Category.NETDEV),
        )
    return table


def ablation_dca_dilution() -> Table:
    """The descriptor-footprint dilution model behind Fig 3e."""
    table = Table(
        "Ablation: DCA dilution exponent (ring=8192, static 3200KB buffer)",
        ["dilution_exponent", "thpt_gbps", "miss_rate"],
    )
    results = run_all([
        ExperimentConfig(
            host=HostConfig(dca_dilution_exponent=exponent),
            nic=NicConfig(rx_descriptors=8192),
            tcp=TcpConfig(rx_buffer_bytes=kb(3200)),
        )
        for exponent in DILUTION_EXPONENTS
    ])
    for exponent, result in zip(DILUTION_EXPONENTS, results):
        table.add_row(
            exponent,
            result.total_throughput_gbps,
            pct(result.receiver_cache_miss_rate),
        )
    return table


def ablation_zero_copy() -> Table:
    """§4 what-if: receiver-side zero copy."""
    table = Table(
        "Ablation: zero-copy receive path (paper §4)",
        ["stack", "thpt_per_core_gbps"],
    )
    baseline, zero = run_all([
        ExperimentConfig(),
        ExperimentConfig(cost_overrides=dataclasses.asdict(zero_copy_cost_model())),
    ])
    table.add_row("in-kernel copies", baseline.throughput_per_core_gbps)
    table.add_row("zero-copy", zero.throughput_per_core_gbps)
    return table
