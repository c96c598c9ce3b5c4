"""Unit tests for experiment configuration."""

import pytest

from repro.config import (
    ExperimentConfig,
    LinkConfig,
    OptimizationConfig,
    TrafficPattern,
)
from repro.constants import DEFAULT_MTU, JUMBO_MTU


def test_default_config_is_valid():
    ExperimentConfig().validate()


def test_optimization_presets():
    none = OptimizationConfig.none()
    assert not none.tso_gro and not none.jumbo and not none.arfs
    allopt = OptimizationConfig.all()
    assert allopt.tso_gro and allopt.jumbo and allopt.arfs


def test_incremental_ladder_order():
    labels = [label for label, _ in OptimizationConfig.incremental_ladder()]
    assert labels == ["No Opt.", "+TSO/GRO", "+Jumbo", "+aRFS"]


def test_ladder_is_incremental():
    ladder = [opts for _, opts in OptimizationConfig.incremental_ladder()]
    enabled_counts = [
        sum((o.tso_gro, o.jumbo, o.arfs)) for o in ladder
    ]
    assert enabled_counts == [0, 1, 2, 3]


def test_mtu_follows_jumbo_flag():
    assert OptimizationConfig.none().mtu == DEFAULT_MTU
    assert OptimizationConfig.all().mtu == JUMBO_MTU


def test_replace_returns_modified_copy():
    config = ExperimentConfig()
    other = config.replace(num_flows=4, pattern=TrafficPattern.INCAST)
    assert other.num_flows == 4
    assert other.pattern is TrafficPattern.INCAST
    assert config.num_flows == 1  # original untouched


def test_validate_rejects_zero_flows():
    with pytest.raises(ValueError):
        ExperimentConfig(num_flows=0).validate()


def test_validate_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        ExperimentConfig(duration_ns=0).validate()


def test_validate_rejects_negative_warmup():
    with pytest.raises(ValueError):
        ExperimentConfig(warmup_ns=-1).validate()


def test_validate_rejects_more_flows_than_cores():
    config = ExperimentConfig(pattern=TrafficPattern.ONE_TO_ONE, num_flows=25)
    with pytest.raises(ValueError):
        config.validate()


def test_validate_rejects_more_rpc_clients_than_cores():
    # One RPC client per sender core: 30 clients would index past core 24.
    config = ExperimentConfig(pattern=TrafficPattern.RPC_INCAST, num_flows=30)
    with pytest.raises(ValueError, match="exceeds"):
        config.validate()


def test_validate_rejects_loss_without_switch():
    config = ExperimentConfig(link=LinkConfig(loss_rate=0.01, has_switch=False))
    with pytest.raises(ValueError):
        config.validate()


def test_validate_rejects_loss_rate_of_one():
    with pytest.raises(ValueError):
        ExperimentConfig(link=LinkConfig(loss_rate=1.0, has_switch=True)).validate()
