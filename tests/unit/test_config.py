"""Unit tests for experiment configuration."""

import pytest

from repro.config import (
    ExperimentConfig,
    LinkConfig,
    NicConfig,
    OptimizationConfig,
    TcpConfig,
    TrafficPattern,
    WorkloadConfig,
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
    # Construction alone raises, and so does a replace() that breaks it.
    with pytest.raises(ValueError, match="num_flows"):
        ExperimentConfig(num_flows=0)
    with pytest.raises(ValueError, match="num_flows"):
        ExperimentConfig().replace(num_flows=0)


def test_validate_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        ExperimentConfig(duration_ns=0).validate()
    with pytest.raises(ValueError, match="duration_ns"):
        ExperimentConfig(duration_ns=0)
    with pytest.raises(ValueError, match="duration_ns"):
        ExperimentConfig().replace(duration_ns=0)


def test_validate_rejects_negative_warmup():
    with pytest.raises(ValueError):
        ExperimentConfig(warmup_ns=-1).validate()
    with pytest.raises(ValueError, match="warmup_ns"):
        ExperimentConfig(warmup_ns=-1)


def test_validate_rejects_more_flows_than_cores():
    with pytest.raises(ValueError):
        ExperimentConfig(pattern=TrafficPattern.ONE_TO_ONE, num_flows=25)
    # A field set after construction is still caught by validate(), which
    # Experiment runs again.
    config = ExperimentConfig(pattern=TrafficPattern.ONE_TO_ONE)
    config.num_flows = 25
    with pytest.raises(ValueError):
        config.validate()


def test_validate_rejects_more_rpc_clients_than_cores():
    # One RPC client per sender core: 30 clients would index past core 24.
    with pytest.raises(ValueError, match="exceeds"):
        ExperimentConfig(pattern=TrafficPattern.RPC_INCAST, num_flows=30)
    config = ExperimentConfig(pattern=TrafficPattern.RPC_INCAST)
    config.num_flows = 30
    with pytest.raises(ValueError, match="exceeds"):
        config.validate()


def test_validate_rejects_loss_without_switch():
    with pytest.raises(ValueError):
        ExperimentConfig(link=LinkConfig(loss_rate=0.01, has_switch=False))
    # Nested configs stay mutable after construction, so validate() (which
    # Experiment runs again) still catches a field broken later.
    config = ExperimentConfig()
    config.link.loss_rate = 0.01
    with pytest.raises(ValueError, match="has_switch"):
        config.validate()


def test_validate_rejects_loss_rate_of_one():
    with pytest.raises(ValueError):
        ExperimentConfig(link=LinkConfig(loss_rate=1.0, has_switch=True)).validate()
    with pytest.raises(ValueError, match="loss_rate"):
        ExperimentConfig(link=LinkConfig(loss_rate=1.0, has_switch=True))


@pytest.mark.parametrize(
    "fields",
    [
        dict(cost_overrides={"no_such_cost_cycles": 1.0}),
        dict(nic=NicConfig(rx_descriptors=0)),
        dict(tcp=TcpConfig(rx_buffer_bytes=0)),
        dict(workload=WorkloadConfig(rpc_size_bytes=0)),
        dict(workload=WorkloadConfig(num_rpc_flows=-1)),
    ],
    ids=[
        "cost_overrides",
        "rx_descriptors",
        "rx_buffer_bytes",
        "rpc_size_bytes",
        "num_rpc_flows",
    ],
)
def test_validate_rejects_bad_host_link_nic_and_cost_fields(fields):
    with pytest.raises(ValueError):
        ExperimentConfig(**fields)
    # The same fields set after construction are still caught by validate().
    config = ExperimentConfig()
    for name, value in fields.items():
        setattr(config, name, value)
    with pytest.raises(ValueError):
        config.validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_validate_rejects_non_finite_or_negative_cost_override(value):
    with pytest.raises(ValueError, match="irq_cycles"):
        ExperimentConfig(cost_overrides={"irq_cycles": value})


def test_validate_accepts_known_cost_override():
    ExperimentConfig(cost_overrides={"skb_free_cycles": 100.0}).validate()


def test_every_figure_config_validates():
    from repro.figures.base import harvest_configs

    for config in harvest_configs():
        config.validate()
