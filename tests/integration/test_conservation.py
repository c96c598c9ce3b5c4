"""Cross-cutting consistency checks: byte conservation and determinism."""

import pytest

from repro.config import ExperimentConfig, TrafficPattern
from repro.core.experiment import Experiment
from repro.units import msec


def build_and_run(seed=1, **kwargs):
    config = ExperimentConfig(
        duration_ns=msec(4), warmup_ns=msec(4), seed=seed, **kwargs
    )
    experiment = Experiment(config)
    result = experiment.run()
    return experiment, result


def test_receiver_never_acks_unsent_data():
    experiment, _ = build_and_run()
    for flow_id, snd in experiment.sender.senders.items():
        rcv = experiment.receiver.receivers[flow_id]
        assert rcv.rcv_nxt <= snd.snd_nxt
        assert snd.snd_una <= rcv.rcv_nxt


def test_all_flows_make_progress_one_to_one():
    experiment, _ = build_and_run(
        pattern=TrafficPattern.ONE_TO_ONE, num_flows=8
    )
    for flow_id in experiment.receiver.receivers:
        assert experiment.metrics.flow_bytes("receiver", flow_id) > 0


def test_same_seed_reproduces_exactly():
    _, first = build_and_run(seed=7)
    _, second = build_and_run(seed=7)
    assert first.total_throughput_gbps == second.total_throughput_gbps
    assert first.receiver_utilization_cores == second.receiver_utilization_cores
    assert first.receiver_cache_miss_rate == second.receiver_cache_miss_rate


def test_different_seeds_still_close():
    """Randomness (hashing, eviction) should not change steady state much."""
    _, first = build_and_run(seed=1)
    _, second = build_and_run(seed=99)
    assert first.total_throughput_gbps == pytest.approx(
        second.total_throughput_gbps, rel=0.2
    )


def test_utilization_within_physical_limits():
    experiment, result = build_and_run(pattern=TrafficPattern.INCAST, num_flows=8)
    total_cores = experiment.receiver.topology.total_cores
    assert 0 <= result.receiver_utilization_cores <= total_cores
    assert 0 <= result.sender_utilization_cores <= total_cores
