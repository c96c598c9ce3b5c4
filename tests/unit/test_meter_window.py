"""The measurement window's boundary: meters start at one instant.

An experiment's profiler, metrics hub and trace histograms are built closed
and opened together by ``Experiment._start_meters`` at the end of warmup.
Before that, charges are still validated and summed, and trace stamps keep
running, so an interval that straddles the boundary is recorded whole.
"""

import random
from unittest import mock

import pytest

from repro.config import ExperimentConfig, SteeringMode
from repro.core.experiment import Experiment
from repro.core.profiler import CpuProfiler
from repro.costs.calibration import default_cost_model
from repro.hardware.cpu import Core
from repro.hardware.link import Frame, Link
from repro.hardware.nic import Nic
from repro.hardware.steering import SteeringEngine
from repro.sim.engine import Engine
from repro.trace import TraceHub
from repro.units import msec


class FakeCore:
    key = ("receiver", 0)


def _cores(experiment):
    return [
        core
        for host in (experiment.sender, experiment.receiver)
        for core in host.topology.cores
    ]


def test_negative_charge_before_window_still_raises():
    profiler = CpuProfiler(recording=False)
    with pytest.raises(ValueError):
        profiler.charge(FakeCore(), "copy_to_user", -1)
    with pytest.raises(ValueError):
        profiler.charge_items(FakeCore(), [("copy_to_user", 5.0), ("lock_sock", -1.0)])
    # The job's duration still needs the sum; the ledger stays empty.
    assert profiler.charge_items(FakeCore(), [("copy_to_user", 1.5), ("lock_sock", 2.0)]) == 3.5
    assert profiler.total_cycles("receiver") == 0
    assert list(profiler.busy_core_keys("receiver")) == []


def test_no_metrics_side_exists_before_window():
    config = ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(1))
    experiment = Experiment(config)
    experiment.engine.run(until=config.warmup_ns)
    assert experiment.receiver.receivers[1].app_bytes_read > 0
    # No side, hence no reservoir RNG has drawn anything yet.
    assert experiment.metrics._sides == {}
    experiment.run()
    assert experiment.metrics.total_delivered_bytes() > 0


def test_frame_serialized_before_window_records_one_wire_sample():
    engine = Engine()
    hub = TraceHub(recording=False)
    steering = SteeringEngine(SteeringMode.RSS, random.Random(1), 64)
    nic = Nic(engine, "nic", 0, 9000, tso=True, lro=False,
              rx_descriptors=8, steering=steering, dca=None)
    nic.add_rx_queue(Core(engine, CpuProfiler(), default_cost_model(), "receiver", 0, 0, 3.4e9))
    nic.trace = hub.side("receiver")
    link = Link(engine, "snd->rcv", bandwidth_bps=100e9, propagation_ns=1000,
                rng=random.Random(1))
    link.trace = hub.side("sender")

    frame = Frame(1, Frame.KIND_DATA, 0, 9000, 12500)
    frame.trace_ns = 0  # doorbell stamp
    link.transmit([frame], nic.handle_rx)  # serialized by t=1000, in flight
    hub.start()
    engine.run()

    report = hub.report()
    assert report.hosts["sender"]["tx_wire"].count == 0
    wire = report.hosts["receiver"]["wire"]
    assert (wire.count, wire.total_ns) == (1, 1000)
    assert frame.trace_ns is None


def test_skb_enqueued_before_window_records_all_receive_stages():
    config = ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(1), trace=True)
    experiment = Experiment(config)
    experiment.engine.run(until=config.warmup_ns)
    rcv = experiment.receiver.receivers[1]
    queued = [skb for skb in rcv.socket._queue if skb.napi_ns is not None]
    assert queued and all(skb.trace_ns is not None for skb in queued)
    now = experiment.engine.now
    expected_e2e = sum(now - skb.napi_ns for skb in queued)

    experiment._start_meters()
    rcv.do_recv(object(), rcv.socket.unread_bytes, lambda taken: None)

    report = experiment.trace.report()
    stages = report.hosts["receiver"]
    counts = {key: stages[key].count for key in ("rx_softirq", "rx_sockq", "e2e")}
    assert counts == dict.fromkeys(counts, len(queued))
    assert stages["e2e"].total_ns == expected_e2e
    _, violations = report.check_identity()
    assert violations == []


def test_zero_warmup_discards_charges_at_t0():
    config = ExperimentConfig(duration_ns=msec(1), warmup_ns=0)
    experiment = Experiment(config)
    seen = {}
    start_meters = Experiment._start_meters

    def spy(self):
        seen["now"] = self.engine.now
        seen["busy_before"] = sum(core.busy_cycles for core in _cores(self))
        start_meters(self)
        seen["busy_after"] = sum(core.busy_cycles for core in _cores(self))
        seen["ledger"] = sum(
            self.profiler.total_cycles(host) for host in ("sender", "receiver")
        )

    with mock.patch.object(Experiment, "_start_meters", spy):
        experiment.run()
    assert seen["now"] == 0
    assert seen["busy_before"] > 0  # jobs started at t=0 charged cycles...
    assert seen["busy_after"] == seen["ledger"] == 0  # ...and none is kept
