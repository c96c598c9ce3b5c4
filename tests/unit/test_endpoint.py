"""Unit-level tests of TCP endpoint mechanics, driven through a tiny
two-host experiment so every dependency is real."""

import pytest

from repro.config import ExperimentConfig, TrafficPattern
from repro.core.experiment import Experiment
from repro.kernel.skb import Skb
from repro.kernel.tcp.sender import TcpSender, _Segment
from repro.sim.engine import Engine
from repro.units import msec


def run_experiment(**kwargs):
    config = ExperimentConfig(
        duration_ns=kwargs.pop("duration_ns", msec(3)),
        warmup_ns=kwargs.pop("warmup_ns", msec(1)),
        **kwargs,
    )
    experiment = Experiment(config)
    result = experiment.run()
    return experiment, result


def test_sequence_space_consistency():
    experiment, _ = run_experiment()
    snd = experiment.sender.senders[1]
    rcv = experiment.receiver.receivers[1]
    assert snd.snd_una <= snd.snd_nxt
    assert rcv.rcv_nxt <= snd.snd_nxt
    assert snd.snd_una <= rcv.rcv_nxt  # never ack what wasn't received


def test_inflight_bounded_by_windows():
    experiment, _ = run_experiment()
    snd = experiment.sender.senders[1]
    window = min(snd.cc.cwnd_bytes, max(snd.rwnd_bytes, 1))
    # allow one in-flight burst of slack for the tx job granularity
    assert snd.snd_nxt - snd.snd_una <= window + 256 * 1024


def test_delivered_bytes_not_exceeding_received():
    experiment, _ = run_experiment()
    rcv = experiment.receiver.receivers[1]
    delivered = experiment.metrics.flow_bytes("receiver", 1)
    assert delivered <= rcv.rcv_nxt


def test_rtt_estimate_positive():
    experiment, _ = run_experiment()
    snd = experiment.sender.senders[1]
    assert snd.srtt_ns > 0


def test_acks_flow_back():
    experiment, _ = run_experiment()
    rcv = experiment.receiver.receivers[1]
    assert rcv.acks_sent > 0


def test_no_retransmits_on_clean_link():
    experiment, result = run_experiment()
    assert result.retransmits == 0
    assert result.timeouts == 0


def test_autotune_grows_buffer_for_fast_flow():
    experiment, _ = run_experiment(duration_ns=msec(6), warmup_ns=msec(2))
    rcv = experiment.receiver.receivers[1]
    assert rcv.socket.rx_buffer_bytes > 64 * 1024


def test_ooo_trim_front():
    experiment, _ = run_experiment(duration_ns=msec(1), warmup_ns=msec(0))
    rcv = experiment.receiver.receivers[1]
    skb = Skb(flow_id=1, seq=0, payload_bytes=1000, pages=1,
              regions=[(999_991, 400), (999_992, 600)])
    rcv._trim_skb_front(skb, 400)
    assert skb.seq == 400
    assert skb.payload_bytes == 600
    assert skb.regions == [(999_992, 600)]


def test_current_holes_from_ooo_queue():
    experiment, _ = run_experiment(duration_ns=msec(1), warmup_ns=msec(0))
    rcv = experiment.receiver.receivers[1]
    rcv._ooo = [
        Skb(flow_id=1, seq=rcv.rcv_nxt + 5000, payload_bytes=1000),
        Skb(flow_id=1, seq=rcv.rcv_nxt + 9000, payload_bytes=1000),
    ]
    holes = rcv._current_holes()
    assert holes[0] == (rcv.rcv_nxt, rcv.rcv_nxt + 5000)
    assert holes[1] == (rcv.rcv_nxt + 6000, rcv.rcv_nxt + 9000)


def test_sendmsg_rejects_nonpositive():
    experiment, _ = run_experiment(duration_ns=msec(1), warmup_ns=msec(0))
    snd = experiment.sender.senders[1]
    with pytest.raises(ValueError):
        snd.sendmsg(None, 0, lambda n: None)


def test_each_host_holds_only_the_halves_its_flows_run():
    stream = Experiment(ExperimentConfig(duration_ns=msec(1)))
    snd_host, rcv_host = stream.sender, stream.receiver
    assert set(snd_host.senders) == {1} and snd_host.receivers == {}
    assert set(rcv_host.receivers) == {1} and rcv_host.senders == {}
    assert snd_host.senders[1].receiver is None
    assert rcv_host.receivers[1].sender is None
    # No receive half, nothing to autotune: the sender host has no DRS clock.
    assert snd_host.autotune_clocks == {} and len(rcv_host.autotune_clocks) == 1

    rpc = Experiment(ExperimentConfig(
        pattern=TrafficPattern.RPC_INCAST, num_flows=3, duration_ns=msec(1)
    ))
    for host in (rpc.sender, rpc.receiver):
        assert set(host.senders) == set(host.receivers) == set(host.flows)
        assert len(host.flows) == 3
        for flow_id, tx in host.senders.items():
            rx = host.receivers[flow_id]
            # Both halves of a connection point at each other and share the
            # host's one steering decision for the flow.
            assert tx.receiver is rx and rx.sender is tx
            assert tx.softirq_core is rx.softirq_core is host.flows[flow_id]

    # Slotted: no half carries a per-instance dict.
    tx, rx = snd_host.senders[1], rcv_host.receivers[1]
    for obj in (tx, rx, rx.socket):
        assert not hasattr(obj, "__dict__")


# --- the retransmission deadline ---------------------------------------------


def _idle_sender(monkeypatch):
    """A sender half with one segment outstanding, on a private engine so
    its RTO timer is the only thing queued. Retransmissions are logged by
    instant instead of sent."""
    experiment = Experiment(ExperimentConfig(duration_ns=msec(1), warmup_ns=0))
    endpoint = experiment.sender.senders[1]
    engine = endpoint.engine = Engine()
    retransmits = []
    monkeypatch.setattr(
        TcpSender, "_retransmit_segments",
        lambda self, segments, core: retransmits.append(engine.now),
    )
    endpoint.segments.append(_Segment(0, 1000))
    return endpoint, engine, retransmits


def test_rto_deadline_moved_later_costs_one_stale_wakeup(monkeypatch):
    endpoint, engine, retransmits = _idle_sender(monkeypatch)
    rto = endpoint._current_rto()
    endpoint._arm_rto()
    engine.run(until=rto // 2)
    endpoint._arm_rto()  # an ACK moves the deadline later; nothing is cancelled
    assert engine.events_cancelled == 0 and engine.pending_events() == 1
    engine.run()
    assert retransmits == [rto // 2 + rto]
    assert endpoint.timeouts == 1
    assert engine.events_fired == 2  # the stale wake-up at `rto`, then the timeout


def test_rto_deadline_moved_earlier_fires_at_the_earlier_instant(monkeypatch):
    endpoint, engine, retransmits = _idle_sender(monkeypatch)
    endpoint._rto_backoff = 4
    late = endpoint._current_rto()
    endpoint._arm_rto()
    engine.run(until=1000)
    endpoint._rto_backoff = 1  # an ACK of new data resets the backoff
    endpoint._arm_rto()
    early = 1000 + endpoint._current_rto()
    assert early < late
    engine.run()
    assert retransmits == [early]
    assert endpoint.timeouts == 1
    assert engine.events_cancelled == 1 and engine.events_fired == 1


def test_rto_disarmed_once_all_data_is_acked_fires_nothing(monkeypatch):
    endpoint, engine, retransmits = _idle_sender(monkeypatch)
    rto = endpoint._current_rto()
    endpoint._arm_rto()
    engine.run(until=rto // 4)
    endpoint._clean_rtx_queue(1000, endpoint.softirq_core, [])  # all acked
    assert not endpoint.segments
    engine.run(until=rto // 2)
    # New data is queued; its transmit job has not completed, so it is not
    # armed yet when the old fire wakes.
    endpoint.segments.append(_Segment(1000, 1000))
    engine.run()
    assert retransmits == [] and endpoint.timeouts == 0
    assert engine.events_fired == 1  # the old fire woke once and did nothing
