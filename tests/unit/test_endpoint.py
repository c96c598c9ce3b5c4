"""Unit-level tests of TCP endpoint mechanics, driven through a tiny
two-host experiment so every dependency is real."""

import pytest

from repro.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.kernel.skb import Skb
from repro.kernel.tcp.endpoint import _Segment
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
    snd = experiment.sender.endpoints[1]
    rcv = experiment.receiver.endpoints[1]
    assert snd.snd_una <= snd.snd_nxt
    assert rcv.rcv_nxt <= snd.snd_nxt
    assert snd.snd_una <= rcv.rcv_nxt  # never ack what wasn't received


def test_inflight_bounded_by_windows():
    experiment, _ = run_experiment()
    snd = experiment.sender.endpoints[1]
    window = min(snd.cc.cwnd_bytes, max(snd.rwnd_bytes, 1))
    # allow one in-flight burst of slack for the tx job granularity
    assert snd.inflight_bytes() <= window + 256 * 1024


def test_delivered_bytes_not_exceeding_received():
    experiment, _ = run_experiment()
    rcv = experiment.receiver.endpoints[1]
    delivered = experiment.metrics.flow_bytes("receiver", 1)
    assert delivered <= rcv.rcv_nxt


def test_rtt_estimate_positive():
    experiment, _ = run_experiment()
    snd = experiment.sender.endpoints[1]
    assert snd.srtt_ns > 0


def test_acks_flow_back():
    experiment, _ = run_experiment()
    rcv = experiment.receiver.endpoints[1]
    assert rcv.acks_sent > 0


def test_no_retransmits_on_clean_link():
    experiment, result = run_experiment()
    assert result.retransmits == 0
    assert result.timeouts == 0


def test_autotune_grows_buffer_for_fast_flow():
    experiment, _ = run_experiment(duration_ns=msec(6), warmup_ns=msec(2))
    rcv = experiment.receiver.endpoints[1]
    assert rcv.socket.rx_buffer_bytes > 64 * 1024


def test_ooo_trim_front():
    experiment, _ = run_experiment(duration_ns=msec(1), warmup_ns=msec(0))
    rcv = experiment.receiver.endpoints[1]
    skb = Skb(flow_id=1, seq=0, payload_bytes=1000, pages=1,
              regions=[(999_991, 400), (999_992, 600)])
    rcv._trim_skb_front(skb, 400)
    assert skb.seq == 400
    assert skb.payload_bytes == 600
    assert skb.regions == [(999_992, 600)]


def test_current_holes_from_ooo_queue():
    experiment, _ = run_experiment(duration_ns=msec(1), warmup_ns=msec(0))
    rcv = experiment.receiver.endpoints[1]
    rcv._ooo = [
        Skb(flow_id=1, seq=rcv.rcv_nxt + 5000, payload_bytes=1000),
        Skb(flow_id=1, seq=rcv.rcv_nxt + 9000, payload_bytes=1000),
    ]
    holes = rcv._current_holes()
    assert holes[0] == (rcv.rcv_nxt, rcv.rcv_nxt + 5000)
    assert holes[1] == (rcv.rcv_nxt + 6000, rcv.rcv_nxt + 9000)


def test_sendmsg_rejects_nonpositive():
    experiment, _ = run_experiment(duration_ns=msec(1), warmup_ns=msec(0))
    snd = experiment.sender.endpoints[1]
    with pytest.raises(ValueError):
        snd.sendmsg(None, 0, lambda n: None)


# --- the retransmission deadline ---------------------------------------------


def _idle_sender():
    """A sender endpoint with one segment outstanding, on a private engine so
    its RTO timer is the only thing queued. Retransmissions are logged by
    instant instead of sent."""
    experiment = Experiment(ExperimentConfig(duration_ns=msec(1), warmup_ns=0))
    endpoint = experiment.sender.endpoints[1]
    engine = endpoint.engine = Engine()
    retransmits = []
    endpoint._retransmit_segments = lambda segments, core: retransmits.append(
        engine.now
    )
    endpoint.segments.append(_Segment(0, 1000))
    return endpoint, engine, retransmits


def test_rto_deadline_moved_later_costs_one_stale_wakeup():
    endpoint, engine, retransmits = _idle_sender()
    rto = endpoint._current_rto()
    endpoint._arm_rto()
    engine.run(until=rto // 2)
    endpoint._arm_rto()  # an ACK moves the deadline later; nothing is cancelled
    assert engine.events_cancelled == 0 and engine.pending_events() == 1
    engine.run()
    assert retransmits == [rto // 2 + rto]
    assert endpoint.timeouts == 1
    assert engine.events_fired == 2  # the stale wake-up at `rto`, then the timeout


def test_rto_deadline_moved_earlier_fires_at_the_earlier_instant():
    endpoint, engine, retransmits = _idle_sender()
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


def test_rto_disarmed_once_all_data_is_acked_fires_nothing():
    endpoint, engine, retransmits = _idle_sender()
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
