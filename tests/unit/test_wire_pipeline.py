"""Wire-path contracts on the per-event pipeline.

The deleted frame-train fast path carried each transmit batch as one
in-flight object and promised results byte-identical to per-event delivery.
These tests keep its concrete configs and wire identities, now checked
against the per-event pipeline alone: the links are wired host to host,
the known configs still produce the digests both modes agreed on, the
link's in-flight counters match the delivery events actually queued, and
the mode's flags are not part of the result-cache key.
"""

import pytest

from repro.cli import main
from repro.config import (
    CongestionControl,
    ExperimentConfig,
    LinkConfig,
    OptimizationConfig,
    TcpConfig,
    TrafficPattern,
)
from repro.core.cache import config_cache_key
from repro.core.experiment import Experiment
from repro.golden import result_digest
from repro.units import msec


def _experiment(**kwargs):
    config = ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(1), **kwargs)
    return Experiment(config)


def _deliveries(experiment, link):
    """The link's in-flight ``(deliver, frames, bytes)`` batches, after
    checking that each has exactly one queued delivery entry."""
    queued = [
        event
        for event in experiment.engine._iter_queued()
        if not event.cancelled and event.fn == link._deliver_next
    ]
    assert len(queued) == len(link._in_flight)
    return list(link._in_flight)


# --- wiring -------------------------------------------------------------------


def test_nics_wired_host_to_host():
    experiment = _experiment()
    sender, receiver = experiment.sender, experiment.receiver
    assert sender.nic.tx_link is experiment.link_to_receiver
    assert receiver.nic.tx_link is experiment.link_to_sender
    assert experiment.link_to_receiver is not experiment.link_to_sender
    # Each NIC transmits straight into the peer NIC's receive path.
    assert sender.nic._deliver == receiver.nic.handle_rx
    assert receiver.nic._deliver == sender.nic.handle_rx


def test_removed_mode_flags_are_rejected(capsys):
    # The mode switches are gone: a script still passing them fails loudly
    # instead of silently running the one remaining pipeline.
    for flag in ("--no-train", "--no-express"):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


# --- the observable contract on known configs ---------------------------------

# Result digests both wire modes produced before frame trains were deleted.
# The per-event pipeline must keep producing them byte for byte. They last
# moved when the copy latency became a log-linear histogram (its payload
# changed; every other payload field stayed byte-identical).
DEFAULT_DIGEST = "3e03ff8e8e8612d7f11489868e7128049b407d17c2157d63db7fbb64f6cc935d"
INCAST_DIGEST = "9b7ab8f99b685b4e8c4d9fc10560150dfd36a416bde58acd858c3ed79dbdf2bb"
STANDIN_DIGEST = "1ae44c8fdcacf6892ed9f5939a9786948b644c9d16dee810b3f891c33bf66788"


def test_default_config_digest_and_event_count():
    experiment = _experiment()
    assert result_digest(experiment.run()) == DEFAULT_DIGEST
    # Frame trains reached these results with 106 events. The per-event
    # pipeline fires 772: 779 as before, plus one stale RTO wake-up (the
    # retransmission deadline moves on every ACK and a fire that comes
    # before it re-arms at it, instead of being cancelled and re-scheduled),
    # minus the 8 ticks of a DRS clock the sender host no longer holds: a
    # stream's sender host has no receive half to autotune.
    assert experiment.engine.events_fired == 772


def test_incast_config_digest():
    experiment = _experiment(pattern=TrafficPattern.INCAST, num_flows=4)
    assert result_digest(experiment.run()) == INCAST_DIGEST


def test_same_instant_arrival_fires_before_job_finish():
    """A lossy-switch DCTCP incast where an arrival and a CPU job finish land
    on the same instant. The frame-train wake that stood in for the finish
    once replayed the arrival after the poll instead of before it, thinning
    the poll's batch and shifting every later receive-side timestamp. The
    per-event order is the reference; pin its digest."""
    experiment = _experiment(
        pattern=TrafficPattern.INCAST, num_flows=3, seed=1,
        opts=OptimizationConfig(tso_gro=False, jumbo=False, arfs=False,
                                lro=False),
        tcp=TcpConfig(congestion_control=CongestionControl.DCTCP),
        link=LinkConfig(loss_rate=0.001, has_switch=True),
    )
    assert result_digest(experiment.run()) == STANDIN_DIGEST


# --- wire mechanics -----------------------------------------------------------


def test_run_end_leaves_only_later_events_queued():
    experiment = _experiment()
    experiment.run()
    end_ns = experiment.config.warmup_ns + experiment.config.duration_ns
    assert experiment.engine.now == end_ns
    # Everything due by the end instant has fired; what remains queued
    # (frames still on the wire included) lies strictly after it.
    assert all(
        event.time > end_ns
        for event in experiment.engine._iter_queued()
        if not event.cancelled
    )


def test_link_inflight_matches_queued_deliveries():
    experiment = _experiment()
    experiment.run()
    for link in (experiment.link_to_receiver, experiment.link_to_sender):
        # Whatever the link thinks is in flight must be exactly the frames
        # and bytes aboard its queued deliveries.
        deliveries = _deliveries(experiment, link)
        assert link.frames_in_flight == sum(len(frames) for _, frames, _ in deliveries)
        assert link.bytes_in_flight == sum(nbytes for _, _, nbytes in deliveries)
        # Every frame sent was dropped, delivered, or is still in flight.
        assert link.frames_sent == (
            link.frames_dropped + link.frames_delivered + link.frames_in_flight
        )
        assert link.frames_delivered > 0


# --- cache-key transparency ---------------------------------------------------

# The default config's identity. The frame_trains/express flags were never
# part of it. It last moved when the cache moved its code version out of the
# key and into the directory name, so that the key hashes the config alone.
DEFAULT_CACHE_KEY = "890165887494f897e11bf03d324c9408e1c31aa0a8b8751b39754a8e738f21a1"


def test_removed_mode_flag_not_in_cache_key():
    config = ExperimentConfig()
    assert config_cache_key(config) == DEFAULT_CACHE_KEY
    assert "frame_trains" not in config.to_canonical_dict()
    with pytest.raises(TypeError):
        config.replace(frame_trains=False)
    # ...while a real experiment parameter still changes the key.
    assert config_cache_key(config) != config_cache_key(config.replace(seed=2))
