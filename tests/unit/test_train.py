"""Wire-path contracts on the per-event pipeline.

The deleted frame-train fast path carried each transmit batch as one
in-flight object and promised results byte-identical to per-event delivery.
These tests keep its concrete configs and wire identities, now checked
against the per-event pipeline alone: the links are wired host to host,
the known configs still produce the digests both modes agreed on, the
link's in-flight counters match the delivery events actually queued, and
removing the mode's flags left the result-cache key untouched.
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
    """The link's queued delivery events (each carries one frame batch)."""
    return [
        event
        for event in experiment.engine._iter_queued()
        if not event.cancelled and event.fn == link._deliver_batch
    ]


# --- wiring -------------------------------------------------------------------


def test_pipeline_wired_by_default():
    experiment = _experiment()
    sender, receiver = experiment.sender, experiment.receiver
    assert sender.nic.tx_link is experiment.link_to_receiver
    assert receiver.nic.tx_link is experiment.link_to_sender
    assert experiment.link_to_receiver is not experiment.link_to_sender
    # Each NIC transmits straight into the peer NIC's receive path.
    assert sender.nic._deliver == receiver.nic.handle_rx
    assert receiver.nic._deliver == sender.nic.handle_rx


def test_no_train_unwires_the_pipeline(capsys):
    # The mode switches are gone: a script still passing them fails loudly
    # instead of silently running the one remaining pipeline.
    for flag in ("--no-train", "--no-express"):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


# --- the observable contract on known configs ---------------------------------

# Result digests both wire modes produced before frame trains were deleted.
# The per-event pipeline must keep producing them byte for byte.
DEFAULT_DIGEST = "4326646180a750d4eb0eec298c25bab4587bf2084b6a8328490e39c9b90bc128"
INCAST_DIGEST = "25d64e692049d929d7095596ca51bd1e2b6df15f73d2df06ea4a8cbceb0b9704"
STANDIN_DIGEST = "6e9f18f911a537854e45ecbb53a16ffb573909f5ed0520b606e63133b0ce111c"


def test_train_mode_identical_results_fewer_events():
    experiment = _experiment()
    assert result_digest(experiment.run()) == DEFAULT_DIGEST
    # Frame trains reached these results with 106 events. The per-event
    # pipeline fires exactly the count it always did: the settle hooks the
    # fast path needed were not events, and deleting them added none.
    assert experiment.engine.events_fired == 779


def test_incast_mode_identical_results():
    experiment = _experiment(pattern=TrafficPattern.INCAST, num_flows=4)
    assert result_digest(experiment.run()) == INCAST_DIGEST


def test_standin_finish_orders_same_instant_arrival_like_legacy():
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


def test_trains_settled_up_to_run_end():
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


def test_train_inflight_matches_link_counters():
    experiment = _experiment()
    experiment.run()
    for link in (experiment.link_to_receiver, experiment.link_to_sender):
        # Whatever the link thinks is in flight must be exactly the frames
        # and bytes aboard its queued delivery events.
        deliveries = _deliveries(experiment, link)
        assert link.frames_in_flight == sum(len(e.args[1]) for e in deliveries)
        assert link.bytes_in_flight == sum(e.args[2] for e in deliveries)
        # Every frame sent was dropped, delivered, or is still in flight.
        assert link.frames_sent == (
            link.frames_dropped + link.frames_delivered + link.frames_in_flight
        )
        assert link.frames_delivered > 0


# --- cache-key transparency ---------------------------------------------------

# The default config's cache key, unchanged since the frame_trains/express
# flags existed: they were never part of the key, so entries cached then
# still hit now.
DEFAULT_CACHE_KEY = "537b9803988b9db770b4904c991175c794010dfe96116173d2301c522c01c81a"


def test_frame_trains_flag_excluded_from_cache_key():
    config = ExperimentConfig()
    assert config_cache_key(config) == DEFAULT_CACHE_KEY
    assert "frame_trains" not in config.to_canonical_dict()
    with pytest.raises(TypeError):
        config.replace(frame_trains=False)
    # ...while a real experiment parameter still changes the key.
    assert config_cache_key(config) != config_cache_key(config.replace(seed=2))
