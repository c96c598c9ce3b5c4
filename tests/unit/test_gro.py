"""Unit tests for the GRO engine."""

from repro.costs.calibration import default_cost_model
from repro.hardware.link import Frame
from repro.hardware.nic import RxFrameRecord
from repro.kernel.gro import GRO_MAX_HELD_FLOWS, GroEngine


def frame_record(flow=1, seq=0, size=9000, region=None, node=0, pages=3, ecn=False):
    frame = Frame(flow, Frame.KIND_DATA, seq, size, size)
    frame.ecn_marked = ecn
    return RxFrameRecord(
        frame, region if region is not None else seq, node, pages, arrival_ns=0
    )


def feed(gro, *records):
    """Run ``records`` through ``GroEngine.receive_run`` as one NAPI run of
    data completions, every flow with a receiver; returns the charge items
    and the skbs delivered up the stack, in order."""
    items, delivered = [], []
    receivers = {record.frame.flow_id: True for record in records}
    gro.receive_run(records, 0, len(records), receivers, items, delivered.append)
    return items, delivered


def make_gro(enabled=True, **kwargs):
    return GroEngine(default_cost_model(), enabled, **kwargs)


def test_in_sequence_frames_merge():
    gro = make_gro()
    feed(gro, frame_record(seq=0))
    _, flushed = feed(gro, frame_record(seq=9000))
    assert flushed == []
    _, flushed = gro.flush_all()
    assert len(flushed) == 1
    assert flushed[0].payload_bytes == 18000
    assert flushed[0].nframes == 2
    assert len(flushed[0].regions) == 2


def test_out_of_sequence_flushes_held():
    gro = make_gro()
    feed(gro, frame_record(seq=0))
    _, flushed = feed(gro, frame_record(seq=50_000))  # gap
    assert len(flushed) == 1
    assert flushed[0].seq == 0


def test_size_limit_respected():
    gro = make_gro(max_merged_bytes=64 * 1024)
    flushed_total = []
    for i in range(10):
        _, flushed = feed(gro, frame_record(seq=i * 9000))
        flushed_total.extend(flushed)
    _, flushed = gro.flush_all()
    flushed_total.extend(flushed)
    assert all(skb.payload_bytes <= 64 * 1024 for skb in flushed_total)
    assert sum(skb.payload_bytes for skb in flushed_total) == 90_000


def test_different_flows_held_separately():
    gro = make_gro()
    feed(gro, frame_record(flow=1, seq=0))
    feed(gro, frame_record(flow=2, seq=0))
    feed(gro, frame_record(flow=1, seq=9000))
    _, flushed = gro.flush_all()
    sizes = sorted(skb.payload_bytes for skb in flushed)
    assert sizes == [9000, 18000]


def test_held_flow_limit_evicts_oldest():
    gro = make_gro(max_held_flows=2)
    feed(gro, frame_record(flow=1, seq=0))
    feed(gro, frame_record(flow=2, seq=0))
    _, flushed = feed(gro, frame_record(flow=3, seq=0))
    assert len(flushed) == 1
    assert flushed[0].flow_id == 1  # oldest evicted


def test_default_held_limit_matches_kernel():
    assert GRO_MAX_HELD_FLOWS == 64


def test_disabled_gro_passes_through():
    gro = make_gro(enabled=False)
    items, flushed = feed(gro, frame_record(seq=0))
    assert items == []
    assert len(flushed) == 1 and flushed[0].nframes == 1


def test_cross_numa_frames_not_merged():
    gro = make_gro()
    feed(gro, frame_record(seq=0, node=0))
    _, flushed = feed(gro, frame_record(seq=9000, node=1))
    assert len(flushed) == 1  # node change forces a flush


def test_ecn_mark_propagates_through_merge():
    gro = make_gro()
    feed(gro, frame_record(seq=0))
    feed(gro, frame_record(seq=9000, ecn=True))
    _, flushed = gro.flush_all()
    assert flushed[0].ecn


def test_byte_conservation():
    gro = make_gro()
    total_in = 0
    out = []
    for i in range(25):
        record = frame_record(seq=i * 9000, size=9000)
        total_in += record.frame.payload_bytes
        _, flushed = feed(gro, record)
        out.extend(flushed)
    _, flushed = gro.flush_all()
    out.extend(flushed)
    assert sum(skb.payload_bytes for skb in out) == total_in


def test_statistics():
    gro = make_gro()
    feed(gro, *[frame_record(seq=i * 9000) for i in range(4)])
    gro.flush_all()
    assert gro.frames_in == 4
    assert gro.merges == 3
    assert gro.skbs_out == 1
