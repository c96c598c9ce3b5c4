"""Unit tests for the conservation-invariant auditor.

The auditor's job is to notice when the simulator's bookkeeping stops being
conservative, so beyond the happy path these tests *inject* accounting bugs
(double-charged cycles, conjured bytes, drifted cancellation counters) and
assert each one is caught and localized.
"""

import pytest

from repro.config import ExperimentConfig, TrafficPattern
from repro.core.audit import (
    AuditError,
    AuditReport,
    AuditViolation,
    audit_experiment,
    merge_reports,
)
from repro.core.experiment import Experiment
from repro.units import msec


def run_experiment(**kwargs):
    config = ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(2), **kwargs)
    experiment = Experiment(config)
    experiment.run()
    return experiment


@pytest.fixture(scope="module")
def finished():
    """One finished single-flow experiment, shared by the tamper tests (each
    audits a fresh copy of the counters' state or restores what it mutates)."""
    return run_experiment()


def violated(report, invariant):
    return [v for v in report.violations if v.invariant == invariant]


# --- report mechanics ---------------------------------------------------------


def test_report_ok_render_and_strict():
    report = AuditReport(checks_run=3)
    assert report.ok
    assert "3 conservation checks passed" in report.render()
    report.raise_if_violations()  # no-op when clean

    report.violations.append(
        AuditViolation("byte.tx_half", "flow 0 @ sender", 10, 12, "detail")
    )
    assert not report.ok
    assert "byte.tx_half" in report.render()
    with pytest.raises(AuditError, match="byte.tx_half"):
        report.raise_if_violations()


def test_report_dict_round_trip():
    report = AuditReport(
        checks_run=7,
        violations=[AuditViolation("cycle.core", "core ('sender', 0)", 1.0, 2.0)],
    )
    clone = AuditReport.from_dict(report.to_dict())
    assert clone.checks_run == 7
    assert clone.to_dict() == report.to_dict()
    assert not clone.ok


def test_merge_reports_skips_none_and_accumulates():
    a = AuditReport(checks_run=5)
    b = AuditReport(checks_run=3, violations=[AuditViolation("x", "y", 0, 1)])
    merged = merge_reports([a, None, b])
    assert merged.checks_run == 8
    assert len(merged.violations) == 1


# --- clean experiments pass ----------------------------------------------------


def test_clean_experiment_passes(finished):
    report = audit_experiment(finished)
    assert report.ok, report.render()
    assert report.checks_run > 20


def test_audit_flag_attaches_report_to_result():
    config = ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(2))
    result = Experiment(config, audit=True).run()
    assert result.audit_report is not None
    assert result.audit_report.ok, result.audit_report.render()

    unaudited = Experiment(config).run()
    assert unaudited.audit_report is None


def test_audited_result_survives_export_round_trip():
    from repro.core.export import result_from_dict, result_to_dict

    config = ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(2))
    result = Experiment(config, audit=True).run()
    payload = result_to_dict(result)
    assert "audit" in payload
    restored = result_from_dict(payload)
    assert restored.audit_report is not None
    assert restored.audit_report.checks_run == result.audit_report.checks_run
    assert result_to_dict(restored) == payload  # lossless both ways


# --- injected accounting bugs are caught -----------------------------------------


def test_injected_cycle_double_charge_is_caught(finished):
    """A profiler charge with no matching core busy time — the classic
    double-charge, e.g. charging an op both inside and outside a Job — must
    break per-core and per-host cycle conservation."""
    core = finished.receiver.topology.cores[0]
    finished.profiler.charge(core, "tcp_rcv_established", 12345.0)
    try:
        report = audit_experiment(finished)
        assert violated(report, "cycle.core"), report.render()
        assert violated(report, "cycle.host")
        assert any(str(core.key) in v.where for v in violated(report, "cycle.core"))
    finally:
        finished.profiler._cycles[core.key]["tcp_rcv_established"] -= 12345.0


def test_injected_double_charge_strict_mode_raises(finished):
    core = finished.sender.topology.cores[0]
    finished.profiler.charge(core, "__schedule", 999.0)
    try:
        with pytest.raises(AuditError, match="cycle.core"):
            audit_experiment(finished, strict=True)
    finally:
        finished.profiler._cycles[core.key]["__schedule"] -= 999.0


def test_unclassifiable_operation_is_caught(finished):
    """Cycles charged to an op outside the Table-1 taxonomy would silently
    vanish from the breakdown; the auditor flags them."""
    core = finished.receiver.topology.cores[0]
    core.charge_inline("not_a_real_kernel_function", 50.0)
    try:
        report = audit_experiment(finished)
        bad = violated(report, "cycle.taxonomy_total")
        assert bad and "not_a_real_kernel_function" in bad[0].detail
    finally:
        core.busy_cycles -= 50.0
        del finished.profiler._cycles[core.key]["not_a_real_kernel_function"]


def test_injected_byte_conjuring_is_caught(finished):
    """Bytes appearing in the stream with no application write must break
    the transmit-half identity (and the cross-host stream identity)."""
    endpoint = next(iter(finished.sender.senders.values()))
    endpoint.app_bytes_written += 4096
    try:
        report = audit_experiment(finished)
        assert violated(report, "byte.tx_half"), report.render()
        assert violated(report, "byte.stream")
    finally:
        endpoint.app_bytes_written -= 4096


def test_injected_rx_double_count_is_caught(finished):
    """A receive-side double count (delivering the same skb twice would bump
    app bytes without advancing rcv_nxt) breaks the receive-half identity."""
    endpoint = next(iter(finished.receiver.receivers.values()))
    endpoint.app_bytes_read += 1500
    try:
        report = audit_experiment(finished)
        assert violated(report, "byte.rx_half"), report.render()
    finally:
        endpoint.app_bytes_read -= 1500


def test_injected_wire_frame_loss_is_caught(finished):
    """A frame vanishing between NIC and link counters breaks wire
    conservation on exactly that direction."""
    finished.link_to_receiver.frames_delivered -= 1
    try:
        report = audit_experiment(finished)
        bad = violated(report, "wire.frames") + violated(report, "wire.nic_rx")
        assert bad, report.render()
        assert all("snd->rcv" in v.where for v in bad)
    finally:
        finished.link_to_receiver.frames_delivered += 1


def test_engine_cancellation_drift_is_caught(finished):
    """A drifted lazy-cancellation counter (decremented twice, say) must be
    caught by the recount cross-check."""
    finished.engine._cancelled_in_queue += 1
    try:
        report = audit_experiment(finished)
        assert violated(report, "engine.cancelled"), report.render()
    finally:
        finished.engine._cancelled_in_queue -= 1


def test_metrics_per_flow_drift_is_caught(finished):
    metrics = finished.metrics
    metrics._per_flow_bytes[("receiver", 0)] += 10
    try:
        report = audit_experiment(finished)
        assert violated(report, "metrics.per_flow_sum"), report.render()
    finally:
        metrics._per_flow_bytes[("receiver", 0)] -= 10


# --- auditor coverage across workload shapes ------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"pattern": TrafficPattern.INCAST, "num_flows": 4},
        {"pattern": TrafficPattern.MIXED, "num_flows": 1},
    ],
    ids=["incast", "mixed"],
)
def test_multi_flow_patterns_conserve(kwargs):
    experiment = run_experiment(**kwargs)
    report = audit_experiment(experiment, strict=True)
    assert report.ok
