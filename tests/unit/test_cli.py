"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import _build_parser, _config_from_args, main
from repro.config import CongestionControl, NumaPolicy, TrafficPattern


def parse(args):
    return _build_parser().parse_args(args)


def test_run_defaults():
    config = _config_from_args(parse(["run"]))
    assert config.pattern is TrafficPattern.SINGLE
    assert config.opts.arfs and config.opts.tso_gro and config.opts.jumbo
    assert config.tcp.rx_buffer_bytes is None


def test_run_flag_mapping():
    config = _config_from_args(parse([
        "run", "--pattern", "incast", "--flows", "8", "--no-arfs",
        "--iommu", "--no-dca", "--numa-remote", "--cc", "bbr",
        "--loss", "0.001", "--rx-buffer-kb", "3200", "--ring", "512",
    ]))
    assert config.pattern is TrafficPattern.INCAST
    assert config.num_flows == 8
    assert not config.opts.arfs
    assert config.host.iommu_enabled and not config.host.dca_enabled
    assert config.numa_policy is NumaPolicy.NIC_REMOTE
    assert config.tcp.congestion_control is CongestionControl.BBR
    assert config.link.loss_rate == 0.001 and config.link.has_switch
    assert config.tcp.rx_buffer_bytes == 3200 * 1024
    assert config.nic.rx_descriptors == 512
    config.validate()


def test_run_rejects_bad_config_before_simulating(capsys):
    assert main(["run", "--flows", "0"]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "num_flows" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--rx-buffer-kb", "-5"],
        ["--rx-buffer-kb", "0"],
        ["--pattern", "mixed", "--rpc-flows", "-3"],
        ["--pattern", "rpc-incast", "--rpc-kb", "0"],
        ["--pattern", "rpc-incast", "--rpc-kb", "-4"],
    ],
    ids=["rx_buffer_negative", "rx_buffer_zero", "rpc_flows", "rpc_kb_zero", "rpc_kb_negative"],
)
def test_run_rejects_bad_sizes_and_counts(argv, capsys):
    assert main(["run", *argv]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig3a" in out and "table1" in out and "fig13c" in out


def test_figure_command_renders_table(capsys):
    assert main(["figure", "table1"]) == 0
    assert "CPU usage taxonomy" in capsys.readouterr().out


def test_figure_command_unknown_panel(capsys):
    assert main(["figure", "nope"]) == 2


def test_figure_export(tmp_path, capsys):
    path = tmp_path / "t2.csv"
    assert main(["figure", "table2", "--export", str(path)]) == 0
    assert "mechanism" in path.read_text()


def test_figure_all_prints_each_panel_then_a_blank_line(capsys, monkeypatch):
    from repro import cli
    from repro.figures import tables

    monkeypatch.setattr(cli, "PANELS", {"table2": tables.table2, "table1": tables.table1})
    assert main(["figure", "all"]) == 0
    out = capsys.readouterr().out
    assert out == f"{tables.table1().render()}\n\n{tables.table2().render()}\n\n"


def test_figure_all_refuses_export(tmp_path, capsys):
    path = tmp_path / "x.csv"
    assert main(["figure", "all", "--export", str(path)]) == 2
    assert "--export" in capsys.readouterr().err
    assert not path.exists()


def test_run_json_output(capsys):
    code = main([
        "run", "--duration-ms", "2", "--warmup-ms", "2", "--json",
    ])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["total_throughput_gbps"] > 0


def test_run_audit_flag_prints_clean_report(capsys):
    code = main([
        "run", "--duration-ms", "1", "--warmup-ms", "2", "--audit",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "conservation checks passed" in out


def test_run_audit_json_embeds_report(capsys):
    code = main([
        "run", "--duration-ms", "1", "--warmup-ms", "2", "--audit", "--json",
    ])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["audit"]["violations"] == []
    assert document["audit"]["checks_run"] > 20


def test_audit_flag_disables_cache():
    from repro.cli import _runner_settings

    args = parse(["run", "--audit"])
    jobs, cache, audit = _runner_settings(args)
    assert audit and cache is None

    args = parse(["figure", "fig3a", "--audit"])
    _, cache, audit = _runner_settings(args)
    assert audit and cache is None


def test_figure_audit_reports_clean_panel(capsys, short_figure_windows):
    assert main(["figure", "fig3a", "--audit"]) == 0
    captured = capsys.readouterr()
    assert "conservation checks passed" in captured.err
    assert "4 experiments simulated" in captured.err


def test_audit_subcommand_is_gone(capsys):
    # `repro figure <panel> --audit` replaced it: a script still calling it
    # fails loudly.
    with pytest.raises(SystemExit) as excinfo:
        main(["audit", "fig3a"])
    assert excinfo.value.code == 2
    assert "audit" in capsys.readouterr().err


def test_trace_subcommand_renders_stage_table(capsys, short_figure_windows):
    assert main(["trace", "fig3a"]) == 0
    captured = capsys.readouterr()
    assert "per-stage latency" in captured.out
    assert "rx_copy" in captured.out and "e2e" in captured.out
    assert "trace identity ok" in captured.err


def test_trace_subcommand_export(capsys, short_figure_windows, tmp_path):
    path = tmp_path / "trace.csv"
    assert main(["trace", "fig3a", "--export", str(path)]) == 0
    assert "rx_softirq" in path.read_text()


def test_trace_subcommand_unknown_panel(capsys):
    assert main(["trace", "nope"]) == 2


def test_figure_audit_exits_nonzero_on_violation(capsys, monkeypatch):
    """A violating report must turn into a non-zero exit for CI."""
    from repro.cli import _audit_exit_code
    from repro.core.audit import AuditReport, AuditViolation

    clean = AuditReport(checks_run=5)
    dirty = AuditReport(
        checks_run=5,
        violations=[AuditViolation("byte.tx_half", "flow 0", 1, 2)],
    )
    assert _audit_exit_code(None) == 0
    assert _audit_exit_code(clean) == 0
    assert _audit_exit_code(dirty) == 1
