"""Command-line interface: run experiments and regenerate paper figures.

Usage examples::

    python -m repro run --pattern incast --flows 8
    python -m repro run --pattern single --no-arfs --loss 1.5e-3
    python -m repro figure fig3a
    python -m repro figure fig3e --jobs 8        # fan the sweep out across workers
    python -m repro figure fig8c --export /tmp/fig8c.csv
    python -m repro figure fig3a --no-cache      # force re-simulation
    python -m repro figure fig3a --audit         # conservation-audit every run
    python -m repro figure all --jobs 2          # every panel, one after another
    python -m repro trace fig3a                  # per-stage latency breakdown
    python -m repro list

Results are cached on disk keyed by a content hash of the full experiment
config (see ``repro.core.cache``), so re-running an unchanged figure is a
near-instant cache hit; ``--no-cache`` disables it and ``--cache-dir`` moves
it (default: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-hostnet``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import (
    CongestionControl,
    ExperimentConfig,
    HostConfig,
    LinkConfig,
    NicConfig,
    NumaPolicy,
    OptimizationConfig,
    TcpConfig,
    TrafficPattern,
    WorkloadConfig,
)
from .core.cache import ResultCache, default_cache_dir
from .core.export import export_table, result_to_json
from .core.runner import RunnerStats, run_many
from .figures import PANELS
from .figures import base as figures_base
from .units import kb, msec


def _jobs_arg(text: str) -> int:
    jobs = int(text)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = one per CPU), got {jobs}"
        )
    return jobs


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Runner knobs shared by the ``run``, ``figure`` and ``trace`` subcommands."""
    parser.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N",
                        help="worker processes for independent experiments "
                        "(0 = one per CPU; default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro-hostnet)")
    parser.add_argument("--audit", action="store_true",
                        help="run the conservation auditor on every experiment "
                        "(byte/cycle/event accounting; implies --no-cache; "
                        "exits non-zero on violations)")


def _runner_settings(args: argparse.Namespace):
    """Map parsed runner flags to ``(jobs, cache, audit)`` for run_many."""
    jobs = None if args.jobs == 0 else args.jobs
    audit = getattr(args, "audit", False)
    # Audited runs never touch the cache: a cached entry carries the audit
    # of the run that produced it, not of the current code.
    cache = None if (args.no_cache or audit) else ResultCache(
        args.cache_dir if args.cache_dir else default_cache_dir()
    )
    return jobs, cache, audit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulation-based reproduction of 'Understanding Host "
        "Network Stack Overheads' (SIGCOMM 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and print its result")
    run.add_argument("--pattern", default="single",
                     choices=[p.value for p in TrafficPattern])
    run.add_argument("--flows", type=int, default=1)
    run.add_argument("--duration-ms", type=float, default=8.0)
    run.add_argument("--warmup-ms", type=float, default=10.0)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--no-tso-gro", action="store_true")
    run.add_argument("--no-jumbo", action="store_true")
    run.add_argument("--no-arfs", action="store_true")
    run.add_argument("--lro", action="store_true", help="NIC-side merge instead of GRO")
    run.add_argument("--no-dca", action="store_true", help="disable DDIO")
    run.add_argument("--iommu", action="store_true", help="enable the IOMMU")
    run.add_argument("--numa-remote", action="store_true",
                     help="place receiver apps on NIC-remote NUMA nodes")
    run.add_argument("--cc", default="cubic",
                     choices=[c.value for c in CongestionControl])
    run.add_argument("--loss", type=float, default=0.0,
                     help="random drop rate at an in-path switch")
    run.add_argument("--rx-buffer-kb", type=int,
                     help="pin the TCP Rx buffer (default: autotuned)")
    run.add_argument("--ring", type=int, default=0, help="NIC Rx descriptors")
    run.add_argument("--rpc-kb", type=int, default=4, help="RPC message size")
    run.add_argument("--rpc-flows", type=int, default=0,
                     help="short flows for the mixed pattern")
    run.add_argument("--json", action="store_true", help="emit JSON")
    _add_runner_args(run)

    figure = sub.add_parser(
        "figure", help="regenerate one paper figure panel, or `all` of them"
    )
    figure.add_argument("name", help="e.g. fig3a, fig8c, table1, or all")
    figure.add_argument("--export", help="write the table to a .csv/.json file")
    _add_runner_args(figure)

    trace = sub.add_parser(
        "trace",
        help="run one figure's experiments with per-stage latency tracing "
        "and render the stage-by-stage breakdown (avg/p50/p99 per stage, "
        "audit-checked against the end-to-end copy latency)",
    )
    trace.add_argument("name", help="e.g. fig3a, fig8c, table1")
    trace.add_argument("--export", help="write the trace table to .csv/.json")
    _add_runner_args(trace)

    lint = sub.add_parser(
        "lint",
        help="run the repro static-analysis checkers (determinism, "
        "slots discipline) over src/repro; exits non-zero on any finding "
        "no pragma allows",
    )
    lint.add_argument("--json", action="store_true",
                      help="emit the full report as JSON")
    lint.add_argument("--verbose", action="store_true",
                      help="print each rule's rationale under its findings")

    sub.add_parser("list", help="list available figure panels")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    opts = OptimizationConfig(
        tso_gro=not args.no_tso_gro,
        jumbo=not args.no_jumbo,
        arfs=not args.no_arfs,
        lro=args.lro,
    )
    tcp = TcpConfig(
        rx_buffer_bytes=None if args.rx_buffer_kb is None else kb(args.rx_buffer_kb),
        congestion_control=CongestionControl(args.cc),
    )
    nic = NicConfig()
    if args.ring:
        nic.rx_descriptors = args.ring
    link = LinkConfig(loss_rate=args.loss, has_switch=args.loss > 0)
    host = HostConfig(dca_enabled=not args.no_dca, iommu_enabled=args.iommu)
    return ExperimentConfig(
        pattern=TrafficPattern(args.pattern),
        num_flows=args.flows,
        duration_ns=msec(args.duration_ms),
        warmup_ns=msec(args.warmup_ms),
        seed=args.seed,
        opts=opts,
        tcp=tcp,
        nic=nic,
        link=link,
        host=host,
        numa_policy=(
            NumaPolicy.NIC_REMOTE if args.numa_remote else NumaPolicy.NIC_LOCAL_FIRST
        ),
        workload=WorkloadConfig(
            rpc_size_bytes=kb(args.rpc_kb), num_rpc_flows=args.rpc_flows
        ),
    )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:  # the config rejects itself at construction
        print(f"repro run: invalid configuration: {exc}", file=sys.stderr)
        return 2
    jobs, cache, audit = _runner_settings(args)
    stats = RunnerStats()
    result = run_many([config], jobs=jobs, cache=cache, stats=stats, audit=audit)[0]
    if stats.cache_hits:
        print("(served from result cache)", file=sys.stderr)
    if args.json:
        print(result_to_json(result))
        return _audit_exit_code(result.audit_report)
    print(result.summary())
    print()
    print("receiver CPU breakdown:")
    for label, fraction in result.receiver_breakdown.as_rows():
        print(f"  {label:22s} {fraction:6.1%}")
    print("sender CPU breakdown:")
    for label, fraction in result.sender_breakdown.as_rows():
        print(f"  {label:22s} {fraction:6.1%}")
    if result.audit_report is not None:
        print()
        print(result.audit_report.render())
    return _audit_exit_code(result.audit_report)


def _audit_exit_code(report) -> int:
    return 1 if report is not None and not report.ok else 0


def _panel(name: str, jobs, cache, audit: bool, trace: bool):
    """Run one figure panel under the given runner settings; print its table
    (the per-stage latency table when tracing) to stdout, and its trace
    identity check and audit report to stderr.

    Returns ``(printed table, exit code)``. Runner counters accumulate in
    ``figures_base.STATS``.
    """
    from .core.audit import merge_reports
    from .trace import TraceReport

    figures_base.configure(jobs=jobs, cache=cache, audit=audit, trace=trace)
    try:
        table = PANELS[name]()
        # Merge before the finally clause's configure() clears the lists.
        report = merge_reports(figures_base.AUDIT_REPORTS) if audit else None
        trace_report = TraceReport.merge(figures_base.TRACE_REPORTS) if trace else None
    finally:
        figures_base.configure()  # restore the sequential, uncached default
    violations = []
    if trace_report is not None:
        table = trace_report.to_table(f"{name}: per-stage latency")
    print(table.render())
    if trace_report is not None:
        checks, violations = trace_report.check_identity()
        if violations:
            print(f"trace identity FAILED ({checks} checks):", file=sys.stderr)
            for message in violations:
                print(f"  - {message}", file=sys.stderr)
        else:
            print(
                f"trace identity ok: stage deltas sum to end-to-end copy latency "
                f"({checks} checks)",
                file=sys.stderr,
            )
    if report is not None:
        print(report.render(), file=sys.stderr)
    return table, 1 if violations else _audit_exit_code(report)


def cmd_panel(args: argparse.Namespace) -> int:
    """``repro figure`` and ``repro trace``: run one panel (or ``all`` of
    them, in sorted order, each followed by a blank line), print its table
    (the per-stage latency table when tracing) and any audit report, and
    export what was printed."""
    trace = args.command == "trace"
    if args.name == "all":
        if args.export:
            print(f"repro {args.command}: --export takes one panel, not all",
                  file=sys.stderr)
            return 2
        names = sorted(PANELS)
    elif args.name in PANELS:
        names = [args.name]
    else:
        print(f"unknown panel {args.name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    jobs, cache, audit = _runner_settings(args)
    figures_base.STATS.reset()
    code = 0
    for name in names:
        table, panel_code = _panel(name, jobs, cache, audit, trace)
        code = max(code, panel_code)
        if args.name == "all":
            print()
    stats = figures_base.STATS
    if stats.experiments_run or stats.cache_hits:
        print(
            f"runner: {stats.experiments_run} experiments simulated, "
            f"{stats.cache_hits} served from cache",
            file=sys.stderr,
        )
    if args.export:
        export_table(table, args.export)
        print(f"\nwritten to {args.export}")
    return code


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import lint as lint_mod

    report = lint_mod.run_lint()
    if args.json:
        print(lint_mod.render_json(report))
    else:
        print(lint_mod.render_text(report, verbose=args.verbose))
    return report.exit_code


def cmd_list(_: argparse.Namespace) -> int:
    for name in sorted(PANELS):
        print(name)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "figure": cmd_panel,
        "trace": cmd_panel,
        "lint": cmd_lint,
        "list": cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
