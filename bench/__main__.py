"""Command line: ``python -m bench {run,layers,compare}`` from the checkout root."""

from __future__ import annotations

import argparse
import sys

from . import ROOT, SRC


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("run", "time cold figure experiments (--trace 1: the per-layer run)"),
        ("layers", "the per-layer run: one timed and one profiled round per workload"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--workload", action="append",
                       help="workload to run (repeatable; default: all, rotated)")
        p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
        p.add_argument("--rounds", type=_positive, default=3,
                       help="minimum timed rounds per workload (default 3)")
        p.add_argument("--seconds", type=float, default=0.0,
                       help="keep adding timed rounds until their experiments took "
                            "this long in total (default 0)")
        p.add_argument("--limit", type=_positive, default=None,
                       help="keep only the first N configs of each workload")
        p.add_argument("--out", help="append one JSON record per workload to this file")
        p.add_argument("--out-dir", default=str(ROOT / ".bench_out"),
                       help="where spans.jsonl and the .prof files go")
        if command == "run":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                           help="1: report per-layer metrics instead (same as `layers`)")
    p = sub.add_parser("compare", help="judge a change's runs against its parent's")
    p.add_argument("parent", help="`run --out` records of the parent commit")
    p.add_argument("change", help="`run --out` records of the change")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                   help="where the bounds come from")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from .compare import compare

        return compare(args.parent, args.change, args.benchmark)
    if not (SRC / "repro").is_dir():
        print(f"bench: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.command == "layers":
        args.trace = 1
    sys.path.insert(0, str(SRC))
    from .run import run  # imports the simulator, now on the path

    return run(args)


if __name__ == "__main__":
    sys.exit(main())
