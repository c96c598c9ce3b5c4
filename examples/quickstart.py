#!/usr/bin/env python3
"""Quickstart: measure a single 100Gbps flow through the simulated stack.

Reproduces the paper's §3.1 headline in a few lines: one iperf-style flow
between two directly-connected hosts with every optimization enabled, then
prints throughput-per-core and the receiver's Table-1 CPU breakdown.

Run:
    python examples/quickstart.py
"""

from repro import Experiment, ExperimentConfig
from repro.units import msec


def main() -> None:
    config = ExperimentConfig(duration_ns=msec(8), warmup_ns=msec(10))
    result = Experiment(config).run()

    print(result.summary())
    print()
    print(f"total throughput       : {result.total_throughput_gbps:6.1f} Gbps")
    print(f"throughput-per-core    : {result.throughput_per_core_gbps:6.1f} Gbps")
    print(f"sender CPU utilization : {100 * result.sender_utilization_cores:6.1f} %")
    print(f"receiver CPU util.     : {100 * result.receiver_utilization_cores:6.1f} %")
    print(f"receiver L3 miss rate  : {100 * result.receiver_cache_miss_rate:6.1f} %")
    print(
        f"NAPI->copy latency     : avg {result.copy_latency.avg_ns / 1000:.0f}us, "
        f"p99 {result.copy_latency.percentile(0.99) / 1000:.0f}us"
    )
    print()
    print("receiver CPU breakdown (paper Fig 3d, '+aRFS' column):")
    for label, fraction in result.receiver_breakdown.as_rows():
        bar = "#" * int(50 * fraction)
        print(f"  {label:22s} {fraction:5.1%}  {bar}")


if __name__ == "__main__":
    main()
