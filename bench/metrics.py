"""Metric names and units: what ``BENCHMARK.json`` lists and runs print."""

from .layers import LAYER_NAMES, UNATTRIBUTED

#: End-to-end metrics, host time of timed rounds with profiling off; all
#: lower-is-better. Name -> unit.
END_TO_END = {
    "wall_s": "s",         # sum of the round's timed run_many calls
    "max_exp_s": "s",      # the round's slowest experiment: bounds `repro figure --jobs N`
    "setup_s": "s",        # child start, before `import repro`, to every Experiment built
    "peak_rss_mb": "MB",   # the child's ru_maxrss
}

#: Failed over attempted experiments. Printed beside END_TO_END but absent
#: from BENCHMARK.json, whose end-to-end metrics are never 0; the result
#: line's ``failed`` count carries it, and its bound is 0.
FAILED_FRAC = "failed_frac"

#: ExperimentResult counter -> per-layer metric, summed over a round.
RESULT_COUNTERS = {
    "retransmits": "kernel.tcp.retransmits",
    "timeouts": "kernel.tcp.timeouts",
    "nic_rx_drops": "hardware.nic.rx_drops",
    "wire_drops": "hardware.link.wire_drops",
}
RX_SKBS = "kernel.napi.rx_skbs"

#: Per-layer metrics of a ``--trace 1`` run. Name -> unit.
PER_LAYER = {
    **{
        f"{layer}.{suffix}": unit
        for layer in LAYER_NAMES
        for suffix, unit in (("self_s", "s"), ("share", "fraction"), ("calls_in", "count"))
    },
    f"{UNATTRIBUTED}.share": "fraction",
    "sim.events_fired": "count",
    "sim.events_cancelled": "count",
    "sim.useful_frac": "fraction",     # fired / (fired + cancelled)
    "sim.ns_per_event": "ns",          # unprofiled wall_s / events fired
    RX_SKBS: "count",
    **dict.fromkeys(RESULT_COUNTERS.values(), "count"),
    "trace_overhead": "fraction",      # profiled / unprofiled wall_s - 1
}
