"""One round of one workload in a fresh interpreter: ``python -m bench.child JOB``.

``JOB`` is a JSON object with ``workload``, ``seed``, ``limit`` (how many
configs to keep, null for all), ``mode`` and, in ``profiled`` mode,
``profile`` (where to write the ``.prof`` file). The modes are:

* ``check``: every experiment runs under the strict conservation audit; the
  round is not timed and its result digests are the reference;
* ``timed``: the measured round;
* ``profiled``: the round runs under cProfile and the profile is rolled up
  into layers (``bench.layers``).

Each config runs through ``run_many([config], jobs=1, cache=None)``: in
process, no pool, no result cache. Set-up runs from interpreter start, before
the simulator is imported, until every ``Experiment`` of the workload has been
constructed. Outside profiled rounds a ``SpeedProbe`` converts every interval
to the reference speed. The child prints one JSON payload as the last line of
its standard output.
"""

import cProfile
import gc
import hashlib
import json
import pstats
import resource
import sys
import time
from pathlib import Path
from typing import Optional

from . import layers
from .metrics import RESULT_COUNTERS, RX_SKBS
from .probe import SpeedProbe


def payload_digest(payload: dict) -> str:
    """SHA-256 of a ``result_to_dict`` payload without its audit section,
    which only the check round carries."""
    payload = {key: value for key, value in payload.items() if key != "audit"}
    document = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def result_error(result, audited: bool) -> Optional[str]:
    """Why ``result`` is wrong, or None."""
    if audited and (result.audit_report is None or not result.audit_report.ok):
        return "strict audit failed"
    if result.trace is not None and result.trace.check_identity()[1]:
        return "trace identity failed"
    return None


def run_round(job: dict, setup_start: float, probe: SpeedProbe) -> dict:
    # Imported here so that set-up time covers importing the simulator.
    import repro
    from repro.core.cache import config_cache_key
    from repro.core.experiment import Experiment
    from repro.core.export import result_to_dict
    from repro.core.runner import RunnerStats, run_many

    from .workloads import build

    configs = build(job["workload"], job["seed"])[: job["limit"]]
    audited = job["mode"] == "check"
    for config in configs:
        Experiment(config, audit=audited)
    setup_end = time.perf_counter()
    gc.collect()  # set-up garbage is not the timed experiments' cost

    profiler = cProfile.Profile() if job["mode"] == "profiled" else None
    stats = RunnerStats()
    counters = dict.fromkeys((*RESULT_COUNTERS.values(), RX_SKBS), 0)
    experiments = []
    for config in configs:
        result = error = digest = None
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            [result] = run_many([config], jobs=1, cache=None, stats=stats, audit=audited)
        except Exception as exc:  # one raising config fails one experiment, not the round
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if profiler is not None:
            profiler.disable()
        if result is not None:
            error = result_error(result, audited)
            digest = payload_digest(result_to_dict(result))
            for attr, name in RESULT_COUNTERS.items():
                counters[name] += getattr(result, attr)
            counters[RX_SKBS] += sum(result.rx_skb_sizes.values())
        experiments.append({
            "key": config_cache_key(config), "start": start, "end": end,
            "digest": digest, "error": error,
        })
    probe.stop()

    for exp in experiments:
        exp["reference_s"] = probe.at_reference_speed(exp["start"], exp["end"])
    payload = {
        "setup_start": setup_start,
        "setup_end": setup_end,
        "setup_reference_s": probe.at_reference_speed(setup_start, setup_end),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "events_fired": stats.events_fired,
        "events_cancelled": stats.events_cancelled,
        "counters": counters,
        "experiments": experiments,
    }
    if profiler is not None:
        profile = pstats.Stats(profiler)
        payload["layers"] = layers.rollup(profile.stats, Path(repro.__file__).parent)
        profile.dump_stats(job["profile"])
    return payload


if __name__ == "__main__":
    setup_start = time.perf_counter()
    job = json.loads(sys.argv[1])
    probe = SpeedProbe()
    if job["mode"] != "profiled":  # the probe's handler would show up in the profile
        probe.start()
    print(json.dumps(run_round(job, setup_start, probe)))
