"""Host-time benchmark of the simulator on the figures' own traffic.

``python -m bench run`` times cold in-process figure experiments, one fresh
interpreter per (workload, round); ``python -m bench layers`` profiles one
round per workload and rolls the profile up into simulator layers;
``python -m bench compare PARENT CHANGE`` judges two sets of runs against the
bounds in ``BENCHMARK.json``. See ``bench/README.md``.

The benchmark drives the simulator only through its public entry points
(figure generators, ``ExperimentConfig``, ``Experiment``, ``run_many``), so it
keeps measuring the same product when the simulator's internals change.
"""

from pathlib import Path

#: The checkout the benchmark runs from: the simulator lives in ``ROOT/src``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
