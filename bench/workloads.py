"""The benchmark's workloads: configs the figure panels themselves submit.

Each workload calls some panel generators with ``figures.base.run_many``
replaced by a recorder (the trick ``repro.golden.harvest_figure_configs``
uses), so its traffic is the figures' own rather than invented. The
benchmark's ``--seed`` is written into ``config.seed``; the simulator only ever
receives configs. Why each workload exists is recorded in ``BENCHMARK.json``
and ``bench/README.md``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Tuple

from repro.config import ExperimentConfig
from repro.core.cache import config_cache_key
from repro.figures import base, fig3, fig8, fig9, fig10, fig12

#: Seeds each lossy config runs under. Drop positions differ per seed and
#: move a round's host time by up to 10%; six seeds average that out.
LOSSY_SEEDS = 6
#: The all-to-all matrix side kept from fig8b's all-optimisation row: 24x24,
#: 576 flows, the largest experiment of any panel.
ALL_TO_ALL_SIDE = 24
#: Seeds the all-to-all config runs under. Steering and DCA draws differ per
#: seed and move its host time by up to 15%.
ALL_TO_ALL_SEEDS = 2


class _Recorded(Exception):
    """Stops a panel generator once its batch of configs is captured."""


def record(panels: Iterable[Callable], trace: bool = False) -> List[ExperimentConfig]:
    """The configs ``panels`` submit to the runner, in submission order.

    Each panel stops at its first batch; every panel used here submits one.
    """
    captured: List[ExperimentConfig] = []

    def recorder(configs, **kwargs):
        captured.extend(configs)
        raise _Recorded

    original = base.run_many
    base.run_many = recorder
    base.configure(trace=trace)
    try:
        for panel in panels:
            try:
                panel()
            except _Recorded:
                pass
    finally:
        base.run_many = original
        base.configure()
    return captured


def _bulk(trace: bool = False) -> List[ExperimentConfig]:
    # fig12a's "Default" ladder is fig3a's; the key dedup in build() keeps one.
    return record((fig3.fig3a, fig12.fig12a), trace=trace)


def _lossy() -> List[ExperimentConfig]:
    return record((fig9.fig9a,))


def _rpc() -> List[ExperimentConfig]:
    return record((fig10.fig10b,))


def _all_to_all() -> List[ExperimentConfig]:
    return [c for c in record((fig8.fig8b,)) if c.num_flows == ALL_TO_ALL_SIDE]


#: name -> (panel configs, how many consecutive seeds each config runs under)
WORKLOADS: Dict[str, Tuple[Callable[[], List[ExperimentConfig]], int]] = {
    "bulk": (_bulk, 1),
    "bulk_traced": (partial(_bulk, trace=True), 1),
    "lossy": (_lossy, LOSSY_SEEDS),
    "rpc": (_rpc, 1),
    "all_to_all": (_all_to_all, ALL_TO_ALL_SEEDS),
}


def build(name: str, seed: int) -> List[ExperimentConfig]:
    """Workload ``name``'s configs under benchmark seed ``seed``, unique by
    cache key, in panel order.

    A workload running each config under ``k`` seeds uses config seeds
    ``k*(seed-1)+1 .. k*seed``: two benchmark seeds never share an input, and
    seed 1 starts from the figures' own seed.
    """
    panel_configs, seeds = WORKLOADS[name]
    unique: Dict[str, ExperimentConfig] = {}
    for config in panel_configs():
        for offset in range(1, seeds + 1):
            seeded = config.replace(seed=seeds * (seed - 1) + offset)
            unique.setdefault(config_cache_key(seeded), seeded)
    return list(unique.values())
