"""Every experiment setting is one that something varies.

A config field that takes one value in every figure config is a testbed
constant in disguise: it belongs in ``repro.constants`` (DESIGN.md §2), not
in ``ExperimentConfig``, where it widens the cache key and the config space
for nothing.
"""

import dataclasses
import json

from repro.config import ExperimentConfig

#: Leaves no panel varies, each with what does vary it.
EXEMPT = {
    "seed": "set by the benchmark's workload seeds and `repro run --seed`",
    "trace": "set by the benchmark's bulk_traced workload and `repro trace`",
    "duration_ns": "set by the golden windows and `repro run --duration-ms`",
}


def _leaf_paths(cls, prefix=""):
    """Dotted paths of every leaf field, nested config sections expanded."""
    for f in dataclasses.fields(cls):
        default = (
            f.default_factory() if f.default_factory is not dataclasses.MISSING
            else f.default
        )
        if dataclasses.is_dataclass(default):
            yield from _leaf_paths(type(default), f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def _value(canonical: dict, path: str) -> str:
    for name in path.split("."):
        canonical = canonical[name]
    return json.dumps(canonical, sort_keys=True)


def test_every_config_leaf_takes_two_values_across_the_figures(harvested_configs):
    paths = list(_leaf_paths(ExperimentConfig))
    assert set(EXEMPT) <= set(paths), "an exemption names no config field"
    canonicals = [config.to_canonical_dict() for config in harvested_configs]
    fixed = sorted(
        path for path in paths
        if path not in EXEMPT
        and len({_value(canonical, path) for canonical in canonicals}) < 2
    )
    assert not fixed, (
        f"config fields with one value in every figure config: {fixed}; "
        "make each a constant in repro.constants"
    )
