"""Simulator layers, and the roll-up of a cProfile run into them.

Each module under ``src/repro`` belongs to exactly one layer. A profiled
function's ``tottime`` is charged to the layer of the file it is defined in;
functions defined outside the simulator (builtins, the standard library,
numpy) are charged to the layers of their callers through the profile's caller
edges, split by the cumulative time each caller spent in them. Time with no
simulator caller at all (the benchmark's own loop) is ``unattributed``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

#: Layer -> the paths under ``src/repro`` it owns. A path ending in ``/`` owns
#: a whole package; any other path owns one module.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim/",),
    "hardware.link": ("hardware/link.py", "hardware/train.py"),
    "hardware.nic": ("hardware/nic.py", "hardware/steering.py", "hardware/iommu.py"),
    "hardware.cache": ("hardware/cache.py",),
    "hardware.cpu": (
        "hardware/cpu.py", "hardware/topology.py", "core/profiler.py", "costs/",
    ),
    "kernel.napi": ("kernel/napi.py", "kernel/gro.py", "kernel/gso.py", "kernel/skb.py"),
    "kernel.tcp": ("kernel/tcp/",),
    "kernel.socket": (
        "kernel/socket.py", "kernel/syscall.py", "kernel/sched.py", "kernel/mem.py",
        "kernel/host.py",
    ),
    "workloads": ("workloads/",),
    "core.metrics": ("core/metrics.py", "trace.py"),
}
#: Every module no other layer owns: experiment set-up, config, results,
#: export, the runner and the audit.
DEFAULT_LAYER = "core.runner"
LAYER_NAMES = (*LAYERS, DEFAULT_LAYER)
#: Profile time reached from no simulator function.
UNATTRIBUTED = "unattributed"

Func = Tuple[str, int, str]  # pstats key: (filename, line, function name)


def owners(relpath: str) -> list:
    """The layers that explicitly own ``relpath`` (posix, relative to the
    ``repro`` package directory)."""
    return [
        layer
        for layer, paths in LAYERS.items()
        if any(relpath == p or (p.endswith("/") and relpath.startswith(p)) for p in paths)
    ]


def layer_of(relpath: str) -> str:
    found = owners(relpath)
    return found[0] if found else DEFAULT_LAYER


def rollup(stats: dict, package_dir: Path) -> dict:
    """Per-layer self time and incoming calls from ``pstats.Stats.stats``.

    Returns ``{"self_s": {layer: s}, "calls_in": {layer: n}, "total_s": s}``.
    ``self_s`` has an entry for every layer plus ``unattributed`` and sums to
    ``total_s``, the profile's total ``tottime``. ``calls_in`` counts calls
    into a layer's public (non-underscore) functions from another layer.
    """
    package_dir = package_dir.resolve()
    file_layers: Dict[str, Optional[str]] = {}

    def home(func: Func) -> Optional[str]:
        filename = func[0]
        if filename not in file_layers:
            try:
                relpath = Path(filename).resolve().relative_to(package_dir)
            except ValueError:
                file_layers[filename] = None
            else:
                file_layers[filename] = layer_of(relpath.as_posix())
        return file_layers[filename]

    shares: Dict[Func, Dict[str, float]] = {}

    def attribution(func: Func, visiting: frozenset) -> Dict[str, float]:
        """How a function outside the simulator splits across layers."""
        if func in shares:
            return shares[func]
        layer = home(func)
        if layer is not None:
            return {layer: 1.0}
        callers = {
            caller: edge for caller, edge in stats.get(func, (0, 0, 0, 0, {}))[4].items()
            if caller not in visiting
        }
        # Weigh callers by cumulative time through them, by call count if the
        # timer could not resolve that.
        weights = {caller: edge[3] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[0] for caller, edge in callers.items()}
        total = sum(weights.values())
        split: Dict[str, float] = {}
        if total <= 0:
            split[UNATTRIBUTED] = 1.0
        else:
            for caller, weight in weights.items():
                for layer, fraction in attribution(caller, visiting | {func}).items():
                    split[layer] = split.get(layer, 0.0) + fraction * weight / total
        shares[func] = split
        return split

    self_s = dict.fromkeys((*LAYER_NAMES, UNATTRIBUTED), 0.0)
    calls_in = dict.fromkeys(LAYER_NAMES, 0)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = home(func)
        if layer is None:
            for owner, fraction in attribution(func, frozenset()).items():
                self_s[owner] += tottime * fraction
            continue
        self_s[layer] += tottime
        if not func[2].startswith("_"):
            calls_in[layer] += sum(
                edge[0] for caller, edge in callers.items()
                if home(caller) not in (None, layer)
            )
    return {"self_s": self_s, "calls_in": calls_in, "total_s": sum(self_s.values())}
