"""Host-time profile per layer, measured from outside the program.

A :class:`LayerProfiler` wraps :mod:`cProfile` around a block of benchmark
code.  :func:`fold` then charges every profiled function's *self* time to
exactly one layer of :data:`LAYER_TABLE`:

* a function defined in a mapped module (``repro.*`` or the benchmark's
  own ``perfbench.*``) is charged to that module's layer;
* any other function — a C builtin, the standard library, or the
  ``<string>`` code ``dataclasses`` generates — is *foreign*: its self time
  on each caller edge is charged to the calling layer, so ``len`` called
  from ``repro.core.regions`` is region time.  A foreign caller is itself
  resolved through its own heaviest caller.  Time with no recorded caller
  (calls made directly from the profiled block) goes to ``harness``.

The fold works in the profiler's integer clock ticks (nanoseconds), so the
layer times sum *exactly* to the profiler's total.  ``ncalls`` and the
inclusive time of a few named entry points (:data:`ENTRY_POINTS`) are
recorded alongside.
"""

from __future__ import annotations

import cProfile
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import repro
from repro.blobseer.metadata.cache import MetadataNodeCache
from repro.core.atomicity import apply_writes, check_mpi_atomicity

#: layer -> module patterns.  ``a.b`` names one module; ``a.b.*`` names the
#: package ``a.b`` and everything below it.  Every ``repro`` module matches
#: exactly one pattern (``tests/test_hostprof.py`` checks this).
LAYER_TABLE: Dict[str, Tuple[str, ...]] = {
    "simengine": ("repro.simengine.*",),
    "cluster": ("repro.cluster.*",),
    "blobseer.client": ("repro.blobseer.client", "repro.blobseer.writepath.*"),
    "blobseer.metadata": ("repro.blobseer.metadata.*",),
    "blobseer.storage": ("repro.blobseer", "repro.blobseer.blob",
                         "repro.blobseer.chunk", "repro.blobseer.deployment",
                         "repro.blobseer.provider",
                         "repro.blobseer.provider_manager",
                         "repro.blobseer.version_manager"),
    "vstore": ("repro.vstore.*",),
    "posixfs": ("repro.posixfs.*",),
    "mpi": ("repro.mpi.*",),
    "mpiio": ("repro.mpiio.*",),
    "core.regions": ("repro.core.regions",),
    "core.atomicity": ("repro.core.atomicity",),
    "core.listio": ("repro.core.listio",),
    "core": ("repro", "repro._version", "repro.errors", "repro.core"),
    "obs": ("repro.obs.*",),
    "bench": ("repro.bench.*", "repro.workloads.*"),
    "fuzz": ("repro.fuzz.*",),
    "harness": ("perfbench.*",),
}

#: layers a benchmark run can exercise (``fuzz`` is mapped but never runs)
REPORTED_LAYERS: Tuple[str, ...] = tuple(
    layer for layer in LAYER_TABLE if layer != "fuzz")

#: the layer that receives time no mapped caller can be found for
UNATTRIBUTED = "harness"

#: named public entry points whose ncalls / inclusive time are recorded
ENTRY_POINTS = {
    "MetadataNodeCache.put": MetadataNodeCache.put,
    "apply_writes": apply_writes,
    "check_mpi_atomicity": check_mpi_atomicity,
}

_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_BENCH_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TICKS_PER_SECOND = 1_000_000_000


def _pattern_matches(pattern: str, module: str) -> bool:
    if pattern.endswith(".*"):
        package = pattern[:-2]
        return module == package or module.startswith(package + ".")
    return module == pattern


def layers_matching(module: str) -> List[str]:
    """Every layer with a pattern matching ``module`` (one, when the table is sound)."""
    return [layer for layer, patterns in LAYER_TABLE.items()
            if any(_pattern_matches(pattern, module) for pattern in patterns)]


def module_of(filename: str) -> Optional[str]:
    """Dotted module name of a source file under ``src/`` or the benchmark."""
    path = os.path.abspath(filename)
    for root in (_SRC_ROOT, _BENCH_ROOT):
        if path.startswith(root + os.sep) and path.endswith(".py"):
            parts = os.path.relpath(path, root)[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            module = ".".join(parts)
            if module.split(".")[0] in ("repro", "perfbench"):
                return module
    return None


def _describe(key: object) -> Tuple[str, int, str]:
    """A run-independent sort key for a profiled function."""
    if hasattr(key, "co_filename"):
        return (key.co_filename, key.co_firstlineno, key.co_name)
    return ("~", 0, str(key))


def _ticks(seconds: float) -> int:
    return round(seconds * _TICKS_PER_SECOND)


@dataclass
class LayerFold:
    """Per-layer self time (in profiler ticks) plus entry-point counters."""

    layer_ticks: Dict[str, int]
    total_ticks: int
    entry_calls: Dict[str, int] = field(default_factory=dict)
    entry_inclusive_ticks: Dict[str, int] = field(default_factory=dict)

    def seconds(self, layer: str) -> float:
        """Self seconds charged to ``layer``."""
        return self.layer_ticks.get(layer, 0) / _TICKS_PER_SECOND

    @property
    def total_seconds(self) -> float:
        """The profiler's total: the sum of every function's self time."""
        return self.total_ticks / _TICKS_PER_SECOND

    def entry_inclusive_seconds(self, name: str) -> float:
        """Inclusive seconds of the named entry point (callees included)."""
        return self.entry_inclusive_ticks.get(name, 0) / _TICKS_PER_SECOND


def fold(entries: Iterable) -> LayerFold:
    """Fold ``cProfile.Profile.getstats()`` entries into layers.

    ``entries`` carry ``code`` (a code object, or a string for a builtin),
    ``inlinetime``, ``totaltime``, ``callcount`` and ``calls`` (sub-entries
    per callee, with the callee's inline time on that edge).
    """
    entries = list(entries)
    self_ticks: Dict[object, int] = {}
    callers: Dict[object, Dict[object, List[int]]] = {}
    calls: Dict[object, int] = {}
    inclusive: Dict[object, int] = {}
    for entry in entries:
        key = entry.code
        self_ticks[key] = self_ticks.get(key, 0) + _ticks(entry.inlinetime)
        calls[key] = calls.get(key, 0) + entry.callcount
        inclusive[key] = inclusive.get(key, 0) + _ticks(entry.totaltime)
        callers.setdefault(key, {})
    for entry in entries:
        for sub in entry.calls or ():
            edge = callers.setdefault(sub.code, {}).setdefault(entry.code, [0, 0])
            edge[0] += _ticks(sub.inlinetime)
            edge[1] += _ticks(sub.totaltime)

    own_layer: Dict[object, Optional[str]] = {}
    for key in self_ticks:
        module = module_of(key.co_filename) if hasattr(key, "co_filename") else None
        matches = layers_matching(module) if module else []
        own_layer[key] = matches[0] if matches else None

    resolved: Dict[object, str] = {}

    def layer_of(key: object, visiting: frozenset) -> str:
        """Layer of a caller: its own, or (foreign) its heaviest caller's."""
        layer = own_layer.get(key)
        if layer is not None:
            return layer
        if key not in resolved:
            edges = [caller for caller in callers.get(key, {})
                     if caller not in visiting and caller != key]
            heaviest = max(edges, default=None, key=lambda caller: (
                callers[key][caller][1], _describe(caller)))
            resolved[key] = (UNATTRIBUTED if heaviest is None
                             else layer_of(heaviest, visiting | {key}))
        return resolved[key]

    layer_ticks: Dict[str, int] = {layer: 0 for layer in LAYER_TABLE}
    for key, ticks in self_ticks.items():
        layer = own_layer[key]
        if layer is not None:
            layer_ticks[layer] += ticks
            continue
        # foreign code: each caller edge's inline ticks go to the caller's
        # layer (a recursive edge to this function's own resolved layer);
        # ticks with no recorded caller stay unattributed
        remaining = ticks
        for caller, edge in callers[key].items():
            layer_ticks[layer_of(caller, frozenset({key}))] += edge[0]
            remaining -= edge[0]
        layer_ticks[UNATTRIBUTED] += remaining

    names = {function.__code__: name for name, function in ENTRY_POINTS.items()}
    return LayerFold(
        layer_ticks=layer_ticks,
        total_ticks=sum(self_ticks.values()),
        entry_calls={name: calls.get(code, 0) for code, name in names.items()},
        entry_inclusive_ticks={name: inclusive.get(code, 0)
                               for code, name in names.items()},
    )


class LayerProfiler:
    """``with prof: ...`` then ``prof.fold()``; every ``with`` block adds to
    one profile, so only the blocks' code is profiled."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    def __enter__(self) -> "LayerProfiler":
        self._profile.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profile.disable()

    def fold(self) -> LayerFold:
        return fold(self._profile.getstats())
