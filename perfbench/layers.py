"""Bucket a ``cProfile`` run by ``repro`` package (the benchmark's layers).

The profile is taken with ``builtins=False``, so time in a builtin is
already part of its Python caller's self time.  Time in a Python
function outside ``repro`` (the standard library, the benchmark's own
code) is charged to the ``repro`` packages that called it, split by
how much of its time each call site accounts for, following callers
through further non-``repro`` frames.  Time that reaches no ``repro``
caller is the benchmark harness's.  Shares are of the time spent in
``repro``; the harness's share is of everything.

``calls_in`` counts calls into a package from any other package or
from the harness.  Calls made through a non-``repro`` frame are
charged to that frame's own callers by call count, which keeps the
count deterministic for a deterministic program.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

#: The packages under ``src/repro`` that are layers of their own.
LAYERS = (
    "sim", "mem", "unikernel", "seuss", "faas", "linuxnode",
    "workload", "trace", "metrics", "experiments",
)
#: Everything else in ``repro``: ``distributed``, ``net``, ``faults``
#: and the top-level modules (``costs``, ``errors``, ``units``).
OTHER = "other"
HARNESS = "harness"
ALL_LAYERS = LAYERS + (OTHER,)

Key = Tuple[str, int, str]


def _package(filename: str, src: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` outside ``repro``."""
    prefix = os.path.join(src, "repro") + os.sep
    if not filename.startswith(prefix):
        return None
    head = filename[len(prefix):].split(os.sep, 1)[0]
    return head if head in LAYERS else OTHER


def profile_layers(profiler, src: str) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s``, ``self_share`` and ``calls_in`` of a profile."""
    stats = pstats.Stats(profiler).stats
    src = os.path.realpath(src)
    package = {key: _package(os.path.realpath(key[0]), src) for key in stats}
    # key -> {layer: share}; index 2 weighs callers by time, 1 by calls.
    memo: Dict[Tuple[Key, int], Dict[str, float]] = {}

    def owners(key: Key, index: int, visiting: frozenset) -> Dict[str, float]:
        if package.get(key) is not None:
            return {package[key]: 1.0}
        if (key, index) in memo:
            return memo[(key, index)]
        callers = stats[key][4] if key in stats else {}
        weights = {caller: entry[index] for caller, entry in callers.items()}
        total = sum(weights.values())
        if key in visiting or not total:
            return {HARNESS: 1.0}
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, part in owners(caller, index, visiting | {key}).items():
                shares[layer] = shares.get(layer, 0.0) + part * weight / total
        memo[(key, index)] = shares
        return shares

    self_s = {layer: 0.0 for layer in ALL_LAYERS + (HARNESS,)}
    calls_in = {layer: 0.0 for layer in ALL_LAYERS}
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        for layer, part in owners(key, 2, frozenset()).items():
            self_s[layer] += tt * part
        target = package[key]
        if target is None:
            continue
        for caller, entry in callers.items():
            for layer, part in owners(caller, 1, frozenset()).items():
                if layer != target:
                    calls_in[target] += entry[1] * part
    in_repro = sum(self_s[layer] for layer in ALL_LAYERS) or 1.0
    out = {
        layer: {
            "self_s": self_s[layer],
            "self_share": self_s[layer] / in_repro,
            "calls_in": round(calls_in[layer]),
        }
        for layer in ALL_LAYERS
    }
    out[HARNESS] = {
        "self_s": self_s[HARNESS],
        "self_share": self_s[HARNESS] / (in_repro + self_s[HARNESS]),
    }
    return out
