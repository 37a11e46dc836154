"""Per-layer tracing by wrapping entnorm's functions from outside.

Every function of the six modules is found by introspection and replaced,
in each module namespace that holds it (so names imported with
``from .x import y`` are covered), by a wrapper that attributes the call
to its layer. A layer is the function's home module, with three oracle
sub-layers and one bounds sub-layer picked out by name. A span opens only
when a call crosses into another layer; a call within the layer only
bumps counters. A layer's self time is its span time minus the time of
its child spans. Spans are aggregated in memory as they close.
"""

from __future__ import annotations

import functools
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "curves", "bounds", "measures", "oracle", "simplex")


def layer_of(module: str, name: str) -> str:
    """Layer for function ``name`` defined in entnorm module ``module``."""
    if module == "bounds" and name.endswith("_vec"):
        return "bounds.vec"
    if module == "oracle":
        if name.startswith("brute_force") or name.endswith("_samples") or "mixture" in name or "hull" in name:
            return "oracle.hull"
        if "sample" in name or name == "random_joint":
            return "oracle.sample"
        if name.startswith("_row_"):
            return "oracle.row_kernel"
    return module


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    return 0


def _pair_bytes(args) -> int:
    """Bytes of one left x right float64 pair matrix of the O(G^2) hull search."""
    h_pts, h = args[0], args[2]
    return int((h_pts <= h).sum()) * int((h_pts >= h).sum()) * 8


def lru_caches(package) -> dict:
    """Every functools.lru_cache object in the six modules, by "module.name"."""
    found = {}
    for m in MODULES:
        for obj in vars(getattr(package, m)).values():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", "").startswith(package.__name__ + "."):
                found[f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"] = obj
    return found


class Tracer:
    def __init__(self, package):
        self.package = package
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.spans = Counter()
        self.fn_calls = Counter()  # "module.name" -> calls
        self.vec_elements = 0
        self.sample_bytes = 0
        self.pair_bytes = 0
        self._stack: list[list] = []  # [layer, child seconds]
        self._restore: list[tuple] = []

    def _wrap(self, fn, module: str, name: str):
        layer = layer_of(module, name)
        key = f"{module}.{name}"
        stack, calls, fn_calls = self._stack, self.calls, self.fn_calls
        on_entry = None
        if layer == "bounds.vec":
            def on_entry(args, result):
                self.vec_elements += next((a.size for a in args if isinstance(a, np.ndarray)), 0)
        elif layer == "oracle.sample":
            def on_entry(args, result):
                self.sample_bytes += _nbytes(result)
        pair = _pair_bytes if name == "_mixture_extreme" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            fn_calls[key] += 1
            if pair is not None:
                self.pair_bytes += pair(args)
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.self_s[layer] += dur - frame[1]
                self.spans[layer] += 1
                if stack:
                    stack[-1][1] += dur
            if on_entry is not None:
                on_entry(args, result)
            return result

        return wrapper

    def install(self) -> None:
        mods = {m: getattr(self.package, m) for m in MODULES}
        wrappers: dict[int, object] = {}
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, mod.__name__.rsplit(".", 1)[1])
                    continue
                if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(self.package.__name__ + "."):
                    continue
                home = home.rsplit(".", 1)[1]
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, home, obj.__name__)
                self._restore.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])

    def _wrap_class(self, cls, module: str) -> None:
        for attr, fn in list(vars(cls).items()):
            if isinstance(fn, types.FunctionType) and (not attr.startswith("__") or attr == "__init__"):
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, module, f"{cls.__name__}.{attr}"))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()
