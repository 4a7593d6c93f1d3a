"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer.install()`` replaces every public module-level function of the
axishell layers (and ``ShellProfile.jet``) by a wrapper that records a span
around the call.  Spans are reduced in memory as they close: each function
gets a call count (``.calls``), its time inside outermost calls (``.s``)
and its self time (``.self_s``), which is the span's duration minus the part
covered by nested spans of other wrapped functions.  Self times of all
functions add up to the traced wall time.  The scipy factorizations that
``eig`` makes are recorded as sub-spans: they have their own time, call
count and fill, but stay inside ``eig.solve_smallest``'s self time, so
``eig.iterate.s`` is the solve's time minus the factor time.

``install`` refuses to trace when a per-layer metric of BENCHMARK.json
names a function it did not wrap, so a renamed or inlined function stops
the traced run instead of reading as zero.  A metric of a wrapped function
that a workload never calls reads zero.

The package itself carries no tracing code; nothing here changes results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("profiles", "jets", "geometry", "symbols", "fem1d", "eig",
          "asymptotics", "lame2d", "cli")
PER_LAYER_NAMES = [m["name"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]
# per-layer metrics that combine spans, and those the workload measures itself
COMBINED = {"fem1d.assemble": ("fem1d.assemble_h20", "fem1d.assemble_h10",
                               "fem1d.assemble_weighted_mass"),
            "eig.iterate": ("eig.solve_smallest", "eig.factor")}
NOT_SPANS = {"cli.workers_cpu_s", "cli.csv_bytes"}


def required_spans(names) -> set[str]:
    """The wrapped functions (``module.function``) that the metric names read."""
    spans = set()
    for name in names:
        layer, rest = name.split(".", 1)
        if layer == "trace" or rest.startswith("self.") or name in NOT_SPANS:
            continue
        span = f"{layer}.{rest.split('.')[0]}"
        spans.update(COMBINED.get(span, (span,)))
    return spans


class _ModuleProxy:
    """Forwards attribute access to a module, with a few names overridden."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _lu_nnz(lu) -> int:
    return int(lu.L.nnz + lu.U.nnz)


def _band_nnz(cb) -> int:
    # stored entries of the lower band factor, without the unused corner
    bw = cb.shape[0] - 1
    return int(cb.size - bw * (bw + 1) // 2)


class Tracer:
    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []
        self._keys: set[str] = set()

    def reset(self) -> None:
        self.stats.clear()
        self._stack.clear()
        self._depth.clear()

    def wrap(self, key: str, fn, post=None, sub: bool = False):
        """Wrapper recording ``key.calls``, ``key.s`` and ``key.self_s`` around ``fn``.

        A sub-span keeps its time inside the enclosing span's self time.
        ``post(stats, result)`` adds counters taken from the result.
        """
        self._keys.add(key)
        stats, stack, depth = self.stats, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[key] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                depth[key] -= 1
                stats[key + ".calls"] += 1
                if not depth[key]:
                    stats[key + ".s"] += dt
                if not sub:
                    stats[key + ".self_s"] += dt - nested
                    if stack:
                        stack[-1] += dt
            if post is not None:
                post(stats, result)
            return result

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._installed.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the public functions of every layer module, once per process."""
        if self._installed:
            return
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"axishell.{layer}")
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                post = None
                if (layer, name) == ("lame2d", "k_sweep"):
                    post = _count_k_evaluated
                elif (layer, name) == ("eig", "solve_smallest"):
                    post = _count_iterations
                wrappers[obj] = self.wrap(f"{layer}.{name}", obj, post=post)
        # rebind every reference, including names imported into other modules
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "axishell" or mod_name.startswith("axishell.")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])

        profiles = importlib.import_module("axishell.profiles")
        self._set(profiles.ShellProfile, "jet",
                  self.wrap("profiles.jet", profiles.ShellProfile.jet))

        eig = importlib.import_module("axishell.eig")
        splu = self.wrap("eig.factor", eig.spla.splu, sub=True,
                         post=lambda st, lu: _add(st, "eig.factor.nnz", _lu_nnz(lu)))
        chol = self.wrap("eig.factor", eig.sla.cholesky_banded, sub=True,
                         post=lambda st, cb: _add(st, "eig.factor.nnz", _band_nnz(cb)))
        self._set(eig, "spla", _ModuleProxy(eig.spla, splu=splu))
        self._set(eig, "sla", _ModuleProxy(eig.sla, cholesky_banded=chol))

        missing = required_spans(PER_LAYER_NAMES) - self._keys
        if missing:
            self.uninstall()
            raise RuntimeError("per-layer metrics name functions that are not traced: "
                               + ", ".join(sorted(missing)))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)


def _add(stats, key, value):
    stats[key] += value


def _count_k_evaluated(stats, result):
    stats["lame2d.k_sweep.k_evaluated"] += len(result.records)


def _count_iterations(stats, result):
    stats["eig.solve_smallest.iterations"] += result.iterations


def derived(stats: dict) -> dict:
    """Raw span stats plus the combined metrics the benchmark reports."""
    out = dict(stats)
    out["fem1d.assemble.s"] = sum(stats.get(f"{span}.s", 0.0)
                                  for span in COMBINED["fem1d.assemble"])
    out["eig.iterate.s"] = stats.get("eig.solve_smallest.s", 0.0) - stats.get("eig.factor.s", 0.0)
    for layer in LAYERS:
        out[f"{layer}.self.s"] = sum(
            v for k, v in stats.items() if k.startswith(layer + ".") and k.endswith(".self_s"))
    out["trace.self_sum_s"] = sum(out[f"{layer}.self.s"] for layer in LAYERS)
    return out
