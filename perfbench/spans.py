"""Span recorder for the traced benchmark run.

The recorder wraps, from outside the package, every public function of
the rmfact layers named in LAYERS, plus the dense kernels the package
calls through module attributes (scipy.linalg.svd, numpy.linalg.svd,
scipy.linalg.ordqz). rmfact binds names with `from .x import y`, so a
wrapper is installed under every module attribute that holds one of the
original functions, not only in the defining module.

Spans are kept in flat lists until the end of the run; `sums` folds
them into additive totals and `layer_metrics` turns totals into the
per-layer metrics of BENCHMARK.json. This module imports neither numpy
nor rmfact at import time, so the parent process can use `layer_metrics`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("numkernel", "dss", "klf", "rangebasis", "fact", "io", "cli")

# dense kernels reached through module attributes: (module, attribute, span name)
KERNELS = (
    ("scipy.linalg", "svd", "numkernel.svd"),
    ("numpy.linalg", "svd", "numkernel.svd"),
    ("scipy.linalg", "ordqz", "numkernel.qz"),
)

# spans under a fact factorization whose parent is the factorization
# itself are its certificates: rmfact computes them in a private helper
CERTIFY_PARENTS = ("fact.full_rank_factorize", "fact.dual_full_rank_factorize")

# structure queries a CLI report makes itself, after the library call
STRUCTURE_QUERIES = ("dss.normal_rank", "dss.mcmillan_degree", "dss.poles", "dss.zeros")

FACT_FUNCTIONS = ("full_rank_factorize", "dual_full_rank_factorize", "nrcf", "pseudo_inverse", "inner_outer")

# layer functions reported by their calls and self time
COUNTED_SPANS = (
    "klf.kronecker_like_form",
    "klf.special_klf",
    "dss.irreducible_realization",
    "dss.poles",
    "dss.zeros",
    "dss.normal_rank",
    "dss.mcmillan_degree",
    "dss.evaluate",
    "dss.random_nonpole_points",
    "rangebasis.range_basis",
    "rangebasis.inner_enforcing_gains",
    "rangebasis.cofactor",
)


class Tracer:
    """Records one span per call of a wrapped function: its name, its
    parent span, the operation span at its root, start and end."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name):
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else idx)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def install(self):
        """Patch every wrapped name in every loaded rmfact module."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"rmfact.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        modules = [m for name, m in list(sys.modules.items()) if name == "rmfact" or name.startswith("rmfact.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for modname, attr, name in KERNELS:
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self._wrap(name, getattr(mod, attr)))

    def _patch(self, mod, attr, value):
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)

    def sums(self, first: int = 0) -> dict:
        """Additive totals over the spans recorded since span `first`:
        per span name its calls, busy and self milliseconds, plus the
        cross-layer totals that layer_metrics needs."""
        idx = range(first, len(self.names))
        dur = {i: (self.ends[i] - self.starts[i]) * 1e3 for i in idx}
        child = dict.fromkeys(idx, 0.0)
        for i in idx:
            if self.parents[i] >= first:
                child[self.parents[i]] += dur[i]
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0.0) + value

        for i in idx:
            name = self.names[i]
            add(f"{name}.calls", 1)
            add(f"{name}.busy_ms", dur[i])
            add(f"{name}.self_ms", dur[i] - child[i])
            parent = self.names[self.parents[i]] if self.parents[i] >= 0 else ""
            if name.startswith("dss.") and parent in CERTIFY_PARENTS:
                add("fact.certify_ms", dur[i])
            if name in STRUCTURE_QUERIES and parent == "cli.run_command":
                add("cli.report_recompute_ms", dur[i])
            if name == "numkernel.svd" and self.names[self.roots[i]] == "op.frf":
                add("svd_in_frf_ops", 1)
        return out


def merge(total: dict, part: dict, time_scale: float = 1.0) -> dict:
    """Add `part` into `total`, times (keys ending in _ms) scaled by time_scale."""
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + (value * time_scale if key.endswith("_ms") else value)
    return total


def layer_metrics(sums: dict, passes: int, imports: dict, overhead_frac: float) -> dict:
    """Per-layer metrics per pass of the workload, as {name: (value, unit)}.

    `imports` carries the per-interpreter import times of the set-up
    probes; `overhead_frac` is traced over untraced median op time, minus 1.
    """

    def per_pass(key):
        return sums.get(key, 0.0) / passes

    m = {
        "numkernel.svd.calls": (per_pass("numkernel.svd.calls"), "count"),
        "numkernel.svd.busy_ms": (per_pass("numkernel.svd.busy_ms"), "ms"),
        "numkernel.svd.calls_per_frf": (
            sums.get("svd_in_frf_ops", 0.0) / sums["op.frf.calls"] if sums.get("op.frf.calls") else 0.0,
            "count",
        ),
        "numkernel.qz.calls": (per_pass("numkernel.qz.calls"), "count"),
        "numkernel.qz.busy_ms": (per_pass("numkernel.qz.busy_ms"), "ms"),
    }
    for name in COUNTED_SPANS:
        m[f"{name}.calls"] = (per_pass(f"{name}.calls"), "count")
        m[f"{name}.self_ms"] = (per_pass(f"{name}.self_ms"), "ms")
    certify = per_pass("fact.certify_ms")
    frf_time = per_pass("op.frf.busy_ms") + per_pass("op.dual_frf.busy_ms")
    m["fact.certify_ms"] = (certify, "ms")
    m["fact.certify_share"] = (certify / frf_time if frf_time else 0.0, "fraction")
    for fn in FACT_FUNCTIONS:
        m[f"fact.{fn}.self_ms"] = (per_pass(f"fact.{fn}.self_ms"), "ms")
    m["cli.import_ms"] = (imports["import_ms"], "ms")
    m["cli.import_scipy_signal_ms"] = (imports["import_scipy_signal_ms"], "ms")
    m["cli.run_command_ms"] = (per_pass("cli.run_command.busy_ms"), "ms")
    m["cli.report_recompute_ms"] = (per_pass("cli.report_recompute_ms"), "ms")
    m["io.parse_system_file.busy_ms"] = (per_pass("io.parse_system_file.busy_ms"), "ms")
    m["io.report_to_json.busy_ms"] = (per_pass("io.report_to_json.busy_ms"), "ms")
    m["trace.overhead_frac"] = (overhead_frac, "fraction")
    return m
