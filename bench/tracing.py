"""Span recorder for the traced run.

Wraps matchcliff's public functions from outside, on the names their
callers look up, and records one span (name, start, end, parent) per
call.  Spans stay in memory until the run writes them out.  Self time
is a span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

# (metric prefix, [(module, attribute), ...]): each listed binding gets
# its own wrapper, recording under the prefix.  `gaussian` holds its own binding of
# `decompose_pauli`; `simulator` imports it from `encodings` at call time.
SPANS = (
    ("cli.main", [("cli", "main")]),
    ("circuits.load", [("circuits", "load")]),
    ("simulator.compile", [("simulator", "compile_circuit")]),
    ("simulator.query", [("simulator", "run_expectation"), ("simulator", "run_marginal")]),
    ("simulator.restricted", [("simulator", "restricted_pauli_expectation")]),
    ("gaussian.product_state", [("gaussian", "product_state_covariance")]),
    ("gaussian.evolve", [("gaussian", "evolve")]),
    ("gaussian.marginal", [("gaussian", "marginal_probability")]),
    ("gaussian.expectation", [("gaussian", "pauli_expectation")]),
    ("encodings.decompose", [("encodings", "decompose_pauli"), ("gaussian", "decompose_pauli")]),
    ("linalg.expm", [("linalg", "expm_antisymmetric")]),
    ("linalg.pfaffian", [("linalg", "pfaffian")]),
    ("tableau.invert", [("tableau", "invert")]),
    ("tableau.classify", [("tableau", "classify")]),
    ("tableau.basis_action", [("tableau", "basis_action")]),
    ("f2.solve", [("f2", "solve")]),
    ("f2.invert", [("f2", "invert")]),
)

# lru caches whose hit ratio is reported, by metric name
CACHES = {
    "simulator.compile_cache_hit_ratio": ("simulator", "compile_circuit"),
    "simulator.body_cov_cache_hit_ratio": ("simulator", "_body_covariance_cached"),
}

# every lru cache cleared before each set-up repetition
CLEARED_CACHES = (*CACHES.values(), ("gaussian", "product_state_covariance"))

# the per-layer metrics a traced run prints: (name, unit, better)
PER_LAYER = (
    ("cli.main_s", "s", "lower"),
    ("circuits.load_s", "s", "lower"),
    ("simulator.compile_s", "s", "lower"),
    ("simulator.compile_cache_hit_ratio", "ratio", "higher"),
    ("simulator.body_cov_cache_hit_ratio", "ratio", "higher"),
    ("simulator.query_s", "s", "lower"),
    ("simulator.restricted_s", "s", "lower"),
    ("simulator.restricted_calls", "count", "lower"),
    ("gaussian.product_state_s", "s", "lower"),
    ("gaussian.product_state_calls", "count", "lower"),
    ("gaussian.evolve_s", "s", "lower"),
    ("gaussian.evolve_calls", "count", "lower"),
    ("gaussian.marginal_s", "s", "lower"),
    ("gaussian.expectation_s", "s", "lower"),
    ("encodings.decompose_s", "s", "lower"),
    ("encodings.decompose_calls", "count", "lower"),
    ("linalg.expm_s", "s", "lower"),
    ("linalg.expm_calls", "count", "lower"),
    ("linalg.pfaffian_s", "s", "lower"),
    ("linalg.pfaffian_calls", "count", "lower"),
    ("linalg.pfaffian_order", "rows", "lower"),
    ("tableau.invert_s", "s", "lower"),
    ("tableau.invert_calls", "count", "lower"),
    ("tableau.classify_s", "s", "lower"),
    ("tableau.basis_action_s", "s", "lower"),
    ("f2.solve_s", "s", "lower"),
    ("f2.solve_calls", "count", "lower"),
    ("f2.invert_s", "s", "lower"),
    ("f2.invert_calls", "count", "lower"),
    ("pauli.mul_calls", "count", "lower"),
)


def module(name: str):
    return importlib.import_module(f"matchcliff.{name}")


def lru(mod: str, attr: str):
    """The lru_cache object behind a binding, looking through wrappers;
    None if there is none."""
    fn = getattr(module(mod), attr, None)
    while fn is not None and not hasattr(fn, "cache_info"):
        fn = getattr(fn, "__wrapped__", None)
    return fn


def clear_caches():
    for mod, attr in CLEARED_CACHES:
        cache = lru(mod, attr)
        if cache is not None:
            cache.cache_clear()


def cache_counts() -> dict:
    """(hits, misses) of each reported cache; (0, 0) if it is gone."""
    out = {}
    for metric, (mod, attr) in CACHES.items():
        cache = lru(mod, attr)
        info = cache.cache_info() if cache is not None else None
        out[metric] = (info.hits, info.misses) if info else (0, 0)
    return out


class Recorder:
    """Spans and counts of the program calls made while installed."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []  # (name index, start, end, parent span index)
        self.orders: list = []  # Pfaffian matrix orders
        self.mul_calls = 0
        self.cache_deltas = {metric: [0, 0] for metric in CACHES}
        self._stack: list = []
        self._before: dict = {}
        # (owner, attribute, original, wrapper), made once against the
        # unwrapped bindings
        self._patches: list = []
        for name, sites in SPANS:
            for mod, attr in sites:
                m = module(mod)
                fn = getattr(m, attr, None)
                if fn is not None:
                    self._patches.append((m, attr, fn, self._wrap(name, fn)))
        pauli = module("pauli").PauliString
        mul = pauli.__mul__

        def counted_mul(a, b):
            self.mul_calls += 1
            return mul(a, b)

        self._patches.append((pauli, "__mul__", mul, counted_mul))

    def _wrap(self, name: str, fn):
        key = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        orders = self.orders if name == "linalg.pfaffian" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if orders is not None:
                orders.append(len(args[0]))
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (key, start, clock(), parent)
                stack.pop()

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._before = cache_counts()

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        for metric, (hits, misses) in cache_counts().items():
            self.cache_deltas[metric][0] += hits - self._before[metric][0]
            self.cache_deltas[metric][1] += misses - self._before[metric][1]

    def layer_totals(self) -> dict:
        """{name: (self seconds, calls)} over all recorded spans."""
        selfs = [s[2] - s[1] for s in self.spans]
        for key, start, end, parent in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        out = {name: [0.0, 0] for name, _ in SPANS}
        for (key, *_), t in zip(self.spans, selfs):
            acc = out[self.names[key]]
            acc[0] += t
            acc[1] += 1
        return {name: tuple(v) for name, v in out.items()}

    def layer_values(self, ops: int) -> dict:
        """Per-op self time and calls of every span, cache-hit ratios and
        the mean Pfaffian order over the traced ops; a superset of
        PER_LAYER."""
        out = {}
        ops = max(ops, 1)
        for name, (self_s, calls) in self.layer_totals().items():
            out[f"{name}_s"] = self_s / ops
            out[f"{name}_calls"] = calls / ops
        out["pauli.mul_calls"] = self.mul_calls / ops
        orders = self.orders
        out["linalg.pfaffian_order"] = sum(orders) / len(orders) if orders else 0.0
        for metric, (hits, misses) in self.cache_deltas.items():
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
