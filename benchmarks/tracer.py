"""Spans and work counters recorded around pdem_si from outside the library.

``Tracer.install`` replaces every public module-level function of the traced
layers (and the public methods of ``CatalogEntry``) with a wrapper that records
a span: name, parent span, request id, start and end.  A function imported by
name into another module is rebound there too, so the span is recorded whichever
binding a caller goes through.  ``oracle._count``, the Sturm sign count called
thousands of times per pass, is the one private hook and is counted only.
``uninstall`` puts the original objects back, so untraced passes run the
library untouched.

Spans stay in memory; ``layer_metrics`` turns one pass worth of them into the
per-layer numbers, which the traced run prints.  A span's self time is its duration minus the durations of
its direct child spans.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict

import pdem_si
from pdem_si.catalog import CatalogEntry

LAYERS = ("cli", "verification", "oracle", "wavefunctions", "si_engine", "catalog", "ordering")

_STATE_EVAL = ("ground_state_numeric", "excited_state_eval", "polynomial_chain", "normalize")
_DISCRETIZE = ("discretize_deformed", "discretize_vonroos")
_SPECTRUM_REQUESTS = ("deformed_spectrum", "vonroos_spectrum")

# name -> unit, in the order the traced run reports them
PER_LAYER_UNITS = {
    "oracle.sturm_counts": "count",
    "oracle.sturm_counts_per_level": "count/level",
    "oracle.pivot_steps": "count",
    "oracle.eigensolves": "count",
    "oracle.levels_solved": "count",
    "oracle.eigenpairs_self_s": "s",
    "oracle.eigenpairs_vec_self_s": "s",
    "oracle.eigvec_failures": "count",
    "oracle.discretize_calls": "count",
    "oracle.discretize_self_s": "s",
    "oracle.equivalence_check_self_s": "s",
    "oracle.quadrature_calls": "count",
    "oracle.quadrature_self_s": "s",
    "oracle.self_s": "s",
    "verification.spectrum_requests": "count",
    "verification.cache_hits": "count",
    "verification.cache_misses": "count",
    "verification.cache_hit_ratio": "ratio",
    "verification.duplicate_solves": "count",
    "verification.self_s": "s",
    "wavefunctions.admissibility_calls": "count",
    "wavefunctions.admissibility_self_s": "s",
    "wavefunctions.state_eval_self_s": "s",
    "wavefunctions.self_s": "s",
    "si_engine.solve_chain_calls": "count",
    "si_engine.solve_chain_self_s": "s",
    "si_engine.self_s": "s",
    "catalog.self_s": "s",
    "ordering.self_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace_overhead_frac": "ratio",
}

# counters that must repeat exactly between passes over the same inputs
DETERMINISTIC = (
    "oracle.sturm_counts",
    "oracle.pivot_steps",
    "oracle.eigensolves",
    "oracle.levels_solved",
    "oracle.eigvec_failures",
    "oracle.discretize_calls",
    "verification.spectrum_requests",
    "verification.cache_hits",
    "verification.cache_misses",
    "verification.duplicate_solves",
    "wavefunctions.admissibility_calls",
    "si_engine.solve_chain_calls",
)


def _operator_note(op, k, want_vectors=False):
    digest = hashlib.blake2b(digest_size=16)
    digest.update(op.diag.tobytes())
    digest.update(op.off.tobytes())
    digest.update(repr((op.grid.interval.x1, op.grid.interval.x2, op.grid.n_points)).encode())
    return {"op": digest.hexdigest(), "k": int(k), "vectors": bool(want_vectors)}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, parent index, request, t0, t1, note]
        self.request = None
        self.sturm_counts = 0
        self.pivot_steps = 0
        self._stack: list = []
        self._patches: list = []

    # -- instrumentation ---------------------------------------------------
    def _span(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.request, 0.0, 0.0, None]
            if note is not None:
                span[5] = note(*args, **kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = dict(span[5] or {}, error=type(exc).__name__)
                raise
            finally:
                span[4] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(d, e2, t):
            self.sturm_counts += 1
            self.pivot_steps += len(d)
            return fn(d, e2, t)

        return counted

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [pdem_si] + [importlib.import_module(f"pdem_si.{m}") for m in ("core",) + LAYERS]
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"pdem_si.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                note = _operator_note if (layer, attr) == ("oracle", "eigenpairs") else None
                wrappers[id(obj)] = self._span(f"{layer}.{attr}", obj, note)
        oracle = importlib.import_module("pdem_si.oracle")
        wrappers[id(oracle._count)] = self._counted(oracle._count)
        # every binding of a wrapped function, in every module of the package
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and callable(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for attr, obj in list(vars(CatalogEntry).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._patches.append((CatalogEntry, attr, obj))
                setattr(CatalogEntry, attr, self._span(f"catalog.CatalogEntry.{attr}", obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self.sturm_counts = 0
        self.pivot_steps = 0

    # -- aggregation -------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer numbers for the spans and counts since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        self_s = defaultdict(float)
        calls = Counter()
        for i, s in enumerate(spans):
            self_s[s[0]] += (s[4] - s[3]) - child[i]
            calls[s[0]] += 1

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        def named(prefix, names, table):
            return sum(table[f"{prefix}.{n}"] for n in names)

        eig = [(i, s) for i, s in enumerate(spans) if s[0] == "oracle.eigenpairs"]
        vec_self = sum((s[4] - s[3]) - child[i] for i, s in eig if s[5]["vectors"])
        solved_ops = [s[5]["op"] for _, s in eig]
        solving_parents = {s[1] for _, s in eig}
        requests = [i for i, s in enumerate(spans) if s[0] in {f"verification.{n}" for n in _SPECTRUM_REQUESTS}]
        misses = sum(1 for i in requests if i in solving_parents)
        levels = sum(s[5]["k"] for _, s in eig)
        return {
            "oracle.sturm_counts": self.sturm_counts,
            "oracle.sturm_counts_per_level": self.sturm_counts / levels if levels else 0.0,
            "oracle.pivot_steps": self.pivot_steps,
            "oracle.eigensolves": len(eig),
            "oracle.levels_solved": levels,
            "oracle.eigenpairs_self_s": self_s["oracle.eigenpairs"],
            "oracle.eigenpairs_vec_self_s": vec_self,
            "oracle.eigvec_failures": sum(
                1 for _, s in eig if s[5]["vectors"] and s[5].get("error") == "ConvergenceError"
            ),
            "oracle.discretize_calls": named("oracle", _DISCRETIZE, calls),
            "oracle.discretize_self_s": named("oracle", _DISCRETIZE, self_s),
            "oracle.equivalence_check_self_s": self_s["oracle.equivalence_check"],
            "oracle.quadrature_calls": calls["oracle.quadrature"],
            "oracle.quadrature_self_s": self_s["oracle.quadrature"],
            "oracle.self_s": layer_self("oracle"),
            "verification.spectrum_requests": len(requests),
            "verification.cache_hits": len(requests) - misses,
            "verification.cache_misses": misses,
            "verification.cache_hit_ratio": (len(requests) - misses) / len(requests) if requests else 0.0,
            "verification.duplicate_solves": len(solved_ops) - len(set(solved_ops)),
            "verification.self_s": layer_self("verification"),
            "wavefunctions.admissibility_calls": calls["wavefunctions.admissibility_check"],
            "wavefunctions.admissibility_self_s": self_s["wavefunctions.admissibility_check"],
            "wavefunctions.state_eval_self_s": named("wavefunctions", _STATE_EVAL, self_s),
            "wavefunctions.self_s": layer_self("wavefunctions"),
            "si_engine.solve_chain_calls": calls["si_engine.solve_chain"],
            "si_engine.solve_chain_self_s": self_s["si_engine.solve_chain"],
            "si_engine.self_s": layer_self("si_engine"),
            "catalog.self_s": layer_self("catalog"),
            "ordering.self_s": layer_self("ordering"),
            "cli.self_s": layer_self("cli"),
            "trace.spans": len(spans),
        }


def median_metrics(per_pass: list) -> dict:
    """Median of each per-layer number over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
