"""Benchmark workloads: seeded inputs, the requests of one pass, output checks,
and the timed pass itself.

Every request goes through a module attribute of pdem_si (``cli.main``,
``verification.deformed_spectrum``) at call time, so the tracer's wrappers are
used whenever they are installed.  Inputs are generated from the seed before
any pass runs; the program only ever sees the generated arguments.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from pdem_si import cli, oracle, verification, wavefunctions
from pdem_si.catalog import ENTRIES
from pdem_si.core import PdemError

from hostspeed import Meter

JITTER = 0.1  # parameters are drawn uniformly within +-10% of the defaults
SPECTRUM_DRAWS = 12  # spectrum_analytic requests per entry in one pass
LADDER = (2001, 4001, 8001, 16001)  # PDEM_GRID_N values of oracle_convergence
ORACLE_LEVELS = 4  # --n-levels of the oracle_convergence spectrum requests
PUBLISHED_RTOL = 1e-8  # chain vs published E_n
OVERLAP_TOL = 1e-3  # 1 - |<psi_closed, v_oracle>|
SMOKE_ENTRIES = ("morse", "eckart", "coulomb")

# A request is OK, or FAILED (the program refused it with its own error, or an
# accuracy check against the oracle or the closed forms missed its tolerance),
# or WRONG (malformed or self-inconsistent output, or a crash).  Both FAILED and
# WRONG count as failed requests; only WRONG makes a run incorrect.
OK, FAILED, WRONG = "ok", "failed", "wrong"
ERR_FLOOR = 1e-16  # relative errors below this enter geometric means as this


def _gmean(values) -> float:
    return float(np.exp(np.mean(np.log(np.maximum(values, ERR_FLOOR)))))


@dataclass
class Request:
    label: str
    call: Callable[[], Any]
    # (output, checker) -> (status, reason); only called when call() returned
    check: Callable[[Any, "Checker"], tuple]


def draw_params(rng: random.Random, entry) -> dict:
    """Each default scaled by an independent factor in [1 - JITTER, 1 + JITTER],
    redrawn until ``entry.validate`` accepts it."""
    for _ in range(1000):
        params = {k: v * (1.0 + rng.uniform(-JITTER, JITTER)) for k, v in entry.default_params.items()}
        try:
            entry.validate(params)
        except PdemError:
            continue
        return params
    raise RuntimeError(f"no valid parameters drawn for {entry.name}")


def _params_arg(params: dict) -> str:
    return ",".join(f"{k}={v!r}" for k, v in params.items())


@contextlib.contextmanager
def _grid_n(n: Optional[int]):
    if n is None:
        yield
        return
    os.environ["PDEM_GRID_N"] = str(n)
    try:
        yield
    finally:
        del os.environ["PDEM_GRID_N"]


def _cli(argv: list, grid_n: Optional[int] = None) -> Callable[[], tuple]:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), _grid_n(grid_n):
            rc = cli.main(argv)
        return rc, out.getvalue()

    return call


class Checker:
    """Output checks; collects the oracle errors behind ``oracle_err_gmean``.

    Each oracle comparison (one operator, its resolved levels) adds one value,
    the geometric mean of its levels' relative errors, so a seed that resolves
    one level more or less for some entry barely moves the overall mean."""

    def __init__(self):
        self._ovc: dict = {}
        self.oracle_errors: list = []

    def oracle_vs_chain(self, entry, params: dict):
        # solved once per run at the recipe grid; the result does not change between passes
        key = (entry.name, tuple(sorted(params.items())))
        if key not in self._ovc:
            self._ovc[key] = verification.oracle_vs_chain(entry, params)
        return self._ovc[key]

    def add_comparison(self, rel_errors: list) -> None:
        if rel_errors:
            self.oracle_errors.append(_gmean(rel_errors))

    def err_gmean(self) -> float:
        return _gmean(self.oracle_errors) if self.oracle_errors else ERR_FLOOR


def _verify_check(entry):
    def check(out, checker) -> tuple:
        rc, text = out
        failed = [line.strip() for line in text.splitlines() if "FAIL" in line]
        if failed:
            return FAILED, failed[0]
        if rc != 0:
            return FAILED, f"exit {rc}"
        # the same comparison verify just passed, served from the spectrum cache it filled
        ovc = checker.oracle_vs_chain(entry, dict(entry.default_params))
        if ovc:
            checker.add_comparison(ovc["rel_err"])
        return OK, ""

    return check


def _spectrum_check(entry, params: dict, grid_n: Optional[int]):
    counting = entry.counting(params)
    wanted = ORACLE_LEVELS if grid_n is not None else 16
    if counting.kind == "finite":
        expected = min(counting.count, wanted)
    else:
        expected = 0 if counting.kind == "zero" else wanted
    recipe = entry.oracle_recipe(params)

    def check(out, checker) -> tuple:
        rc, text = out
        if rc != 0:
            return FAILED, f"exit {rc}"
        report = json.loads(text)
        if cli.SpectrumReport.from_dict(report).to_dict() != report:
            return WRONG, "report does not round-trip through SpectrumReport.from_dict"
        levels = report["levels"]
        if len(levels) != expected:
            return WRONG, f"{len(levels)} levels, counting rule gives {expected}"
        if not entry.energy_discrepancy:
            for row in levels:
                gap = abs(row["e_chain"] - row["e_closed"]) / max(1e-12, abs(row["e_closed"]))
                if not gap <= PUBLISHED_RTOL:
                    return WRONG, f"n={row['n']}: chain vs published E_n gap {gap:.3g}"
        if grid_n is None:
            if any(row["e_oracle"] is not None for row in levels):
                return WRONG, "oracle energies without --oracle"
            # the chain energies reported are checked against an oracle solve at the recipe grid
            ovc = checker.oracle_vs_chain(entry, params) if expected else None
            oracle_energies = ovc and ovc["oracle"]
        elif grid_n >= recipe.n_points and expected:
            ovc = checker.oracle_vs_chain(entry, params)
            resolved = ovc["levels"] if ovc else 0
            oracle_energies = [row["e_oracle"] for row in levels[:resolved]]
            if None in oracle_energies:
                return WRONG, "missing oracle energy"
        else:
            oracle_energies = None
        rel = [
            abs(e_oracle - row["e_chain"]) / max(1e-12, abs(row["e_chain"]))
            for e_oracle, row in zip(oracle_energies or (), levels)
        ]
        checker.add_comparison(rel)
        if rel and not max(rel) < recipe.rel_tol:
            return FAILED, f"oracle vs chain {max(rel):.3g} over tolerance {recipe.rel_tol:g}"
        return OK, ""

    return check


def _vectors_check(entry, params: dict, k: int, grid_n: int):
    def check(spec, checker) -> tuple:
        if spec.eigenvectors is None or spec.eigenvectors.shape != (k, grid_n):
            return WRONG, "eigenvector array has the wrong shape"
        grid = verification.oracle_grid(entry, params, grid_n)
        x = grid.nodes()
        for n in range(k):
            psi = np.asarray(wavefunctions.excited_state_eval(entry, params, n, x[1:-1]), dtype=float)
            _, psi = wavefunctions.normalize(np.concatenate([[0.0], psi, [0.0]]), grid)
            gap = 1.0 - abs(oracle.quadrature(psi * spec.eigenvectors[n], grid))
            if not gap < OVERLAP_TOL:
                return FAILED, f"n={n}: overlap with the closed-form state is 1 - {gap:.3g}"
        return OK, ""

    return check


def _entries(smoke: bool) -> list:
    return [ENTRIES[n] for n in SMOKE_ENTRIES] if smoke else list(ENTRIES.values())


def verify_all(seed: int, smoke: bool = False) -> list:
    """The `verify --potential all` battery, one cli.main call per entry."""
    entries = _entries(smoke)
    random.Random(seed).shuffle(entries)
    return [Request(f"verify {e.name}", _cli(["verify", "--potential", e.name]), _verify_check(e)) for e in entries]


def spectrum_analytic(seed: int, smoke: bool = False) -> list:
    """`spectrum --n-levels auto` without the oracle, parameters drawn per request."""
    rng = random.Random(seed)
    draws = 1 if smoke else SPECTRUM_DRAWS
    requests = []
    for entry in _entries(smoke):
        for _ in range(draws):
            params = draw_params(rng, entry)
            argv = ["spectrum", "--potential", entry.name, "--params", _params_arg(params), "--n-levels", "auto"]
            requests.append(Request(f"spectrum {entry.name}", _cli(argv), _spectrum_check(entry, params, None)))
    rng.shuffle(requests)
    return requests


def oracle_convergence(seed: int, smoke: bool = False) -> list:
    """Per (entry, params) point, up the PDEM_GRID_N ladder: `spectrum --oracle
    --n-levels 4`, then oracle eigenvectors of the same operator."""
    rng = random.Random(seed)
    ladder = LADDER[2:3] if smoke else LADDER
    points = []
    for entry in _entries(smoke):
        if entry.counting(entry.default_params).kind == "zero":
            continue  # no bound state to compare against
        params = draw_params(rng, entry)
        while entry.counting(params).kind == "zero":
            params = draw_params(rng, entry)
        points.append((entry, params))
    rng.shuffle(points)
    requests = []
    for entry, params in points:
        counting = entry.counting(params)
        k = min(ORACLE_LEVELS, entry.oracle_recipe(params).level_cap)
        if counting.kind == "finite":
            k = min(k, counting.count)
        argv = ["spectrum", "--potential", entry.name, "--params", _params_arg(params)]
        argv += ["--n-levels", str(ORACLE_LEVELS), "--oracle"]
        for n in ladder:
            requests.append(
                Request(f"spectrum --oracle {entry.name} N={n}", _cli(argv, n), _spectrum_check(entry, params, n))
            )

            def vectors(entry=entry, params=params, k=k, n=n):
                return verification.deformed_spectrum(entry, params, k, n_override=n, want_vectors=True)

            requests.append(Request(f"eigenvectors {entry.name} N={n}", vectors, _vectors_check(entry, params, k, n)))
    return requests


WORKLOADS = {"verify_all": verify_all, "spectrum_analytic": spectrum_analytic, "oracle_convergence": oracle_convergence}


def run_pass(requests: list, tracer=None) -> dict:
    """One timed pass from a cold spectrum cache; outputs are checked separately.

    ``latencies`` are raw seconds, ``normalized`` the same rescaled to the
    reference host speed (see hostspeed.py), ``slowdowns`` the factors used."""
    verification._SPECTRUM_CACHE.clear()
    outputs, latencies, normalized, slowdowns = [], [], [], []
    t_pass = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        with Meter() as meter:
            try:
                outputs.append((req.call(), None))
            except PdemError as exc:
                outputs.append((None, (FAILED, f"{type(exc).__name__}: {exc}")))
            except Exception as exc:  # a crash is a wrong answer; keep measuring the rest
                traceback.print_exc()
                outputs.append((None, (WRONG, f"crashed with {type(exc).__name__}: {exc}")))
        latencies.append(meter.latency)
        normalized.append(meter.normalized)
        slowdowns.append(meter.slowdown)
    return {
        "wall": time.perf_counter() - t_pass,
        "latencies": latencies,
        "normalized": normalized,
        "slowdowns": slowdowns,
        "outputs": outputs,
    }


def check_pass(requests: list, outputs: list, checker: Checker) -> list:
    """(label, status, reason) of every request of a pass."""
    statuses = []
    for req, (out, error) in zip(requests, outputs):
        status, reason = req.check(out, checker) if error is None else error
        statuses.append((req.label, status, reason))
    return statuses
