"""Command-line front end: machine-readable spectra, wavefunction samples,
verification suites and deformation-parameter sweeps.

Exit codes: 0 success, 1 verification failure, 2 invalid flags or parameters,
a numeric overflow or a state too large or small to normalize.
The environment variable PDEM_GRID_N (an integer in 3..1000001) replaces the
oracle's Richardson triple with one grid of that size, with no extrapolation.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import verification as verif
from .catalog import CatalogEntry, ENTRIES, EXCLUSIONS, lookup
from .core import PRESET_EXPONENTS, AmbiguityParams, NotFound, PdemError, RangeError, ZeroNorm
from .wavefunctions import LevelTable, admissibility_checks, normalized_states

_FMT = "%.17g"  # full round-trip decimal representation
_MAX_POINTS = 1_000_001  # largest grid for --samples and PDEM_GRID_N


@dataclass
class LevelRow:
    n: int
    e_closed: float
    e_chain: float
    e_oracle: Optional[float]
    abs_err: Optional[float]
    rel_err: Optional[float]
    admissible: bool
    hermiticity_ok: bool


@dataclass
class SpectrumReport:
    potential: str
    params: dict
    deformation: dict
    ambiguity: str
    levels: list
    counting: str
    checks: dict
    grid_meta: dict

    def to_dict(self) -> dict:
        return {**vars(self), "levels": [dict(vars(row)) for row in self.levels]}

    @classmethod
    def from_dict(cls, d: dict) -> "SpectrumReport":
        kw = {f.name: d[f.name] for f in fields(cls)}
        kw["levels"] = [LevelRow(**row) for row in d["levels"]]
        return cls(**kw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        cols = [f.name for f in fields(LevelRow)]
        lines = [",".join(cols)]
        for row in self.levels:
            vals = []
            for c in cols:
                v = getattr(row, c)
                if v is None:
                    vals.append("")
                elif isinstance(v, bool):
                    vals.append(str(v).lower())
                elif isinstance(v, float):
                    vals.append(_FMT % v)
                else:
                    vals.append(str(v))
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


def _grid_n_override() -> Optional[int]:
    raw = os.environ.get("PDEM_GRID_N")
    if not raw:
        return None
    if not raw.strip().isdecimal() or not 3 <= int(raw) <= _MAX_POINTS:
        raise RangeError(f"PDEM_GRID_N must be an integer in 3..{_MAX_POINTS}, got {raw!r}")
    return int(raw)


def _check_flag(flag: str, value: int, lo: int, hi: float = math.inf) -> None:
    if not lo <= value <= hi:
        limit = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise RangeError(f"{flag} must be {limit}, got {value}")


def _parse_params(entry: CatalogEntry, raw: Optional[str]) -> dict:
    params = dict(entry.default_params)
    if raw:
        for item in raw.split(","):
            if not item.strip():
                continue
            if "=" not in item:
                raise RangeError(f"malformed parameter {item!r}; expected name=value")
            key, val = item.split("=", 1)
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise RangeError(f"parameter {key.strip()!r}: {val!r} is not a number") from exc
    return params


def build_spectrum_report(
    entry: CatalogEntry,
    params: dict,
    n_levels,
    with_oracle: bool,
    preset: str = "bdd",
) -> SpectrumReport:
    entry.validate(params)
    n_override = _grid_n_override()
    counting = entry.counting(params)
    wanted = verif.AUTO_LEVELS if n_levels == "auto" else int(n_levels)
    k = counting.levels(wanted)
    if n_levels != "auto" and counting.kind == "finite" and k < wanted:
        print(f"note: {entry.name} supports {counting.count} bound state(s); clamping levels", file=sys.stderr)

    req = verif.Request(entry, params)  # the levels and operators every check below reads
    chain = req.chain_to(max(k - 1, 5))
    oracle_vals = ()
    if with_oracle:
        trusted = min(k, verif.trusted_levels(req))
        if trusted > 0:
            if n_override:  # one grid of that size, as given; its N - 2 interior nodes hold N - 2 levels
                k_grid = min(trusted, n_override - 2)
                oracle_vals = verif.deformed_spectrum(entry, params, k_grid, n_override=n_override).eigenvalues
            else:
                oracle_vals = verif.oracle_energies(entry, params, trusted)["energies"]

    # closed forms first: when they overflow, the request exits before any probe runs
    closed = [entry.printed_energy(params, n) for n in range(k)]
    rows = []
    for n, (e_closed, verdict) in enumerate(zip(closed, admissibility_checks(req, range(k)))):
        e_chain = chain.energy(n)
        e_orc = abs_err = rel_err = None
        if n < len(oracle_vals):
            e_orc = float(oracle_vals[n])
            abs_err = abs(e_closed - e_orc)
            rel_err = abs_err / max(1e-12, abs(e_closed))
        rows.append(
            LevelRow(
                n=n,
                e_closed=float(e_closed),
                e_chain=float(e_chain),
                e_oracle=e_orc,
                abs_err=abs_err,
                rel_err=rel_err,
                admissible=verdict.admissible,
                hermiticity_ok=verdict.hermiticity_ok,
            )
        )

    amb = AmbiguityParams.preset(preset)
    r1, r2, _ = verif.chain_residual_max(entry, params)
    checks = {
        "si_residual_max": max(r1, r2),
        "equivalence_max_dev": verif.equivalence_deviation(req, amb)["max_dev"],
        "orthonormality_max_offdiag": verif.orthonormality_offdiag(req),
    }
    deformation = {kk: params[kk] for kk in entry.deformation_names}
    pot_params = {kk: vv for kk, vv in params.items() if kk not in entry.deformation_names}
    recipe = entry.oracle_recipe(params)
    grid = verif.oracle_grid(entry, params, n_override)
    grid_meta = {
        "x1": grid.interval.x1,
        "x2": grid.interval.x2,
        "n_points": grid.n_points,
        "spacing": grid.spacing,
        "oracle_rel_tol": recipe.rel_tol,
        "oracle_level_cap": recipe.level_cap,
        "oracle_grids": verif.oracle_grid_sizes(entry, params, n_override),
    }
    if entry.energy_discrepancy:
        checks["printed_energy_discrepancy"] = entry.energy_discrepancy
    return SpectrumReport(
        potential=entry.name,
        params=pot_params,
        deformation=deformation,
        ambiguity=preset,
        levels=rows,
        counting=str(counting),
        checks=checks,
        grid_meta=grid_meta,
    )


def _cmd_catalog(ns) -> int:
    print(f"{'name':26s} {'domain':22s} {'class':7s} validity")
    for e in ENTRIES.values():
        dom = f"({e.domain.x1:.6g}, {e.domain.x2:.6g})"
        cls = e.sp(dict(e.default_params)).class_id
        print(f"{e.name:26s} {dom:22s} {cls:7s} {e.range_text}")
        if e.energy_discrepancy:
            print(f"{'':26s} note: {e.energy_discrepancy}")
    print("\nexcluded potentials:")
    for name, reason in EXCLUSIONS.items():
        print(f"{name:26s} {reason}")
    return 0


def _cmd_spectrum(ns) -> int:
    entry = lookup(ns.potential)
    params = _parse_params(entry, ns.params)
    if ns.n_levels == "auto":
        n_levels = "auto"
    else:
        try:
            n_levels = int(ns.n_levels)
        except ValueError as exc:
            raise RangeError(f"--n-levels expects an integer or 'auto', got {ns.n_levels!r}") from exc
        _check_flag("--n-levels", n_levels, 1, 64)
    report = build_spectrum_report(entry, params, n_levels, ns.oracle, ns.preset)
    if ns.format == "json":
        print(report.to_json())
    else:
        print(report.to_csv(), end="")
    return 0


def _cmd_wavefunction(ns) -> int:
    _check_flag("--n", ns.n, 0, 63)
    _check_flag("--samples", ns.samples, 3, _MAX_POINTS)
    entry = lookup(ns.potential)
    params = _parse_params(entry, ns.params)
    entry.validate(params)
    counting = entry.counting(params)
    if counting.levels(ns.n + 1) <= ns.n:
        raise RangeError(f"{entry.name}: no level {ns.n} for these parameters (counting = {counting})")
    grid = verif.oracle_grid(entry, params, ns.samples if ns.samples % 2 == 1 else ns.samples + 1)
    x = grid.nodes()
    psi = normalized_states(LevelTable(entry, params), [ns.n], grid)[0]
    vals_f = np.asarray(entry.deforming(params).f(x[1:-1]), dtype=float)
    v = np.asarray(entry.v_eff(params)(x[1:-1]), dtype=float)
    lines = ["x,psi,f,v_eff"]
    for i in range(1, grid.n_points - 1):
        lines.append(",".join(_FMT % val for val in (x[i], psi[i], vals_f[i - 1], v[i - 1])))
    try:
        with open(ns.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise RangeError(f"--out {ns.out!r} cannot be written: {exc.strerror or exc}") from exc
    print(f"wrote {grid.n_points - 2} samples to {ns.out}")
    return 0


def _verify_entry(entry: CatalogEntry, params: dict, preset: str, tol: Optional[float]) -> int:
    checks = verif.verify_entry(entry, params, preset, tol)
    print(f"verifying {entry.name} with params {params} (preset {preset})")
    failures = []
    for check in checks:
        print(check)
        if check.ok is not None and not check.ok:
            failures.append(check.name)
    if failures:
        print(f"{entry.name}: {len(failures)} check(s) FAILED: {failures}")
        return 1
    print(f"{entry.name}: all checks passed")
    return 0


def _cmd_verify(ns) -> int:
    if ns.tol is not None and not (math.isfinite(ns.tol) and ns.tol > 0.0):
        raise RangeError(f"--tol must be finite and > 0, got {ns.tol}")
    if ns.potential == "all":
        if ns.params is not None:
            raise RangeError("--params cannot be combined with --potential all (each entry runs at its defaults)")
        rc = 0
        for entry in ENTRIES.values():
            rc |= _verify_entry(entry, dict(entry.default_params), ns.preset, ns.tol)
        for name, reason in EXCLUSIONS.items():
            print(f"skipping {name}: {reason}")
        return rc
    entry = lookup(ns.potential)
    params = _parse_params(entry, ns.params)
    return _verify_entry(entry, params, ns.preset, ns.tol)


def _cmd_sweep(ns) -> int:
    entry = lookup(ns.potential)
    if ns.param not in entry.param_names:
        raise RangeError(f"{entry.name} has no parameter {ns.param!r}")
    _check_flag("--steps", ns.steps, 2, 10_000)
    for flag, value in (("--from", getattr(ns, "from")), ("--to", ns.to)):
        if not math.isfinite(value):
            raise RangeError(f"{flag} must be finite, got {value}")
    base = _parse_params(entry, ns.params)
    values = np.linspace(getattr(ns, "from"), ns.to, ns.steps)
    max_levels = 8
    header = [ns.param, "counting", "count"] + [f"e_{n}" for n in range(max_levels)]
    lines = [",".join(header)]
    for val in values:
        params = dict(base)
        params[ns.param] = float(val)
        try:
            entry.validate(params)
            counting = entry.counting(params)
        except RangeError:
            lines.append(",".join([_FMT % val, "out_of_range", ""] + [""] * max_levels))
            continue
        k = counting.levels(max_levels)
        energies = [entry.printed_energy(params, n) for n in range(k)]
        row = [_FMT % val, counting.kind, "" if counting.count is None else str(counting.count)]
        row += [_FMT % e for e in energies] + [""] * (max_levels - k)
        lines.append(",".join(row))
    print("\n".join(lines))
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pdem-si",
        description=(
            "Closed-form spectra and wavefunctions of deformed shape-invariant"
            " potentials with a position-dependent effective mass, checked"
            " against an independent matrix oracle."
        ),
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sub.add_parser("catalog", help="List potentials, validity ranges and documented exclusions.")

    sp = sub.add_parser("spectrum", help="Emit a spectrum report (JSON or CSV).")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--params", help="comma-separated name=value pairs (defaults otherwise)")
    sp.add_argument("--n-levels", default="auto", help="level count 1..64 or 'auto' (counting rule, capped at 16)")
    sp.add_argument("--oracle", action="store_true", help="include matrix-oracle energies")
    sp.add_argument("--preset", default="bdd", choices=list(PRESET_EXPONENTS))
    sp.add_argument("--format", default="json", choices=["json", "csv"])

    wf = sub.add_parser("wavefunction", help="Write normalized wavefunction samples as CSV.")
    wf.add_argument("--potential", required=True)
    wf.add_argument("--params")
    wf.add_argument("--n", type=int, default=0, help="level index 0..63")
    wf.add_argument("--samples", type=int, default=1001, help="sample count 3..1000001")
    wf.add_argument("--out", required=True)

    vf = sub.add_parser("verify", help="Run the full invariant suite for one entry or all.")
    vf.add_argument("--potential", required=True, help="entry name or 'all'")
    vf.add_argument("--params")
    vf.add_argument("--preset", default="bdd", choices=list(PRESET_EXPONENTS))
    vf.add_argument("--tol", type=float, help="override the oracle energy tolerance")

    sw = sub.add_parser("sweep", help="Sweep one parameter; emit counts and energies as CSV.")
    sw.add_argument("--potential", required=True)
    sw.add_argument("--param", required=True)
    sw.add_argument("--from", type=float, required=True)
    sw.add_argument("--to", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True, help="number of values 2..10000")
    sw.add_argument("--params", help="fixed parameters as name=value pairs")

    return p


_COMMANDS = {
    "catalog": _cmd_catalog,
    "spectrum": _cmd_spectrum,
    "wavefunction": _cmd_wavefunction,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[ns.cmd](ns)
    except (RangeError, NotFound, ZeroNorm) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 2
    except PdemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
