"""Command-line front end: machine-readable spectra, wavefunction samples,
verification suites and deformation-parameter sweeps.

Exit codes: 0 success, 1 verification failure, 2 invalid flags or parameters.
The environment variable PDEM_GRID_N (an integer >= 3) overrides the default
oracle grid size.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import verification as verif
from .catalog import CatalogEntry, EXCLUSIONS, list_entries, lookup
from .core import AmbiguityParams, Grid, Interval, NotFound, PdemError, RangeError
from .si_engine import solve_chain
from .wavefunctions import admissibility_check, normalize

_FMT = "%.17g"  # full round-trip decimal representation


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
        d = asdict(self)
        d["levels"] = [asdict(row) for row in self.levels]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SpectrumReport":
        rows = [LevelRow(**row) for row in d["levels"]]
        return cls(
            potential=d["potential"],
            params=d["params"],
            deformation=d["deformation"],
            ambiguity=d["ambiguity"],
            levels=rows,
            counting=d["counting"],
            checks=d["checks"],
            grid_meta=d["grid_meta"],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        cols = ["n", "e_closed", "e_chain", "e_oracle", "abs_err", "rel_err", "admissible", "hermiticity_ok"]
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
    if not raw.strip().isdecimal() or int(raw) < 3:
        raise RangeError(f"PDEM_GRID_N must be an integer >= 3, got {raw!r}")
    return int(raw)


def _counting_str(counting) -> str:
    if counting.kind == "finite":
        return f"finite({counting.count})"
    return counting.kind


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
    if n_levels == "auto":
        k = min(counting.count, 16) if counting.kind == "finite" else (0 if counting.kind == "zero" else 16)
    else:
        k = int(n_levels)
        if counting.kind == "finite" and k > counting.count:
            print(
                f"note: {entry.name} supports {counting.count} bound state(s); clamping levels",
                file=sys.stderr,
            )
            k = counting.count
        if counting.kind == "zero":
            k = 0

    chain = solve_chain(entry.chain_problem(params), max(k - 1, 5))
    recipe = entry.oracle_recipe(params)
    oracle_vals = None
    if with_oracle and k > 0:
        cap = min(k, recipe.level_cap)
        if cap > 0:
            spec = verif.deformed_spectrum(entry, params, cap, n_override=n_override)
            oracle_vals = list(spec.eigenvalues)

    rows = []
    for n in range(k):
        e_closed = entry.printed_energy(params, n)
        e_chain = chain.energy(n)
        verdict = admissibility_check(entry, params, n)
        e_orc = abs_err = rel_err = None
        if oracle_vals is not None and n < len(oracle_vals):
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
    r1, r2 = verif.chain_residual_max(entry, params)
    checks = {
        "si_residual_max": max(r1, r2),
        "equivalence_max_dev": verif.equivalence_deviation(entry, params, amb)["max_dev"],
        "orthonormality_max_offdiag": verif.orthonormality_offdiag(entry, params),
    }
    deformation = {kk: params[kk] for kk in entry.deformation_names}
    pot_params = {kk: vv for kk, vv in params.items() if kk not in entry.deformation_names}
    grid_n = n_override or recipe.n_points
    grid_meta = {
        "x1": recipe.x1,
        "x2": recipe.x2,
        "n_points": grid_n,
        "spacing": (recipe.x2 - recipe.x1) / (grid_n - 1),
        "oracle_rel_tol": recipe.rel_tol,
        "oracle_level_cap": recipe.level_cap,
    }
    if entry.energy_discrepancy:
        checks["printed_energy_discrepancy"] = entry.energy_discrepancy
    return SpectrumReport(
        potential=entry.name,
        params=pot_params,
        deformation=deformation,
        ambiguity=preset,
        levels=rows,
        counting=_counting_str(counting),
        checks=checks,
        grid_meta=grid_meta,
    )


def _cmd_catalog(ns) -> int:
    entries, exclusions = list_entries()
    print(f"{'name':26s} {'domain':22s} {'class':7s} validity")
    for e in entries:
        dom = f"({e.domain.x1:.6g}, {e.domain.x2:.6g})"
        cls = e.sp(dict(e.default_params)).class_id
        print(f"{e.name:26s} {dom:22s} {cls:7s} {e.range_text}")
        if e.energy_discrepancy:
            print(f"{'':26s} note: {e.energy_discrepancy}")
    print("\nexcluded potentials:")
    for name, reason in exclusions.items():
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
        if n_levels < 1:
            raise RangeError("--n-levels must be >= 1")
    report = build_spectrum_report(entry, params, n_levels, ns.oracle, ns.preset)
    if ns.format == "json":
        print(report.to_json())
    else:
        print(report.to_csv(), end="")
    return 0


def _cmd_wavefunction(ns) -> int:
    entry = lookup(ns.potential)
    params = _parse_params(entry, ns.params)
    entry.validate(params)
    counting = entry.counting(params)
    if counting.kind == "zero":
        print(f"{entry.name}: no bound states for these parameters", file=sys.stderr)
        return 1
    if counting.kind == "finite" and ns.n > counting.n_max:
        raise RangeError(f"{entry.name}: level {ns.n} beyond n_max = {counting.n_max}")
    from .wavefunctions import excited_state_eval

    rec = entry.oracle_recipe(params)
    grid = Grid(Interval(rec.x1, rec.x2), ns.samples if ns.samples % 2 == 1 else ns.samples + 1)
    x = grid.nodes()
    # endpoints are Dirichlet nodes of the truncation; sample strictly inside
    psi = np.concatenate([[0.0], np.asarray(excited_state_eval(entry, params, ns.n, x[1:-1]), dtype=float), [0.0]])
    _, psi = normalize(psi, grid)
    vals_f = np.asarray(entry.deforming(params).f(x[1:-1]), dtype=float)
    v = np.asarray(entry.v_eff(params)(x[1:-1]), dtype=float)
    lines = ["x,psi,f,v_eff"]
    for i in range(1, grid.n_points - 1):
        lines.append(",".join(_FMT % val for val in (x[i], psi[i], vals_f[i - 1], v[i - 1])))
    with open(ns.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {grid.n_points - 2} samples to {ns.out}")
    return 0


def _check(label: str, ok: bool, detail: str, failures: list) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}: {detail}")
    if not ok:
        failures.append(label)


def _verify_entry(entry: CatalogEntry, params: dict, preset: str, tol: Optional[float]) -> int:
    from .core import positivity_check

    entry.validate(params)
    failures: list = []
    print(f"verifying {entry.name} with params {params} (preset {preset})")

    grid = Grid(Interval(*verif.residual_window(entry, params)), 10001)
    rep = positivity_check(entry.deforming(params), grid)
    _check("positivity", rep.ok, f"min f = {rep.min_f:.6g}", failures)

    # the absolute 1e-10 bound is meaningful at catalog-scale parameters; for
    # larger user parameters roundoff grows with the largest residual term
    r1, r2, scale = verif.chain_residual_max(entry, params, with_scale=True)
    r_tol = max(1e-10, 64.0 * np.finfo(float).eps * scale)
    _check(
        "chain residuals",
        max(r1, r2) < r_tol,
        f"max |r1| = {r1:.2e}, max |r2| = {r2:.2e} (tol {r_tol:.1e})",
        failures,
    )

    pr1, pr2, pscale = verif.printed_chain_residual_max(entry, params, with_scale=True)
    p_tol = max(1e-10, 64.0 * np.finfo(float).eps * pscale)
    _check(
        "printed chain parameters",
        max(pr1, pr2) < p_tol,
        f"max |r1| = {pr1:.2e}, max |r2| = {pr2:.2e} (tol {p_tol:.1e})",
        failures,
    )

    gap = verif.chain_vs_printed_energy(entry, params)
    if entry.energy_discrepancy:
        print(f"  [note] printed energy formula flagged: {entry.energy_discrepancy}")
        print(f"  [note] chain vs printed E_n relative gap = {gap:.3g} (reported, not asserted)")
    else:
        _check("chain vs printed E_n", gap < 1e-10, f"max rel gap = {gap:.2e}", failures)

    amb = AmbiguityParams.preset(preset)
    vt = verif.vtilde_agreement(entry, params, amb)
    if vt is None:
        print("  [note] no printed ordering term for this entry")
    else:
        _check("printed ordering term", vt < 1e-10, f"max dev = {vt:.2e}", failures)

    cva = verif.counting_vs_admissibility(entry, params)
    cnt = cva["counting"]

    def _verdict(v):
        if v.admissible:
            return "adm"
        broke = [tag for tag, ok in (("sq", v.square_integrable), ("herm", v.hermiticity_ok)) if not ok]
        return "inadm[" + ",".join(broke) + "]"

    _check(
        "counting vs numeric admissibility",
        cva["ok"],
        f"counting = {_counting_str(cnt)}; verdicts "
        + ", ".join(f"n={n}:{_verdict(v)}" for n, v in sorted(cva["verdicts"].items())),
        failures,
    )

    ratio = verif.ground_ratio_spread(entry, params)
    _check("ground-state closed vs integral form", ratio < 1e-8, f"ratio spread = {ratio:.2e}", failures)

    # 1e-7 here: slowly decaying states evaluated through a saturating chain
    # variable (coth) carry ~1e-9 relative noise that the discrete derivative
    # amplifies by 1/h; genuine sign or assembly errors sit many decades higher
    am = verif.a_minus_residual(entry, params)
    _check("lowering-operator annihilation", am < 1e-7, f"max residual = {am:.2e}", failures)

    count_known = cnt.count if cnt.kind == "finite" else 4
    for n in range(min(3, count_known if cnt.kind != "zero" else 0)):
        er = verif.eigen_residual(entry, params, n)
        e_tol = 1e-5 * max(1.0, abs(verif.chain_energy(entry, params, n)))
        _check(f"eigen-residual n={n}", er < e_tol, f"{er:.2e} (tol {e_tol:.1e})", failures)

    dev = verif.equivalence_deviation(entry, params, amb)
    _check(
        "ordering-identity operator check",
        dev["rel_dev"] < 1e-5,
        f"max dev = {dev['max_dev']:.2e} ({dev['rel_dev']:.2e} of action scale)",
        failures,
    )

    se = verif.spectral_equivalence(entry, params, preset)
    if se is None:
        print("  [note] no levels below the continuum edge for the spectral comparison")
    else:
        _check(
            "ordered vs deformed spectra",
            se["max_rel_dev"] < 1e-6,
            f"{se['levels']} level(s), max rel dev = {se['max_rel_dev']:.2e}",
            failures,
        )

    ovc = verif.oracle_vs_chain(entry, params)
    if ovc is None:
        print("  [note] oracle energy comparison skipped (no resolvable levels)")
    else:
        use_tol = tol if tol is not None else ovc["tol"]
        _check(
            "oracle vs chain energies",
            ovc["max_rel_err"] < use_tol,
            f"{ovc['levels']} level(s), max rel err = {ovc['max_rel_err']:.2e} (tol {use_tol:g})",
            failures,
        )

    if failures:
        print(f"{entry.name}: {len(failures)} check(s) FAILED: {failures}")
        return 1
    print(f"{entry.name}: all checks passed")
    return 0


def _cmd_verify(ns) -> int:
    if ns.potential == "all":
        from .catalog import ENTRIES

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
    if ns.steps < 2:
        raise RangeError("--steps must be >= 2")
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
        k = min(counting.count, max_levels) if counting.kind == "finite" else (
            0 if counting.kind == "zero" else max_levels
        )
        energies = [entry.printed_energy(params, n) for n in range(k)]
        row = [_FMT % val, counting.kind, "" if counting.count is None else str(counting.count)]
        row += [_FMT % e for e in energies] + [""] * (max_levels - k)
        lines.append(",".join(row))
    print("\n".join(lines))
    return 0


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
    sp.add_argument("--n-levels", default="auto", help="level count or 'auto' (counting rule, capped at 16)")
    sp.add_argument("--oracle", action="store_true", help="include matrix-oracle energies")
    sp.add_argument("--preset", default="bdd", choices=["bdd", "bastard", "zk", "lk"])
    sp.add_argument("--format", default="json", choices=["json", "csv"])

    wf = sub.add_parser("wavefunction", help="Write normalized wavefunction samples as CSV.")
    wf.add_argument("--potential", required=True)
    wf.add_argument("--params")
    wf.add_argument("--n", type=int, default=0)
    wf.add_argument("--samples", type=int, default=1001)
    wf.add_argument("--out", required=True)

    vf = sub.add_parser("verify", help="Run the full invariant suite for one entry or all.")
    vf.add_argument("--potential", required=True, help="entry name or 'all'")
    vf.add_argument("--params")
    vf.add_argument("--preset", default="bdd", choices=["bdd", "bastard", "zk", "lk"])
    vf.add_argument("--tol", type=float, help="override the oracle energy tolerance")

    sw = sub.add_parser("sweep", help="Sweep one parameter; emit counts and energies as CSV.")
    sw.add_argument("--potential", required=True)
    sw.add_argument("--param", required=True)
    sw.add_argument("--from", type=float, required=True)
    sw.add_argument("--to", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
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
    except (RangeError, NotFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PdemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
