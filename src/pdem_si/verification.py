"""Shared verification battery: every cross-check the verify command and the
test suite run against a catalog entry lives here, together with a process-wide
cache of oracle eigensolves (they dominate the runtime). ``verify_entry``
yields the verify command's report as ``Check`` records."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .catalog import CatalogEntry
from .core import AmbiguityParams, Grid, Interval, deforming_eval, positivity_check
from .ordering import recover_initial_potential, v_tilde_eval
from .oracle import Spectrum, _test_battery, discretize_deformed, discretize_vonroos, eigenpairs, equivalence_check
from .oracle import quadrature
from .si_engine import ParameterChain, chain_residuals, solve_chain, w_eval
from .wavefunctions import _assemble, admissibility_check, excited_state_eval, normalized_state

_SPECTRUM_CACHE: dict = {}

# levels listed by ``spectrum --n-levels auto`` and probed by the counting check
AUTO_LEVELS = 16
# chain levels checked against the matching conditions and the published E_n
_CHAIN_DEPTH = 5
# nodes on the residual window for pointwise identities, and the grid size of
# the discrete-derivative and eigen-residual checks
_WINDOW_NODES = 101
_FINE_POINTS = 8001


def _params_key(params: dict) -> tuple:
    return tuple(sorted(params.items()))


def oracle_grid(entry: CatalogEntry, params: dict, n_override: Optional[int] = None, which: str = "energy") -> Grid:
    rec = entry.oracle_recipe(params) if which == "energy" else entry.equivalence_recipe(params)
    return Grid(Interval(rec.x1, rec.x2), n_override or rec.n_points)


def deformed_spectrum(
    entry: CatalogEntry,
    params: dict,
    k: int,
    n_override: Optional[int] = None,
    which: str = "energy",
    want_vectors: bool = False,
) -> Spectrum:
    return _cached_solve(entry, params, None, oracle_grid(entry, params, n_override, which), k, want_vectors)


def vonroos_spectrum(entry: CatalogEntry, params: dict, amb: AmbiguityParams, k: int) -> Spectrum:
    """Lowest k levels of the mass-ordered operator on the recovered initial
    potential, on the entry's equivalence grid."""
    return _cached_solve(entry, params, amb, oracle_grid(entry, params, which="equivalence"), k, False)


def _cached_solve(
    entry: CatalogEntry, params: dict, amb: Optional[AmbiguityParams], grid: Grid, k: int, want_vectors: bool
) -> Spectrum:
    """One eigensolve per matrix: the deformed operator on V_eff when ``amb`` is
    None, else the von Roos operator with ordering ``amb`` on the recovered V.
    Requests that resolve to the same operator, grid, k and want_vectors share it."""
    key = (entry.name, _params_key(params), amb, grid, k, want_vectors)
    if key not in _SPECTRUM_CACHE:
        df, v_eff = entry.deforming(params), entry.v_eff(params)
        if amb is None:
            op = discretize_deformed(df, v_eff, grid)
        else:
            op = discretize_vonroos(df, amb, lambda x: recover_initial_potential(df, amb, v_eff, x), grid)
        _SPECTRUM_CACHE[key] = eigenpairs(op, k, want_vectors=want_vectors)
    return _SPECTRUM_CACHE[key]


def residual_window(entry: CatalogEntry, params: dict) -> tuple:
    """Interior window where pointwise identities are evaluated.

    The padding keeps the superpotential terms small enough that the algebraic
    identities can actually be resolved to 1e-10 in double precision."""
    dom = entry.domain
    if dom.bounded:
        pad = 0.05 * dom.length
        return dom.x1 + pad, dom.x2 - pad
    if math.isfinite(dom.x1):
        return dom.x1 + 0.3, dom.x1 + 9.0
    return -4.0, 8.0


def chain_residual_max(entry: CatalogEntry, params: dict) -> tuple:
    """(max |r1|, max |r2| over i <= _CHAIN_DEPTH, scale) on interior nodes.

    ``scale`` is the largest term magnitude entering the residuals, the natural
    yardstick once potential parameters grow large."""
    problem = entry.chain_problem(params)
    chain = solve_chain(problem, _CHAIN_DEPTH + 1)
    a, b = residual_window(entry, params)
    return chain_residuals(problem, chain, _CHAIN_DEPTH, np.linspace(a, b, _WINDOW_NODES))


def printed_chain_residual_max(entry: CatalogEntry, params: dict) -> tuple:
    """Residuals with the published lambda_i, mu_i substituted for the solved ones."""
    problem = entry.chain_problem(params)
    solved = solve_chain(problem, _CHAIN_DEPTH + 1)
    lams = tuple(entry.printed_lambda(params, i) for i in range(_CHAIN_DEPTH + 2))
    mus = tuple(entry.printed_mu(params, i) for i in range(_CHAIN_DEPTH + 2))
    chain = ParameterChain(lams, mus, solved.eps_seq)
    a, b = residual_window(entry, params)
    return chain_residuals(problem, chain, _CHAIN_DEPTH, np.linspace(a, b, _WINDOW_NODES))


def chain_vs_printed_energy(entry: CatalogEntry, params: dict) -> float:
    """Max relative gap between chain partial sums and the published E_n, n <= _CHAIN_DEPTH."""
    chain = solve_chain(entry.chain_problem(params), _CHAIN_DEPTH)
    worst = 0.0
    for n in range(_CHAIN_DEPTH + 1):
        printed = entry.printed_energy(params, n)
        got = chain.energy(n)
        worst = max(worst, abs(got - printed) / max(1e-12, abs(printed)))
    return worst


def vtilde_agreement(entry: CatalogEntry, params: dict, amb: AmbiguityParams) -> Optional[float]:
    """Max |printed V~ - analytic V~| on interior nodes; None if nothing printed."""
    if entry.v_tilde_closed is None:
        return None
    a, b = residual_window(entry, params)
    xs = np.linspace(a, b, _WINDOW_NODES)
    printed = entry.v_tilde_closed(params, amb.rho, amb.sigma, xs)
    return float(np.max(np.abs(np.asarray(printed) - v_tilde_eval(entry.deforming(params), amb, xs))))


def ground_ratio_spread(entry: CatalogEntry, params: dict) -> float:
    """Relative spread of the assembled (integral-form) ground state over the
    printed one.

    Points where the state has decayed below 1e-120 of its peak are skipped:
    both representations underflow there and the ratio becomes 0/0. NaN when
    no point is left."""
    a, b = residual_window(entry, params)
    xs = np.linspace(a, b, _WINDOW_NODES)
    num = np.asarray(excited_state_eval(entry, params, 0, xs), dtype=float)
    closed = np.asarray(entry.ground_state_closed(params, xs), dtype=float)
    mask = np.abs(closed) > 1e-120 * np.max(np.abs(closed))
    if not np.any(mask):
        return math.nan
    ratio = num[mask] / closed[mask]
    return float((np.max(ratio) - np.min(ratio)) / np.abs(np.mean(ratio)))


def a_minus_residual(entry: CatalogEntry, params: dict) -> float:
    """Max |A^- psi0| / max |psi0| with a fourth-order discrete derivative on
    the residual window, clamped to the equivalence grid."""
    assembled = _assemble(entry, params, 0)
    problem, chain = assembled.problem, assembled.chain
    lo, hi = residual_window(entry, params)
    edges = oracle_grid(entry, params, which="equivalence").interval
    grid = Grid(Interval(max(edges.x1, lo), min(edges.x2, hi)), _FINE_POINTS)
    x = grid.nodes()
    h = grid.spacing
    psi = np.asarray(assembled.value(x), dtype=float)
    f = np.asarray(deforming_eval(problem.df, x).f, dtype=float)
    s = np.sqrt(f)
    sp = s * psi
    j = slice(2, -2)
    dsp = (-sp[4:] + 8.0 * sp[3:-1] - 8.0 * sp[1:-3] + sp[:-4]) / (12.0 * h)
    w = w_eval(problem.sp, chain.lambda_seq[0], chain.mu_seq[0], x[j])
    resid = s[j] * dsp + np.asarray(w.W) * psi[j]
    return float(np.max(np.abs(resid)) / np.max(np.abs(psi)))


def eigen_residual(entry: CatalogEntry, params: dict, n: int) -> float:
    """||H psi_n - E_n psi_n||_2 / ||psi_n||_2 at _FINE_POINTS over the interior window.

    The window keeps the sampled action meaningful: right at a singular wall
    (sec^2 or 1/x^2 endpoints) the second-order stencil cannot resolve the
    closed-form state and its local truncation error would swamp the norm.
    Boundary couplings are included, so no Dirichlet assumption is made."""
    a, b = residual_window(entry, params)
    grid = Grid(Interval(a, b), _FINE_POINTS)
    op = discretize_deformed(entry.deforming(params), entry.v_eff(params), grid)
    assembled = _assemble(entry, params, n)
    psi = np.asarray(assembled.value(grid.nodes()), dtype=float)
    energy = assembled.chain.energy(n)
    resid = op.apply(psi) - energy * psi[1:-1]
    return float(np.linalg.norm(resid) / np.linalg.norm(psi[1:-1]))


def gram_matrix(entry: CatalogEntry, params: dict, levels: int) -> np.ndarray:
    """Simpson Gram matrix of the first ``levels`` normalized closed-form states
    on the oracle grid."""
    grid = oracle_grid(entry, params)
    states = [normalized_state(entry, params, n, grid) for n in range(levels)]
    G = np.empty((levels, levels))
    for i in range(levels):
        for j in range(i, levels):
            G[i, j] = G[j, i] = quadrature(states[i] * states[j], grid)
    return G


def _truncation_resolves(entry: CatalogEntry, params: dict, n: int, edges: Interval) -> bool:
    """True when the closed-form state has actually decayed at the truncation
    edges, so its Dirichlet eigenvalue is trustworthy at the recipe tolerance."""
    if entry.domain.bounded:
        return True
    assembled = _assemble(entry, params, n)
    a, b = residual_window(entry, params)
    peak = float(np.max(assembled.log_abs(np.linspace(a, b, 257))))
    # |psi(edge)|^2 below ~3e-4 of the peak keeps the Dirichlet shift within the
    # per-entry tolerances; marginal tails sit decades above this line
    threshold = -8.0
    for edge, hard in ((edges.x1, math.isfinite(entry.domain.x1)), (edges.x2, math.isfinite(entry.domain.x2))):
        if hard:
            continue  # exact wall of the physical domain
        inside = edge - math.copysign(1e-6, edge - 0.5 * (edges.x1 + edges.x2))
        u = 2.0 * (float(assembled.log_abs(inside)) - peak)
        if not u < threshold:
            return False
    return True


def trusted_levels(entry: CatalogEntry, params: dict) -> int:
    """Lowest oracle levels trusted by both the oracle comparison and ``spectrum
    --oracle``: the bound states up to the recipe's level cap, less the top ones
    whose Dirichlet eigenvalues carry a truncation shift (tails not decayed)."""
    cap = entry.counting(params).levels(entry.oracle_recipe(params).level_cap)
    edges = oracle_grid(entry, params).interval
    while cap > 0 and not _truncation_resolves(entry, params, cap - 1, edges):
        cap -= 1
    return cap


def oracle_vs_chain(entry: CatalogEntry, params: dict) -> Optional[dict]:
    """Compare chain energies with the matrix oracle on the entry recipe over
    the trusted levels; None when no level is trusted."""
    cap = trusted_levels(entry, params)
    if cap < 1:
        return None
    rel_tol = entry.oracle_recipe(params).rel_tol
    spec = deformed_spectrum(entry, params, cap)
    chain = solve_chain(entry.chain_problem(params), cap - 1)
    rel = [
        abs(spec.eigenvalues[n] - chain.energy(n)) / max(1e-12, abs(chain.energy(n)))
        for n in range(cap)
    ]
    return {
        "levels": cap,
        "rel_err": rel,
        "max_rel_err": max(rel),
        "tol": rel_tol,
        "ok": max(rel) < rel_tol,
        "oracle": [float(v) for v in spec.eigenvalues[:cap]],
        "chain": [chain.energy(n) for n in range(cap)],
    }


def spectral_equivalence(entry: CatalogEntry, params: dict, amb: AmbiguityParams) -> Optional[dict]:
    """Von Roos spectrum on the recovered V vs deformed spectrum on V_eff.

    Levels compared are those below the truncation-induced continuum edge
    (at most 4); None when no level qualifies."""
    edge = entry.continuum_edge(params)
    spec_d = deformed_spectrum(entry, params, 4, which="equivalence")
    if math.isfinite(edge):
        nlev = int(np.sum(spec_d.eigenvalues < edge - 1e-9))
    else:
        nlev = 4
    if nlev < 1:
        return None
    spec_v = vonroos_spectrum(entry, params, amb, nlev)
    rel = np.abs(spec_v.eigenvalues - spec_d.eigenvalues[:nlev]) / np.maximum(
        1e-12, np.abs(spec_d.eigenvalues[:nlev])
    )
    return {"levels": nlev, "max_rel_dev": float(np.max(rel))}


def equivalence_deviation(entry: CatalogEntry, params: dict, amb: AmbiguityParams) -> dict:
    """Pointwise operator-level ordering-identity deviation on the entry grid.

    Returned relative to the action scale: where the deformation grows steeply
    the raw operator values do too, so only the ratio is grid-size invariant."""
    grid = oracle_grid(entry, params, which="equivalence")
    df = entry.deforming(params)
    v_eff = entry.v_eff(params)

    def v_initial(x):
        return recover_initial_potential(df, amb, v_eff, x)

    dev = equivalence_check(df, amb, v_initial, grid)
    op = discretize_deformed(df, v_eff, grid)
    scale = max(float(np.max(np.abs(op.apply(psi)))) for psi in _test_battery(grid))
    return {"max_dev": dev, "action_scale": scale, "rel_dev": dev / max(scale, 1e-300)}


def counting_vs_admissibility(entry: CatalogEntry, params: dict) -> dict:
    """Check the printed counting rule against the numeric verdicts.

    A level exists numerically when its wavefunction is admissible AND its
    chain energy lies strictly above the previous level: past the rule's
    cutoff the chain can reproduce an earlier state at a repeated energy,
    which is normalizable but not a new bound state. A finite count probes at
    most the first AUTO_LEVELS levels, and the first missing level n = count
    only when count <= AUTO_LEVELS; other rules probe levels 0..3."""
    counting = entry.counting(params)
    if counting.kind == "finite":
        probed = counting.count + 1 if counting.count <= AUTO_LEVELS else AUTO_LEVELS
    else:
        probed = 4
    chain = solve_chain(entry.chain_problem(params), probed - 1)
    verdicts = {n: admissibility_check(entry, params, n) for n in range(probed)}

    def exists(n: int, v) -> bool:
        if not v.admissible:
            return False
        if n == 0:
            return True
        e_prev, e_n = chain.energy(n - 1), chain.energy(n)
        return e_n > e_prev + 1e-12 * max(1.0, abs(e_prev))

    if counting.kind == "zero":
        ok = not any(v.admissible for v in verdicts.values())
    else:
        ok = all(exists(n, v) == (counting.kind == "infinite" or n < counting.count) for n, v in verdicts.items())
    return {"counting": counting, "verdicts": verdicts, "ok": ok}


def orthonormality_offdiag(entry: CatalogEntry, params: dict) -> Optional[float]:
    """Max off-diagonal Gram entry over the first min(4, count) admissible states."""
    levels = entry.counting(params).levels(4)
    if levels < 1:
        return None
    G = gram_matrix(entry, params, levels)
    if levels == 1:
        return 0.0
    off = G - np.diag(np.diag(G))
    return float(np.max(np.abs(off)))


@dataclass(frozen=True)
class Check:
    """One line of the verify report; ``ok`` is None for a note, which is
    reported but never fails."""

    name: str
    ok: Optional[bool]
    detail: str = ""

    def __str__(self) -> str:
        tag = "note" if self.ok is None else ("ok" if self.ok else "FAIL")
        return f"  [{tag}] {self.name}" + (f": {self.detail}" if self.detail else "")


def _residual_check(name: str, r1: float, r2: float, scale: float) -> Check:
    # the absolute 1e-10 bound is meaningful at catalog-scale parameters; for
    # larger user parameters roundoff grows with the largest residual term
    tol = max(1e-10, 64.0 * np.finfo(float).eps * scale)
    return Check(name, max(r1, r2) < tol, f"max |r1| = {r1:.2e}, max |r2| = {r2:.2e} (tol {tol:.1e})")


def _verdict_tag(v) -> str:
    if v.admissible:
        return "adm"
    broke = [tag for tag, ok in (("sq", v.square_integrable), ("herm", v.hermiticity_ok)) if not ok]
    return "inadm[" + ",".join(broke) + "]"


def verify_entry(entry: CatalogEntry, params: dict, preset: str = "bdd", tol: Optional[float] = None) -> Iterator[Check]:
    """Validate ``params``, then return the verify battery as a generator of
    ``Check`` records in report order; each check runs when it is reached.
    ``tol`` overrides the recipe tolerance of the oracle energy comparison."""
    entry.validate(params)
    return _battery(entry, params, preset, tol)


def _battery(entry: CatalogEntry, params: dict, preset: str, tol: Optional[float]) -> Iterator[Check]:
    grid = Grid(Interval(*residual_window(entry, params)), 10001)
    rep = positivity_check(entry.deforming(params), grid)
    yield Check("positivity", rep.ok, f"min f = {rep.min_f:.6g}")
    yield _residual_check("chain residuals", *chain_residual_max(entry, params))
    yield _residual_check("printed chain parameters", *printed_chain_residual_max(entry, params))

    gap = chain_vs_printed_energy(entry, params)
    if entry.energy_discrepancy:
        yield Check("printed energy formula flagged", None, entry.energy_discrepancy)
        yield Check(f"chain vs printed E_n relative gap = {gap:.3g} (reported, not asserted)", None)
    else:
        yield Check("chain vs printed E_n", gap < 1e-10, f"max rel gap = {gap:.2e}")

    amb = AmbiguityParams.preset(preset)
    vt = vtilde_agreement(entry, params, amb)
    if vt is None:
        yield Check("no printed ordering term for this entry", None)
    else:
        yield Check("printed ordering term", vt < 1e-10, f"max dev = {vt:.2e}")

    cva = counting_vs_admissibility(entry, params)
    cnt = cva["counting"]
    verdicts = ", ".join(f"n={n}:{_verdict_tag(v)}" for n, v in sorted(cva["verdicts"].items()))
    yield Check("counting vs numeric admissibility", cva["ok"], f"counting = {cnt}; verdicts {verdicts}")
    if cnt.kind == "finite" and cnt.count > AUTO_LEVELS:
        yield Check(f"counting boundary n={cnt.count} not probed (only levels n < {AUTO_LEVELS})", None)

    ratio = ground_ratio_spread(entry, params)
    yield Check("ground-state closed vs integral form", ratio < 1e-8, f"ratio spread = {ratio:.2e}")

    # 1e-7 here: slowly decaying states evaluated through a saturating chain
    # variable (coth) carry ~1e-9 relative noise that the discrete derivative
    # amplifies by 1/h; genuine sign or assembly errors sit many decades higher
    am = a_minus_residual(entry, params)
    yield Check("lowering-operator annihilation", am < 1e-7, f"max residual = {am:.2e}")

    levels = cnt.levels(3)
    chain = solve_chain(entry.chain_problem(params), max(levels - 1, 0))
    for n in range(levels):
        er = eigen_residual(entry, params, n)
        e_tol = 1e-5 * max(1.0, abs(chain.energy(n)))
        yield Check(f"eigen-residual n={n}", er < e_tol, f"{er:.2e} (tol {e_tol:.1e})")

    dev = equivalence_deviation(entry, params, amb)
    yield Check(
        "ordering-identity operator check",
        dev["rel_dev"] < 1e-5,
        f"max dev = {dev['max_dev']:.2e} ({dev['rel_dev']:.2e} of action scale)",
    )

    se = spectral_equivalence(entry, params, amb)
    if se is None:
        yield Check("no levels below the continuum edge for the spectral comparison", None)
    else:
        yield Check(
            "ordered vs deformed spectra",
            se["max_rel_dev"] < 1e-6,
            f"{se['levels']} level(s), max rel dev = {se['max_rel_dev']:.2e}",
        )

    ovc = oracle_vs_chain(entry, params)
    if ovc is None:
        yield Check("oracle energy comparison skipped (no resolvable levels)", None)
    else:
        use_tol = tol if tol is not None else ovc["tol"]
        yield Check(
            "oracle vs chain energies",
            ovc["max_rel_err"] < use_tol,
            f"{ovc['levels']} level(s), max rel err = {ovc['max_rel_err']:.2e} (tol {use_tol:g})",
        )
