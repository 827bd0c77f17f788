"""Shared verification battery: every cross-check the verify command and the
test suite run against a catalog entry lives here, together with a process-wide
cache of oracle eigensolves (they dominate the runtime)."""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .catalog import CatalogEntry
from .core import AmbiguityParams, Grid, Interval, deforming_eval
from .ordering import OrderingContext, recover_initial_potential, v_tilde_eval
from .oracle import Spectrum, _test_battery, discretize_deformed, discretize_vonroos, eigenpairs, equivalence_check
from .oracle import quadrature
from .si_engine import ParameterChain, chain_residuals, solve_chain, w_eval
from .wavefunctions import _assemble, admissibility_check, excited_state_eval, normalize

_SPECTRUM_CACHE: dict = {}


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
    key = ("deformed", entry.name, _params_key(params), k, n_override, which, want_vectors)
    if key not in _SPECTRUM_CACHE:
        grid = oracle_grid(entry, params, n_override, which)
        op = discretize_deformed(entry.deforming(params), entry.v_eff(params), grid)
        _SPECTRUM_CACHE[key] = eigenpairs(op, k, want_vectors=want_vectors)
    return _SPECTRUM_CACHE[key]


def vonroos_spectrum(
    entry: CatalogEntry,
    params: dict,
    preset: str,
    k: int,
    n_override: Optional[int] = None,
    which: str = "energy",
) -> Spectrum:
    key = ("vonroos", entry.name, _params_key(params), preset, k, n_override, which)
    if key not in _SPECTRUM_CACHE:
        grid = oracle_grid(entry, params, n_override, which)
        df = entry.deforming(params)
        amb = AmbiguityParams.preset(preset)
        ctx = OrderingContext(df, amb)
        v_eff = entry.v_eff(params)

        def v_initial(x):
            return recover_initial_potential(ctx, v_eff, x)

        def m_field(x):
            return np.asarray(deforming_eval(df, x).M, dtype=float)

        op = discretize_vonroos(m_field, amb.primed, v_initial, grid)
        _SPECTRUM_CACHE[key] = eigenpairs(op, k)
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


def chain_residual_max(entry: CatalogEntry, params: dict, depth: int = 5, nodes: int = 101, with_scale: bool = False):
    """(max |r1|, max |r2| over i <= depth) on interior nodes.

    ``with_scale`` additionally returns the largest term magnitude entering the
    residuals, the natural yardstick once potential parameters grow large."""
    problem = entry.chain_problem(params)
    chain = solve_chain(problem, depth + 1)
    a, b = residual_window(entry, params)
    r1, r2, scale = chain_residuals(problem, chain, depth, np.linspace(a, b, nodes))
    return (r1, r2, scale) if with_scale else (r1, r2)


def printed_chain_residual_max(entry: CatalogEntry, params: dict, depth: int = 5, nodes: int = 101, with_scale: bool = False):
    """Residuals with the published lambda_i, mu_i substituted for the solved ones."""
    problem = entry.chain_problem(params)
    solved = solve_chain(problem, depth + 1)
    lams = tuple(entry.printed_lambda(params, i) for i in range(depth + 2))
    mus = tuple(entry.printed_mu(params, i) for i in range(depth + 2))
    chain = ParameterChain(lams, mus, solved.eps_seq)
    a, b = residual_window(entry, params)
    r1, r2, scale = chain_residuals(problem, chain, depth, np.linspace(a, b, nodes))
    return (r1, r2, scale) if with_scale else (r1, r2)


def chain_vs_printed_energy(entry: CatalogEntry, params: dict, nmax: int = 5) -> float:
    """Max relative gap between chain partial sums and the published E_n."""
    chain = solve_chain(entry.chain_problem(params), nmax)
    worst = 0.0
    for n in range(nmax + 1):
        printed = entry.printed_energy(params, n)
        got = chain.energy(n)
        worst = max(worst, abs(got - printed) / max(1e-12, abs(printed)))
    return worst


def chain_energy(entry: CatalogEntry, params: dict, n: int) -> float:
    return solve_chain(entry.chain_problem(params), n).energy(n)


def vtilde_agreement(entry: CatalogEntry, params: dict, amb: AmbiguityParams, nodes: int = 101) -> Optional[float]:
    """Max |printed V~ - analytic V~| on interior nodes; None if nothing printed."""
    if entry.v_tilde_closed is None:
        return None
    a, b = residual_window(entry, params)
    xs = np.linspace(a, b, nodes)
    printed = entry.v_tilde_closed(params, amb.rho, amb.sigma, xs)
    ctx = OrderingContext(entry.deforming(params), amb)
    return float(np.max(np.abs(np.asarray(printed) - v_tilde_eval(ctx, xs))))


def ground_ratio_spread(entry: CatalogEntry, params: dict, nodes: int = 101) -> float:
    """Relative spread of the assembled (integral-form) ground state over the
    printed one.

    Points where the state has decayed below 1e-120 of its peak are skipped:
    both representations underflow there and the ratio becomes 0/0."""
    a, b = residual_window(entry, params)
    xs = np.linspace(a, b, nodes)
    num = np.asarray(excited_state_eval(entry, params, 0, xs), dtype=float)
    closed = np.asarray(entry.ground_state_closed(params, xs), dtype=float)
    mask = np.abs(closed) > 1e-120 * np.max(np.abs(closed))
    ratio = num[mask] / closed[mask]
    return float((np.max(ratio) - np.min(ratio)) / np.abs(np.mean(ratio)))


def a_minus_residual(entry: CatalogEntry, params: dict, n_points: int = 8001) -> float:
    """Max |A^- psi0| / max |psi0| with a fourth-order discrete derivative."""
    problem = entry.chain_problem(params)
    chain = solve_chain(problem, 0)
    assembled = _assemble(entry, params, 0)
    rec = entry.equivalence_recipe(params)
    a, b = max(rec.x1, residual_window(entry, params)[0]), min(rec.x2, residual_window(entry, params)[1])
    grid = Grid(Interval(a, b), n_points)
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


def eigen_residual(entry: CatalogEntry, params: dict, n: int, n_points: int = 8001) -> float:
    """||H psi_n - E_n psi_n||_2 / ||psi_n||_2 at n_points over the interior window.

    The window keeps the sampled action meaningful: right at a singular wall
    (sec^2 or 1/x^2 endpoints) the second-order stencil cannot resolve the
    closed-form state and its local truncation error would swamp the norm.
    Boundary couplings are included, so no Dirichlet assumption is made."""
    a, b = residual_window(entry, params)
    grid = Grid(Interval(a, b), n_points)
    op = discretize_deformed(entry.deforming(params), entry.v_eff(params), grid)
    assembled = _assemble(entry, params, n)
    psi = np.asarray(assembled.value(grid.nodes()), dtype=float)
    energy = assembled.chain.energy(n)
    resid = op.apply(psi) - energy * psi[1:-1]
    return float(np.linalg.norm(resid) / np.linalg.norm(psi[1:-1]))


def gram_matrix(entry: CatalogEntry, params: dict, levels: int, n_points: Optional[int] = None) -> np.ndarray:
    """Simpson Gram matrix of the first ``levels`` normalized closed-form states.

    States are sampled strictly inside the truncation; the Dirichlet endpoints
    carry zeros (the base function phi may blow up exactly there)."""
    grid = oracle_grid(entry, params, n_points, "energy")
    x = grid.nodes()
    states = []
    for n in range(levels):
        psi = np.asarray(_assemble(entry, params, n).value(x[1:-1]), dtype=float)
        psi = np.concatenate([[0.0], psi, [0.0]])
        _, psi = normalize(psi, grid)
        states.append(psi)
    G = np.empty((levels, levels))
    for i in range(levels):
        for j in range(i, levels):
            G[i, j] = G[j, i] = quadrature(states[i] * states[j], grid)
    return G


def _truncation_resolves(entry: CatalogEntry, params: dict, n: int, rec) -> bool:
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
    for edge, hard in ((rec.x1, math.isfinite(entry.domain.x1)), (rec.x2, math.isfinite(entry.domain.x2))):
        if hard:
            continue  # exact wall of the physical domain
        inside = edge - math.copysign(1e-6, edge - 0.5 * (rec.x1 + rec.x2))
        u = 2.0 * (float(assembled.log_abs(inside)) - peak)
        if not u < threshold:
            return False
    return True


def oracle_vs_chain(entry: CatalogEntry, params: dict, k: Optional[int] = None) -> Optional[dict]:
    """Compare chain energies with the matrix oracle on the entry recipe.

    Levels whose closed-form tails have not decayed at the truncation are not
    compared (their Dirichlet eigenvalues carry an irreducible truncation
    shift); returns None when nothing is resolvable."""
    rec = entry.oracle_recipe(params)
    counting = entry.counting(params)
    cap = rec.level_cap
    if counting.kind == "finite":
        cap = min(cap, counting.count)
    if k is not None:
        cap = min(cap, k)
    while cap > 0 and not _truncation_resolves(entry, params, cap - 1, rec):
        cap -= 1
    if cap < 1:
        return None
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
        "tol": rec.rel_tol,
        "ok": max(rel) < rec.rel_tol,
        "oracle": [float(v) for v in spec.eigenvalues[:cap]],
        "chain": [chain.energy(n) for n in range(cap)],
    }


def spectral_equivalence(entry: CatalogEntry, params: dict, preset: str) -> Optional[dict]:
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
    spec_v = vonroos_spectrum(entry, params, preset, nlev, which="equivalence")
    rel = np.abs(spec_v.eigenvalues - spec_d.eigenvalues[:nlev]) / np.maximum(
        1e-12, np.abs(spec_d.eigenvalues[:nlev])
    )
    return {"levels": nlev, "max_rel_dev": float(np.max(rel)), "preset": preset}


def equivalence_deviation(entry: CatalogEntry, params: dict, amb: AmbiguityParams) -> dict:
    """Pointwise operator-level ordering-identity deviation on the entry grid.

    Returned relative to the action scale: where the deformation grows steeply
    the raw operator values do too, so only the ratio is grid-size invariant."""
    grid = oracle_grid(entry, params, which="equivalence")
    df = entry.deforming(params)
    ctx = OrderingContext(df, amb)
    v_eff = entry.v_eff(params)

    def v_initial(x):
        return recover_initial_potential(ctx, v_eff, x)

    dev = equivalence_check(df, amb, v_initial, grid)
    op = discretize_deformed(df, v_eff, grid)
    scale = max(float(np.max(np.abs(op.apply(psi)))) for psi in _test_battery(grid))
    return {"max_dev": dev, "action_scale": scale, "rel_dev": dev / max(scale, 1e-300)}


def counting_vs_admissibility(entry: CatalogEntry, params: dict, extra: int = 0) -> dict:
    """Check the printed counting rule against the numeric verdicts.

    A level exists numerically when its wavefunction is admissible AND its
    chain energy lies strictly above the previous level: past the rule's
    cutoff the chain can reproduce an earlier state at a repeated energy,
    which is normalizable but not a new bound state."""
    counting = entry.counting(params)
    verdicts = {}
    ok = True

    def exists(n: int, v) -> bool:
        if not v.admissible:
            return False
        if n == 0:
            return True
        e_prev, e_n = chain_energy(entry, params, n - 1), chain_energy(entry, params, n)
        return e_n > e_prev + 1e-12 * max(1.0, abs(e_prev))

    if counting.kind == "finite":
        for n in range(counting.count + 1):
            v = admissibility_check(entry, params, n)
            verdicts[n] = v
            ok = ok and (exists(n, v) == (n <= counting.n_max))
    elif counting.kind == "infinite":
        for n in range(4 + extra):
            v = admissibility_check(entry, params, n)
            verdicts[n] = v
            ok = ok and exists(n, v)
    else:
        for n in range(4 + extra):
            v = admissibility_check(entry, params, n)
            verdicts[n] = v
            ok = ok and not v.admissible
    return {"counting": counting, "verdicts": verdicts, "ok": ok}


def orthonormality_offdiag(entry: CatalogEntry, params: dict) -> Optional[float]:
    """Max off-diagonal Gram entry over the first min(4, count) admissible states."""
    counting = entry.counting(params)
    levels = 4 if counting.kind == "infinite" else (counting.count or 0)
    levels = min(4, levels)
    if levels < 1:
        return None
    G = gram_matrix(entry, params, levels)
    if levels == 1:
        return 0.0
    off = G - np.diag(np.diag(G))
    return float(np.max(np.abs(off)))
