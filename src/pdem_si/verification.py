"""Shared verification battery: every cross-check the verify command and the
test suite run against a catalog entry lives here, together with a process-wide
cache of oracle eigensolves (they dominate the runtime). ``verify_entry``
yields the verify command's report as ``Check`` records."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .catalog import CatalogEntry
from .core import AmbiguityParams, Grid, Interval, positivity_check
from .ordering import _v_tilde, recover_initial_potential, v_tilde_eval
from .oracle import DEFORMED, Spectrum, TridiagonalOperator, _battery_deviation, _quadratures, _stencil
from .oracle import discretize_vonroos, eigenpairs, eigenvectors, sturm_count
from .si_engine import ParameterChain, chain_residuals, solve_chain, w_eval
from .wavefunctions import LevelTable, _Points, admissibility_checks, normalized_states

_SPECTRUM_CACHE: dict = {}

# levels listed by ``spectrum --n-levels auto`` and probed by the counting check
AUTO_LEVELS = 16
# chain levels checked against the matching conditions and the published E_n
_CHAIN_DEPTH = 5
# nodes on the residual window for pointwise identities, and the grid size of
# the discrete-derivative and eigen-residual checks
_WINDOW_NODES = 101
_FINE_POINTS = 8001
# both ordering checks run on the equivalence interval at _PAIR_POINTS and 2 _PAIR_POINTS - 1 points, so h halves
_PAIR_POINTS = 501


def _params_key(params: dict) -> tuple:
    return tuple(sorted(params.items()))


def oracle_grid(entry: CatalogEntry, params: dict, n_override: Optional[int] = None) -> Grid:
    rec = entry.oracle_recipe(params)
    return Grid(Interval(rec.x1, rec.x2), n_override or rec.n_points)


def deformed_spectrum(
    entry: CatalogEntry, params: dict, k: int, n_override: Optional[int] = None, want_vectors: bool = False
) -> Spectrum:
    grid = oracle_grid(entry, params, n_override)
    op = _operator(entry, params, DEFORMED, grid) if want_vectors else None
    spec = _cached_solve(entry, params, DEFORMED, grid, k, op=op)
    if want_vectors:  # vectors at the cached eigenvalues; only the eigenvalues are cached
        spec = Spectrum(spec.eigenvalues, eigenvectors(op, spec.eigenvalues))
    return spec


def _operator(entry: CatalogEntry, params: dict, amb: AmbiguityParams, grid: Grid) -> TridiagonalOperator:
    """The operator of ordering ``amb`` on the initial potential recovered from
    V_eff; at DEFORMED, where V~ vanishes, that is the deformed operator on V_eff."""
    df, v_eff = entry.deforming(params), entry.v_eff(params)
    return discretize_vonroos(df, amb, lambda x: recover_initial_potential(df, amb, v_eff, x), grid)


def _cached_solve(entry: CatalogEntry, params: dict, amb: AmbiguityParams, grid: Grid, k: int, op=None, guess=None):
    """One eigenvalue solve per (operator, grid, k), shared by every request; ``op`` is it if already built.
    ``guess`` goes to ``eigenpairs`` and must follow from the key alone."""
    key = (entry.name, _params_key(params), amb, grid, k)
    if key not in _SPECTRUM_CACHE:
        # guess goes positionally: benchmarks/tracer.py notes eigenpairs calls as (op, k, flag)
        _SPECTRUM_CACHE[key] = eigenpairs(op or _operator(entry, params, amb, grid), k, guess)
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
    """Max gap between chain partial sums and the published E_n, n <= _CHAIN_DEPTH,
    relative to the scale the partial sum carries, max(|E_n|, sum_{j<=n} |eps_j|):
    a level near the continuum edge is a small sum of large terms."""
    chain = solve_chain(entry.chain_problem(params), _CHAIN_DEPTH)
    worst = scale = 0.0
    for n in range(_CHAIN_DEPTH + 1):
        printed = entry.printed_energy(params, n)
        scale += abs(chain.eps_seq[n])
        worst = max(worst, abs(chain.energy(n) - printed) / max(1e-12, abs(printed), scale))
    return worst


def vtilde_agreement(entry: CatalogEntry, params: dict, amb: AmbiguityParams) -> Optional[float]:
    """Max |printed V~ - analytic V~| on interior nodes; None if nothing printed."""
    if entry.v_tilde_closed is None:
        return None
    a, b = residual_window(entry, params)
    xs = np.linspace(a, b, _WINDOW_NODES)
    printed = entry.v_tilde_closed(params, amb.rho, amb.sigma, xs)
    return float(np.max(np.abs(np.asarray(printed) - v_tilde_eval(entry.deforming(params), amb, xs))))


class Request(LevelTable):
    """One request at one parameter point: the level table every check reads,
    and the operators its checks share, each built on first use."""

    def __init__(self, entry: CatalogEntry, params: dict):
        super().__init__(entry, params)
        self._pairs: dict = {}

    def pair(self, amb: AmbiguityParams) -> list:
        """(ordered, deformed) operators on each grid of the equivalence pair, at
        _PAIR_POINTS and 2 _PAIR_POINTS - 1 points, so h halves: both ordering
        checks read them, built once per ordering. Each is ``_operator``'s, bit
        for bit, but on each grid f, V_eff and the f' and f'' of V~ are
        evaluated once for both orderings."""
        if amb not in self._pairs:
            df, v_eff = self.entry.deforming(self.params), self.entry.v_eff(self.params)
            orderings = (amb, DEFORMED)

            def potentials(x, f):  # recover_initial_potential of each ordering, with f at x from the nodes
                v, slopes = np.asarray(v_eff(x)), df._slopes(x)
                return [v - _v_tilde(ordering, f, *slopes) for ordering in orderings]

            grids = (Grid(self.entry.equivalence_interval, n) for n in (_PAIR_POINTS, 2 * _PAIR_POINTS - 1))
            self._pairs[amb] = [tuple(_stencil(df, orderings, potentials, grid)) for grid in grids]
        return self._pairs[amb]

    @cached_property
    def residual_operator(self) -> tuple:
        """The deformed operator at _FINE_POINTS over the residual window and its
        nodes as shared points, which every level's eigen-residual applies."""
        grid = Grid(Interval(*residual_window(self.entry, self.params)), _FINE_POINTS)
        return _operator(self.entry, self.params, DEFORMED, grid), _Points(self.problem, grid.nodes())


def ground_ratio_spread(table: LevelTable) -> float:
    """Relative spread of the assembled (integral-form) ground state over the
    printed one.

    Points where the state has decayed below 1e-120 of its peak are skipped:
    both representations underflow there and the ratio becomes 0/0. NaN when
    no point is left."""
    entry, params = table.entry, table.params
    a, b = residual_window(entry, params)
    xs = np.linspace(a, b, _WINDOW_NODES)
    num = table[0].value(xs)
    closed = np.asarray(entry.ground_state_closed(params, xs), dtype=float)
    mask = np.abs(closed) > 1e-120 * np.max(np.abs(closed))
    if not np.any(mask):
        return math.nan
    ratio = num[mask] / closed[mask]
    return float((np.max(ratio) - np.min(ratio)) / np.abs(np.mean(ratio)))


def a_minus_residual(table: LevelTable) -> float:
    """Max |A^- psi0| / max |psi0| with a fourth-order discrete derivative on
    the residual window, clamped to the equivalence interval."""
    entry, params = table.entry, table.params
    assembled = table[0]
    problem, chain = assembled.problem, assembled.chain
    lo, hi = residual_window(entry, params)
    edges = entry.equivalence_interval
    grid = Grid(Interval(max(edges.x1, lo), min(edges.x2, hi)), _FINE_POINTS)
    x = grid.nodes()
    h = grid.spacing
    pts = _Points(problem, x)
    psi = assembled.value_at(pts)
    s = np.sqrt(pts.f)
    sp = s * psi
    j = slice(2, -2)
    dsp = (-sp[4:] + 8.0 * sp[3:-1] - 8.0 * sp[1:-3] + sp[:-4]) / (12.0 * h)
    w = w_eval(problem.sp, chain.lambda_seq[0], chain.mu_seq[0], x[j])
    resid = s[j] * dsp + np.asarray(w.W) * psi[j]
    return float(np.max(np.abs(resid)) / np.max(np.abs(psi)))


def eigen_residual(req: Request, n: int) -> float:
    """||H psi_n - E_n psi_n||_2 / ||psi_n||_2 at _FINE_POINTS over the interior window.

    The window keeps the sampled action meaningful: right at a singular wall
    (sec^2 or 1/x^2 endpoints) the second-order stencil cannot resolve the
    closed-form state and its local truncation error would swamp the norm.
    Boundary couplings are included, so no Dirichlet assumption is made."""
    (op, pts), assembled = req.residual_operator, req[n]
    psi = assembled.value_at(pts)
    energy = assembled.chain.energy(n)
    resid = op.apply(psi) - energy * psi[1:-1]
    return float(np.linalg.norm(resid) / np.linalg.norm(psi[1:-1]))


def gram_matrix(table: LevelTable, levels: int) -> np.ndarray:
    """Simpson Gram matrix of the first ``levels`` normalized closed-form states
    on the oracle grid."""
    grid = oracle_grid(table.entry, table.params)
    states = normalized_states(table, range(levels), grid)
    pairs = [(i, j) for i in range(levels) for j in range(i, levels)]
    G = np.empty((levels, levels))
    for (i, j), value in zip(pairs, _quadratures([states[i] * states[j] for i, j in pairs], grid)):
        G[i, j] = G[j, i] = value
    return G


def _truncation_resolves(table: LevelTable, n: int, edges: Interval) -> bool:
    """True when the closed-form state has actually decayed at the truncation
    edges, so its Dirichlet eigenvalue is trustworthy at the recipe tolerance."""
    entry = table.entry
    if entry.domain.bounded:
        return True
    assembled = table[n]
    a, b = residual_window(entry, table.params)
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


def trusted_levels(table: LevelTable) -> int:
    """Lowest oracle levels trusted by both the oracle comparison and ``spectrum
    --oracle``: the bound states up to the recipe's level cap, less the top ones
    whose Dirichlet eigenvalues carry a truncation shift (tails not decayed)."""
    entry, params = table.entry, table.params
    cap = entry.counting(params).levels(entry.oracle_recipe(params).level_cap)
    edges = oracle_grid(entry, params).interval
    while cap > 0 and not _truncation_resolves(table, cap - 1, edges):
        cap -= 1
    return cap


def _richardson(coarse, fine, num, den) -> tuple:
    """The gated Richardson step shared by the energy oracle and the ordering
    pair, for an O(h^2) quantity at h and h/2: (4 fine - coarse)/3 per level
    where the order ratio num/den lies in [3, 5], else fine. Returns the value,
    the ratio and "richardson" or "fine" per level; a zero ``den`` fails the gate."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    richardson = (ratio >= 3.0) & (ratio <= 5.0)
    value = np.where(richardson, (4.0 * fine - coarse) / 3.0, fine)
    return value, ratio, ["richardson" if r else "fine" for r in richardson]


def oracle_grid_sizes(entry: CatalogEntry, params: dict, n_override: Optional[int] = None) -> list:
    """Grid sizes behind the energy oracle on the recipe window: [n_override]
    for one grid, else n1, n2, n3 = (N-1)/16+1, (N-1)/8+1, (N-1)/4+1 for the
    recipe's N, so that h halves twice."""
    if n_override:
        return [n_override]
    n = entry.oracle_recipe(params).n_points
    return [(n - 1) // m + 1 for m in (16, 8, 4)]


def oracle_energies(entry: CatalogEntry, params: dict, k: int) -> dict:
    """The lowest ``k`` deformed-operator levels from the Richardson triple on
    the recipe window: with E1, E2, E3 on the ``oracle_grid_sizes`` grids,
    (4 E3 - E2)/3 per level where (E1-E2)/(E2-E3) lies in [3, 5], else E3."""
    grids = oracle_grid_sizes(entry, params)
    e1, e2, e3 = (deformed_spectrum(entry, params, k, n).eigenvalues for n in grids)
    energies, ratio, reported = _richardson(e2, e3, e1 - e2, e2 - e3)
    return {"energies": energies, "order_ratio": ratio.tolist(), "reported": reported, "grids": grids}


def oracle_comparison(table: LevelTable) -> Optional[dict]:
    """Compare chain energies with the matrix oracle (``oracle_energies``) on
    the entry recipe over the trusted levels; None when no level is trusted."""
    entry, params = table.entry, table.params
    cap = trusted_levels(table)
    if cap < 1:
        return None
    rel_tol = entry.oracle_recipe(params).rel_tol
    orc = oracle_energies(entry, params, cap)
    chain = table.chain_to(cap - 1)
    rel = [
        abs(orc["energies"][n] - chain.energy(n)) / max(1e-12, abs(chain.energy(n)))
        for n in range(cap)
    ]
    return {
        "levels": cap,
        "rel_err": rel,
        "max_rel_err": max(rel),
        "tol": rel_tol,
        "ok": max(rel) < rel_tol,
        "oracle": [float(v) for v in orc["energies"]],
        "chain": [chain.energy(n) for n in range(cap)],
        "order_ratio": orc["order_ratio"],
        "reported": orc["reported"],
        "grids": orc["grids"],
    }


def oracle_vs_chain(entry: CatalogEntry, params: dict) -> Optional[dict]:
    """``oracle_comparison`` on a fresh level table. The benchmark workloads
    (benchmarks/workloads.py) call the check by this name and signature, and
    they change only with the benchmark (ROADMAP item 1)."""
    return oracle_comparison(LevelTable(entry, params))


def spectral_equivalence(req: Request, amb: AmbiguityParams) -> Optional[dict]:
    """Von Roos spectrum on the recovered V vs deformed spectrum on V_eff, as a
    Richardson pair: D = E_vonRoos - E_deformed per level on the equivalence
    interval at h and h/2, reported as (4 D(h/2) - D(h))/3 where the order ratio
    D(h)/D(h/2) lies in [3, 5], else as D(h/2), relative to the fine deformed
    level. Levels compared are those below the truncation-induced continuum
    edge (at most 4, counted by one Sturm count); None when none qualifies.

    On each grid the von Roos solve starts from the deformed levels, which the
    paper's equivalence puts within the discretization error of its own; the
    oracle certifies them as guesses, so the result is the same whether the
    deformed levels were cached or not."""
    entry, params, pair = req.entry, req.params, req.pair(amb)
    edge = entry.continuum_edge(params)
    nlev = 4
    if math.isfinite(edge):
        nlev = min(4, sturm_count(pair[1][1], edge - 1e-9))
        if nlev < 1:
            return None
    d = []
    for ordered, deformed_op in pair:
        grid = ordered.grid
        deformed = _cached_solve(entry, params, DEFORMED, grid, nlev, deformed_op).eigenvalues
        d.append(_cached_solve(entry, params, amb, grid, nlev, ordered, guess=deformed.tolist()).eigenvalues - deformed)
    d_h, d_h2 = d
    dev, ratio, reported = _richardson(d_h, d_h2, d_h, d_h2)
    rel = np.abs(dev) / np.maximum(1e-12, np.abs(deformed))  # deformed: the fine grid's levels
    return {"levels": nlev, "max_rel_dev": float(np.max(rel)), "d_h": d_h.tolist(), "d_h2": d_h2.tolist(),
            "order_ratio": ratio.tolist(), "reported": reported}


def equivalence_deviation(req: Request, amb: AmbiguityParams) -> dict:
    """Pointwise ordering-identity deviation between the two operators that
    ``spectral_equivalence`` solves, the ordered one on the recovered V and the
    deformed one on V_eff, on its two grids: with D the ordered minus the
    deformed action on the test battery, max |4 D(h/2) - D(h)|/3 at the coarse
    interior nodes off the two next to each boundary (fine row index 2 i + 1 is
    coarse i). Relative to the action scale (the largest fine deformed action):
    where the deformation grows steeply the raw operator values do too, so
    only the ratio is grid-size invariant."""
    (d_h, _), (d_h2, scale) = (_battery_deviation(*ops) for ops in req.pair(amb))
    dev = float(np.max(np.abs(4.0 * d_h2[:, 1::2] - d_h)[:, 2:-2]) / 3.0)
    return {"max_dev": dev, "action_scale": scale, "rel_dev": dev / max(scale, 1e-300)}


def counting_vs_admissibility(table: LevelTable) -> dict:
    """Check the printed counting rule against the numeric verdicts.

    A level exists numerically when its wavefunction is admissible AND its
    chain energy lies strictly above the previous level: past the rule's
    cutoff the chain can reproduce an earlier state at a repeated energy,
    which is normalizable but not a new bound state. A finite count probes at
    most the first AUTO_LEVELS levels, and the first missing level n = count
    only when count <= AUTO_LEVELS; other rules probe levels 0..3."""
    counting = table.entry.counting(table.params)
    if counting.kind == "finite":
        probed = counting.count + 1 if counting.count <= AUTO_LEVELS else AUTO_LEVELS
    else:
        probed = 4
    chain = table.chain_to(probed - 1)
    verdicts = dict(enumerate(admissibility_checks(table, range(probed))))

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


def orthonormality_offdiag(table: LevelTable) -> Optional[float]:
    """Max off-diagonal Gram entry over the first min(4, count) admissible states."""
    levels = table.entry.counting(table.params).levels(4)
    if levels < 1:
        return None
    G = gram_matrix(table, levels)
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

    req = Request(entry, params)  # the levels and operators every check below reads
    cva = counting_vs_admissibility(req)
    cnt = cva["counting"]
    verdicts = ", ".join(f"n={n}:{_verdict_tag(v)}" for n, v in sorted(cva["verdicts"].items()))
    yield Check("counting vs numeric admissibility", cva["ok"], f"counting = {cnt}; verdicts {verdicts}")
    if cnt.kind == "finite" and cnt.count > AUTO_LEVELS:
        yield Check(f"counting boundary n={cnt.count} not probed (only levels n < {AUTO_LEVELS})", None)

    ratio = ground_ratio_spread(req)
    yield Check("ground-state closed vs integral form", ratio < 1e-8, f"ratio spread = {ratio:.2e}")

    # 1e-7 here: slowly decaying states evaluated through a saturating chain
    # variable (coth) carry ~1e-9 relative noise that the discrete derivative
    # amplifies by 1/h; genuine sign or assembly errors sit many decades higher
    am = a_minus_residual(req)
    yield Check("lowering-operator annihilation", am < 1e-7, f"max residual = {am:.2e}")

    levels = cnt.levels(3)
    chain = req.chain_to(max(levels - 1, 0))
    for n in range(levels):
        er = eigen_residual(req, n)
        e_tol = 1e-5 * max(1.0, abs(chain.energy(n)))
        yield Check(f"eigen-residual n={n}", er < e_tol, f"{er:.2e} (tol {e_tol:.1e})")

    dev = equivalence_deviation(req, amb)
    yield Check(
        "ordering-identity operator check",
        dev["rel_dev"] < 1e-5,
        f"max dev = {dev['max_dev']:.2e} ({dev['rel_dev']:.2e} of action scale)",
    )

    se = spectral_equivalence(req, amb)
    if se is None:
        yield Check("no levels below the continuum edge for the spectral comparison", None)
    else:
        yield Check(
            "ordered vs deformed spectra",
            se["max_rel_dev"] < 1e-6,
            f"{se['levels']} level(s), max rel dev = {se['max_rel_dev']:.2e}",
        )

    ovc = oracle_comparison(req)
    if ovc is None:
        yield Check("oracle energy comparison skipped (no resolvable levels)", None)
    else:
        use_tol = tol if tol is not None else ovc["tol"]
        yield Check(
            "oracle vs chain energies",
            ovc["max_rel_err"] < use_tol,
            f"{ovc['levels']} level(s), max rel err = {ovc['max_rel_err']:.2e} (tol {use_tol:g})",
        )
