"""Bound-state wavefunctions: closed-form ground states, polynomial excited
states via the descending parameter chain, quadrature normalization, and the
two admissibility conditions (square integrability and the boundary condition
|psi|^2 f -> 0 required for Hermiticity of the deformed momentum).

The integral of W/f is carried out in the polynomial variable with closed
antiderivatives (log / arctan / rational forms depending on the class and the
discriminant), so wavefunction values never rely on numerical integration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .catalog import CatalogEntry
from .core import (
    ChainError,
    DegenerateClass,
    Grid,
    SingularPoint,
    ZeroNorm,
)
from .oracle import _simpson_weights, quadrature
from .si_engine import ChainProblem, ParameterChain, SuperpotentialClass, solve_chain

_LN_EPS = math.log(1e-8)
# edge or tail panels per open end in the square-integrability probe
_EDGE_PANELS = 21
# Simpson nodes per panel of that probe
_PANEL_NODES = 513


# ---------------------------------------------------------------------------
# closed antiderivatives of the ground-state integrand
# ---------------------------------------------------------------------------

def _antideriv_class1(lam, mu, barred):
    ab, bb, cb = barred

    if ab != 0.0:
        disc = bb * bb - 4.0 * ab * cb
        if disc > 0.0:
            # partial fractions on stably computed real roots: evaluating the
            # quadratic directly would cancel catastrophically near a root
            r = math.sqrt(disc)
            if bb != 0.0:
                y1 = (-bb - math.copysign(r, bb)) / (2.0 * ab)
                y2 = cb / (ab * y1)
            else:
                y1 = r / (2.0 * ab)
                y2 = -y1
            r1 = (lam * y1 + mu) / (ab * (y1 - y2))
            r2 = (lam * y2 + mu) / (ab * (y2 - y1))
            return lambda y: r1 * np.log(np.abs(y - y1)) + r2 * np.log(np.abs(y - y2))
        if disc == 0.0:
            y0 = -bb / (2.0 * ab)

            def F(y):
                # the rational term dominates the log as y -> y0; flooring the
                # exactly-underflowed offset keeps the +-inf limit instead of nan
                d = np.asarray(y, dtype=float) - y0
                d = np.where(d == 0.0, 1e-300, d)
                out = (lam / ab) * np.log(np.abs(d)) - (lam * y0 + mu) / (ab * d)
                return float(out) if out.ndim == 0 else out

            return F

        rr = math.sqrt(-disc)

        def F(y):
            q = ab * y**2 + bb * y + cb
            return (lam / (2.0 * ab)) * np.log(np.abs(q)) + (
                (mu - lam * bb / (2.0 * ab)) * (2.0 / rr) * np.arctan((2.0 * ab * y + bb) / rr)
            )

        return F
    if bb != 0.0:
        return lambda y: (lam / bb) * y + (mu / bb - lam * cb / bb**2) * np.log(np.abs(bb * y + cb))
    if cb == 0.0:
        raise DegenerateClass("f * phi' vanishes identically")
    return lambda y: (0.5 * lam * y**2 + mu * y) / cb


def _antideriv_class2(lam, mu, barred):
    ab, bb = barred
    if ab != 0.0 and bb != 0.0:
        return lambda y: (mu / bb) * np.log(np.abs(y)) + ((lam - ab * mu / bb) / (2.0 * ab)) * np.log(
            np.abs(ab * y**2 + bb)
        )
    if ab != 0.0:
        return lambda y: (lam / ab) * np.log(np.abs(y)) - mu / (2.0 * ab * y**2)
    if bb == 0.0:
        raise DegenerateClass("f * phi' vanishes identically")
    return lambda y: 0.5 * lam * y**2 / bb + (mu / bb) * np.log(np.abs(y))


def _antideriv_class3(lam, mu, consts, barred):
    A, B = consts[0], consts[1]
    cb, db = barred[2], barred[3]
    if not (A == -1.0 and B == 1.0):
        raise DegenerateClass("class3 antiderivative implemented for A = -1, B = 1")
    r1 = (lam + mu) / (2.0 * (cb + db))
    r2 = (mu - lam) / (2.0 * (db - cb))

    if cb == 0.0:
        return lambda y: -r1 * np.log(np.abs(1.0 - y)) + r2 * np.log(np.abs(1.0 + y))
    r3 = cb * (lam * db - mu * cb) / (db**2 - cb**2)
    return lambda y: (
        -r1 * np.log(np.abs(1.0 - y))
        + r2 * np.log(np.abs(1.0 + y))
        + (r3 / cb) * np.log(np.abs(cb * y + db))
    )


def _antideriv(sp: SuperpotentialClass, lam: float, mu: float):
    if sp.class_id == "class1":
        return _antideriv_class1(lam, mu, sp.barred)
    if sp.class_id == "class2":
        return _antideriv_class2(lam, mu, sp.barred)
    return _antideriv_class3(lam, mu, sp.consts, sp.barred)


# ---------------------------------------------------------------------------
# deformed polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeformedPolynomial:
    """P_n in the class variable y, held as dense ascending coefficients."""

    coeffs: tuple
    degree: int
    class_id: str
    cancellations: tuple = ()  # class3: (top-term residual, coefficient scale) per step

    def __call__(self, y):
        return P.polyval(np.asarray(y, dtype=float), np.asarray(self.coeffs))


def _trim(c: np.ndarray) -> np.ndarray:
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if len(nz) else c[:1]


def _descend(sp: SuperpotentialClass, chain: ParameterChain, n: int):
    """Build P_n at chain offset 0 from the seed P_0 = 1 at offset n."""
    lam, mu = chain.lambda_seq, chain.mu_seq
    poly = np.array([1.0])
    cancels = []
    for m in range(n):
        j = n - m - 1  # producing subscript m+1 at chain offset j
        dpoly = P.polyder(poly)
        lam_sum = lam[n] + lam[j]
        mu_sum = mu[n] + mu[j]
        if sp.class_id == "class1":
            ab, bb, cb = sp.barred
            poly = P.polyadd(
                -P.polymul(np.array([cb, bb, ab]), dpoly),
                P.polymul(np.array([mu_sum, lam_sum]), poly),
            )
        elif sp.class_id == "class2":
            ab, bb = sp.barred
            poly = P.polyadd(
                P.polymul(np.array([0.0, 2.0 * ab, 2.0 * bb]), dpoly),
                P.polymul(np.array([lam_sum - m * ab, mu_sum - m * bb]), poly),
            )
        else:
            A, B = sp.consts[0], sp.consts[1]
            cb, db = sp.barred[2], sp.barred[3]
            t1 = -P.polymul(np.array([B, 0.0, A]), dpoly)
            t2 = m * A * P.polymul(np.array([0.0, 1.0]), poly)
            bracket = P.polyadd(t1, t2)
            scale = max(np.max(np.abs(t1)) if len(t1) else 0.0, np.max(np.abs(t2)) if len(t2) else 0.0, 1e-300)
            top = bracket[m + 1] if len(bracket) > m + 1 else 0.0
            cancels.append((float(abs(top)), float(scale)))
            bracket = bracket[: m + 1]  # the (m+1)-degree term vanishes identically
            poly = P.polyadd(
                P.polymul(np.array([db, cb]), bracket),
                P.polymul(np.array([mu_sum, lam_sum]), poly),
            )
        poly = _trim(np.asarray(poly, dtype=float))
    return poly, tuple(cancels)


def polynomial_chain(entry: CatalogEntry, params: dict, n: int) -> DeformedPolynomial:
    """P_n at chain offset 0 by the descending construction."""
    if n < 0:
        raise ChainError("polynomial index must be >= 0")
    problem = entry.chain_problem(params)
    chain = solve_chain(problem, n)
    coeffs, cancels = _descend(problem.sp, chain, n)
    return DeformedPolynomial(
        coeffs=tuple(float(c) for c in coeffs),
        degree=len(coeffs) - 1,
        class_id=problem.sp.class_id,
        cancellations=cancels,
    )


# ---------------------------------------------------------------------------
# wavefunction assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Assembled:
    problem: ChainProblem
    chain: ParameterChain
    n: int
    poly: np.ndarray
    F: Callable
    F_ref: float

    def _parts(self, x):
        """(f, q, t, y) at x: the class prefactor is q^(-n/2), the deformed
        polynomial is evaluated at t, and y is the base function phi(x)."""
        sp = self.problem.sp
        x = np.asarray(x, dtype=float)
        f = self.problem.df.f(x)
        y = sp.phi_val(x)
        if np.any(~np.isfinite(np.asarray(y))):
            raise SingularPoint("base function phi blows up at an evaluation point")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if sp.class_id == "class2":
                q = t = y ** (-2.0)
            elif sp.class_id == "class3":
                q, t = sp.consts[0] * y**2 + sp.consts[1], y
            else:
                q, t = 1.0, y
        return f, q, t, y

    def value(self, x):
        f, q, t, y = self._parts(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = f**-0.5 * q ** (-0.5 * self.n) * P.polyval(t, self.poly) * np.exp(-(self.F(y) - self.F_ref))
        return float(out) if np.ndim(x) == 0 else out

    def log_abs(self, x):
        """log |psi_n(x)|, safe for large arguments (used by the probes)."""
        f, q, t, y = self._parts(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logpref = -0.5 * self.n * np.log(q)
            return -0.5 * np.log(f) + logpref + _log_abs_polyval(self.poly, t) - (self.F(y) - self.F_ref)


def _log_abs_polyval(coeffs: np.ndarray, y):
    """log |P(y)| that stays finite for |y| far outside the unit scale."""
    y = np.asarray(y, dtype=float)
    deg = len(coeffs) - 1
    small = np.abs(y) <= 1.0
    out = np.empty(y.shape if y.ndim else (1,))
    ys = np.atleast_1d(y)
    sm = np.atleast_1d(small)
    if np.any(sm):
        out[sm] = np.log(np.abs(P.polyval(ys[sm], coeffs)) + 1e-300)
    if np.any(~sm):
        rev = np.asarray(coeffs)[::-1]
        yb = ys[~sm]
        out[~sm] = deg * np.log(np.abs(yb)) + np.log(np.abs(P.polyval(1.0 / yb, rev)) + 1e-300)
    return float(out[0]) if y.ndim == 0 else out


def _assemble(entry: CatalogEntry, params: dict, n: int) -> _Assembled:
    problem = entry.chain_problem(params)
    chain = solve_chain(problem, n)
    poly, _ = _descend(problem.sp, chain, n)
    lam_n, mu_n = chain.lambda_seq[n], chain.mu_seq[n]
    F = _antideriv(problem.sp, lam_n, mu_n)
    y_ref = problem.sp.phi_val(entry.x_ref)
    return _Assembled(problem, chain, n, np.asarray(poly, dtype=float), F, float(F(y_ref)))


def excited_state_eval(entry: CatalogEntry, params: dict, n: int, x):
    """Unnormalized nth bound-state wavefunction; n = 0 is the ground state
    f^{-1/2} exp(-int W/f) via the class antiderivative."""
    return _assemble(entry, params, n).value(x)


def normalize(samples: np.ndarray, grid: Grid):
    """Scale sampled psi so the Simpson integral of |psi|^2 is 1.

    The samples are squared after an exact power-of-two scaling that brings
    max |psi| into [1/2, 1), so the norm neither overflows nor underflows."""
    samples = np.asarray(samples, dtype=float)
    peak = float(np.max(np.abs(samples)))
    if not 0.0 < peak < math.inf:
        raise ZeroNorm(f"peak |psi| = {peak} cannot be normalized")
    pow2 = math.ldexp(1.0, -math.frexp(peak)[1])
    const = pow2 / math.sqrt(quadrature((pow2 * samples) ** 2, grid))
    return const, const * samples


def normalized_state(entry: CatalogEntry, params: dict, n: int, grid: Grid) -> np.ndarray:
    """The nth closed-form state on ``grid``, normalized. It is sampled strictly
    inside the truncation; the Dirichlet endpoints carry zeros (the base
    function phi may blow up exactly there)."""
    x = grid.nodes()
    psi = np.asarray(excited_state_eval(entry, params, n, x[1:-1]), dtype=float)
    return normalize(np.concatenate([[0.0], psi, [0.0]]), grid)[1]


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityVerdict:
    square_integrable: bool
    hermiticity_ok: bool
    evidence: dict = field(default_factory=dict, compare=False)

    @property
    def admissible(self) -> bool:
        return self.square_integrable and self.hermiticity_ok


def _endpoint_probes(entry: CatalogEntry, side: str):
    dom = entry.domain
    if side == "left":
        end, sign = dom.x1, +1.0
    else:
        end, sign = dom.x2, -1.0
    if math.isfinite(end):
        scale = dom.length if dom.bounded else 1.0
        s0 = 0.1 * scale
        return end + sign * s0 * 2.0 ** -np.arange(0, 21), True
    kmax = int(math.floor(math.log2(entry.probe_bound))) if entry.probe_bound > 1 else 0
    xs = (2.0 ** np.arange(0, kmax + 1)) * (-sign)
    return xs, False


def _f_plateaus(fvals: np.ndarray) -> bool:
    tail = fvals[-3:]
    return bool(
        np.all(np.isfinite(tail))
        and np.min(tail) > 0.0
        and np.max(tail) / np.min(tail) < 1.0 + 1e-3
        and np.max(tail) < 1e6
    )


def _hermiticity_endpoint(assembled: _Assembled, entry: CatalogEntry, side: str):
    xs, _finite = _endpoint_probes(entry, side)
    f = np.asarray(assembled.problem.df.f(xs), dtype=float)
    if _f_plateaus(f):
        return True, {"side": side, "auto": True, "f_limit": float(f[-1])}
    u = 2.0 * assembled.log_abs(xs) + np.log(f)
    u = np.asarray(u, dtype=float)
    finite = np.isfinite(u)
    if not np.any(finite):
        return True, {"side": side, "auto": False, "note": "psi underflows to zero"}
    u = u[finite]
    ev = {"side": side, "auto": False, "u_first": float(u[0]), "u_last": float(u[-1])}
    if u[-1] - u[0] <= _LN_EPS:
        ev["decayed_below_threshold"] = True
        return True, ev
    if len(u) >= 4:
        slopes = np.diff(u)[-3:] / math.log(2.0)
        ev["tail_slopes_per_doubling"] = [float(s) for s in slopes]
        if np.all(slopes <= -0.02):
            return True, ev
    return False, ev


def _panels(entry: CatalogEntry):
    """Base panel plus a geometric sequence of edge/tail panels per open end.

    Each truncation of the expanding sequence is the base panel joined with the
    first k edge panels on each side, so the panel integrals are exactly the
    truncation increments while every panel keeps its own resolution. Offsets
    from a finite end halve; distances towards an infinite end double."""
    dom = entry.domain
    base, sides = [], []
    for end, sign in ((dom.x1, 1.0), (dom.x2, -1.0)):
        if math.isfinite(end):
            s0, k = (0.1 * dom.length, _EDGE_PANELS) if dom.bounded else (1e-9, 8)
            pts = [end + sign * s0 * 2.0**-j for j in range(k + 1)]
        else:
            L = entry.sq_int_scale
            pts = [-sign * L]
            while L < entry.probe_bound and len(pts) <= _EDGE_PANELS:
                L *= 2.0
                pts.append(-sign * min(L, entry.probe_bound))
        base.append(pts[0])
        sides.append([tuple(sorted(pair)) for pair in zip(pts[1:], pts)])
    return tuple(base), sides


def _classify_side(increments: list, total: float) -> tuple:
    """Final verdict for one side from its full panel-increment sequence.

    Transient growth is tolerated (the |psi|^2 envelope may hump far out before
    its tail sets in), so only the trend at the far end decides."""
    d = np.asarray(increments, dtype=float)
    if len(d) == 0:
        return "converged", {}
    total = max(total, 1e-300)
    last_rel = float(d[-1] / total)
    growing = len(d) >= 2 and d[-2] > 0.0 and d[-1] / d[-2] > 1.0
    if last_rel <= 1e-8 and not growing:
        return "converged", {"last_rel_increment": last_rel}
    if len(d) >= 3 and np.all(d[-3:] > 0.0):
        ratios = d[-2:] / d[-3:-1]
        ev = {"increment_ratios": [float(r) for r in ratios]}
        if np.all(ratios <= 0.9):
            return "converged", ev
        if np.all(ratios >= 1.02):
            return "diverged", ev
    return ("converged" if last_rel < 1e-6 else "diverged"), {"drift": last_rel}


def _exp_decay_certificate(assembled: _Assembled, entry: CatalogEntry, side: str):
    """Endpoint log-slope test: |psi|^2 falling ever faster along geometric
    points certifies exponential decay (always integrable), which the panel
    ratios cannot resolve for rates below ~ln(2)/probe_bound."""
    xs, finite_end = _endpoint_probes(entry, side)
    if finite_end:
        return False, {}
    u = 2.0 * np.asarray(assembled.log_abs(xs), dtype=float)
    u = u[np.isfinite(u)]
    if len(u) < 4:
        return False, {}
    diffs = np.diff(u)
    ev = {"log_slope_diffs": [float(d) for d in diffs[-4:]]}
    ok = (
        diffs[-1] <= -0.1
        and diffs[-1] < diffs[-2] - 0.02
        and diffs[-2] < diffs[-3] - 0.02
    )
    return bool(ok), ev


def _panel_integrals(assembled: _Assembled, panels: list) -> tuple:
    """(log_ref, integrals): Simpson integrals of |psi|^2 / e^(2 log_ref) over
    each panel on 513 nodes, from one ``log_abs`` evaluation of all panels.
    log_ref is the peak of log |psi| on the first panel; a panel where |psi|^2
    exceeds e^700 times the reference integrates to inf."""
    a, b = np.array(panels).T
    nodes = np.linspace(a, b, _PANEL_NODES, axis=1)
    lg = assembled.log_abs(nodes.ravel()).reshape(nodes.shape)
    ref = float(np.max(lg[0]))
    lg = lg - ref
    over = np.any(lg > 350.0, axis=1)
    y = np.exp(2.0 * np.where(over[:, None], -math.inf, lg))
    w = _simpson_weights(_PANEL_NODES, ((b - a) / (_PANEL_NODES - 1))[:, None])
    return ref, np.where(over, math.inf, (w * y).sum(axis=1)).tolist()


def _square_integrable(assembled: _Assembled, entry: CatalogEntry):
    base, sides = _panels(entry)
    ref, integrals = _panel_integrals(assembled, [base, *sides[0], *sides[1]])
    ev: dict = {"log_ref": ref}
    total = integrals[0]
    side_info = []
    ok = True
    left = 1 + len(sides[0])
    for side_name, side_incs in zip(("left", "right"), (integrals[1:left], integrals[left:])):
        pre = total
        incs = []
        overflow = False
        for inc in side_incs:
            if math.isinf(inc):
                overflow = True
                break
            incs.append(inc)
            total += inc
            if len(incs) >= 2 and incs[-1] == 0.0 and incs[-2] == 0.0:
                break  # tail numerically dead
            if len(incs) >= 6:
                ratios = np.asarray(incs[-4:], dtype=float)
                ratios = ratios[1:] / np.maximum(ratios[:-1], 1e-300)
                # blatant sustained blow-up that already dwarfs the bulk
                if np.all(ratios >= 1.5) and total - pre > 1e3 * max(pre, 1e-300):
                    break
        if overflow:
            verdict, detail = "diverged", {"overflow": True}
        else:
            verdict, detail = _classify_side(incs, total)
            if verdict == "diverged":
                cert, cert_ev = _exp_decay_certificate(assembled, entry, side_name)
                if cert:
                    verdict = "converged"
                    detail = {**detail, **cert_ev, "exp_decay_certificate": True}
        side_info.append({"verdict": verdict, **detail})
        ok = ok and verdict == "converged"
    ev["sides"] = side_info
    ev["integral_rescaled"] = float(total)
    return ok, ev


def admissibility_check(entry: CatalogEntry, params: dict, n: int) -> AdmissibilityVerdict:
    """Numeric verdicts for level n: quadrature convergence of |psi_n|^2 and the
    |psi_n|^2 f -> 0 boundary probe (endpoints where f tends to a finite positive
    constant pass automatically)."""
    assembled = _assemble(entry, params, n)
    sq, sq_ev = _square_integrable(assembled, entry)
    left_ok, left_ev = _hermiticity_endpoint(assembled, entry, "left")
    right_ok, right_ev = _hermiticity_endpoint(assembled, entry, "right")
    return AdmissibilityVerdict(
        square_integrable=sq,
        hermiticity_ok=bool(left_ok and right_ok),
        evidence={"square": sq_ev, "left": left_ev, "right": right_ev},
    )
