"""Bound-state wavefunctions: closed-form ground states, polynomial excited
states via the descending parameter chain, quadrature normalization, and the
two admissibility conditions (square integrability and the boundary condition
|psi|^2 f -> 0 required for Hermiticity of the deformed momentum), both read
in closed form from the exponents of psi_n at the ends of the domain.

The integral of W/f is carried out in the polynomial variable with closed
antiderivatives (log / arctan / rational forms depending on the class and the
discriminant), so wavefunction values never rely on numerical integration.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
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
from .oracle import quadrature
from .si_engine import _PHI_BLOWUP, ChainProblem, ParameterChain, SuperpotentialClass, solve_chain

_ROUNDING = 64.0 * np.finfo(float).eps  # relative rounding floor of a sum of terms


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
    if c[-1] != 0:
        return c
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if len(nz) else c[:1]


# products and sums of trimmed inputs, trimmed as polymul and polyadd trim them
def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _trim(np.convolve(a, b))


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) > len(b):
        a, b = b, a
    out = b.copy()
    out[: len(a)] += a
    return _trim(out)


def _descend(sp: SuperpotentialClass, chain: ParameterChain, n: int):
    """Build P_n at chain offset 0 from the seed P_0 = 1 at offset n."""
    lam, mu = chain.lambda_seq, chain.mu_seq
    orders = np.arange(1.0, n + 1.0)  # d/dy of the monomials y^1 .. y^n
    if sp.class_id == "class1":
        ab, bb, cb = sp.barred
        kernel = _trim(np.array([cb, bb, ab], dtype=float))
    elif sp.class_id == "class2":
        ab, bb = sp.barred
        kernel = _trim(np.array([0.0, 2.0 * ab, 2.0 * bb]))
    else:
        A = sp.consts[0]
        cb, db = sp.barred[2], sp.barred[3]
        kernel, shift = _trim(np.array([sp.consts[1], 0.0, A], dtype=float)), np.array([0.0, 1.0])
        outer = _trim(np.array([db, cb], dtype=float))
    poly = np.array([1.0])
    cancels = []
    for m in range(n):
        j = n - m - 1  # producing subscript m+1 at chain offset j
        dpoly = poly[:1] * 0 if len(poly) == 1 else orders[: len(poly) - 1] * poly[1:]
        lam_sum = lam[n] + lam[j]
        mu_sum = mu[n] + mu[j]
        if sp.class_id == "class1":
            poly = _add(-_mul(kernel, dpoly), _mul(_trim(np.array([mu_sum, lam_sum])), poly))
        elif sp.class_id == "class2":
            poly = _add(_mul(kernel, dpoly), _mul(_trim(np.array([lam_sum - m * ab, mu_sum - m * bb])), poly))
        else:
            t1 = -_mul(kernel, dpoly)
            t2 = _trim(m * A * _mul(shift, poly))
            bracket = _add(t1, t2)
            scale = max(np.max(np.abs(t1)), np.max(np.abs(t2)), 1e-300)
            top = bracket[m + 1] if len(bracket) > m + 1 else 0.0
            cancels.append((float(abs(top)), float(scale)))
            bracket = _trim(bracket[: m + 1])  # the (m+1)-degree term vanishes identically
            poly = _add(_mul(outer, bracket), _mul(_trim(np.array([mu_sum, lam_sum])), poly))
    return poly, tuple(cancels)


def polynomial_chain(table: LevelTable, n: int) -> DeformedPolynomial:
    """P_n at chain offset 0 by the descending construction, on the chain of ``table``."""
    if n < 0:
        raise ChainError("polynomial index must be >= 0")
    sp = table.problem.sp
    coeffs, cancels = _descend(sp, table.chain_to(n), n)
    return DeformedPolynomial(
        coeffs=tuple(float(c) for c in coeffs),
        degree=len(coeffs) - 1,
        class_id=sp.class_id,
        cancellations=cancels,
    )


# ---------------------------------------------------------------------------
# wavefunction assembly
# ---------------------------------------------------------------------------

class _Points:
    """f, the base function phi and the class variables at fixed points x. Each
    part is evaluated on first use, in the order one level needs them, so errors
    and warnings surface where one level meets them; then it serves all levels."""

    def __init__(self, problem: ChainProblem, x):
        self.problem, self.x = problem, np.asarray(x, dtype=float)

    @cached_property
    def f(self):
        return self.problem.df.f(self.x)

    @cached_property
    def f_inv_sqrt(self):
        """f^(-1/2), the factor every level's value carries."""
        return self.f**-0.5

    @cached_property
    def parts(self):
        """(q, t, y): the class prefactor is q^(-n/2), the deformed polynomial
        is evaluated at t, and y is the base function phi(x)."""
        sp = self.problem.sp
        y = sp.phi_val(self.x)
        if np.any(~np.isfinite(np.asarray(y))):
            raise SingularPoint("base function phi blows up at an evaluation point")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if sp.class_id == "class2":
                q = t = y ** (-2.0)
            elif sp.class_id == "class3":
                q, t = sp.consts[0] * y**2 + sp.consts[1], y
            else:
                q, t = 1.0, y
        return q, t, y


@dataclass(frozen=True)
class _Assembled:
    problem: ChainProblem
    chain: ParameterChain
    n: int
    poly: np.ndarray
    F: Callable
    F_ref: float

    def value(self, x):
        out = self.value_at(_Points(self.problem, x))
        return float(out) if np.ndim(x) == 0 else out

    def value_at(self, pts: _Points):
        f_inv_sqrt, (q, t, y) = pts.f_inv_sqrt, pts.parts
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return f_inv_sqrt * q ** (-0.5 * self.n) * P.polyval(t, self.poly) * np.exp(-(self.F(y) - self.F_ref))

    def log_abs(self, x):
        """log |psi_n(x)|, safe for large arguments (used by the truncation test)."""
        return self.sign_log_at(_Points(self.problem, x))[1]

    def sign_log_at(self, pts: _Points) -> tuple:
        """(sign psi_n, log |psi_n|) at ``pts`` in one pass. Every factor but
        P_n(t) is positive, so the sign is P_n's. P_n is read through 1/t where
        |t| > 1, so the log stays finite for large arguments."""
        f, (q, t, y) = pts.f, pts.parts
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dF = self.F(y) - self.F_ref
            t = np.atleast_1d(t)
            small = np.abs(t) <= 1.0
            big = t[~small]
            degree = len(self.poly) - 1
            p_small, p_big = P.polyval(t[small], self.poly), P.polyval(1.0 / big, self.poly[::-1])
            sign, log_P = np.empty(small.shape), np.empty(small.shape)
            sign[small], sign[~small] = np.sign(p_small), np.sign(p_big) * np.sign(big) ** degree
            log_P[small] = np.log(np.abs(p_small) + 1e-300)
            log_P[~small] = degree * np.log(np.abs(big)) + np.log(np.abs(p_big) + 1e-300)
            log = -0.5 * np.log(f) + -0.5 * self.n * np.log(q) + log_P.reshape(pts.x.shape) - dF
            return sign.reshape(pts.x.shape), log


class LevelTable:
    """The levels of one request at one parameter point, shared by its checks:
    the chain is solved once, to the deepest level asked for, and each level is
    assembled on first use. ``solve_chain`` is sequential, so a level has the
    same bits whatever the depth."""

    def __init__(self, entry: CatalogEntry, params: dict):
        self.entry, self.params = entry, params
        self.problem = entry.chain_problem(params)
        self.chain = None
        self._levels: dict = {}

    def chain_to(self, depth: int) -> ParameterChain:
        """The chain, solved again only when ``depth`` is deeper than it reaches."""
        if self.chain is None or self.chain.depth < depth:
            self.chain = solve_chain(self.problem, depth)
        return self.chain

    def __getitem__(self, n: int) -> _Assembled:
        if n not in self._levels:
            chain, sp = self.chain_to(n), self.problem.sp
            poly = _descend(sp, chain, n)[0]
            F = _antideriv(sp, chain.lambda_seq[n], chain.mu_seq[n])
            self._levels[n] = _Assembled(self.problem, chain, n, poly, F, float(F(sp.phi_val(self.entry.x_ref))))
        return self._levels[n]

    def levels(self, ns) -> list:
        """The assembled levels ``ns``, the chain first solved to the deepest."""
        ns = list(ns)
        if ns:
            self.chain_to(max(ns))
        return [self[n] for n in ns]


def excited_state_eval(entry: CatalogEntry, params: dict, n: int, x):
    """Unnormalized nth bound-state wavefunction; n = 0 is the ground state
    f^{-1/2} exp(-int W/f) via the class antiderivative."""
    return LevelTable(entry, params)[n].value(x)


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


def normalized_states(table: LevelTable, ns, grid: Grid) -> list:
    """The closed-form states ``ns`` of ``table`` on ``grid``, each normalized.
    They are sampled strictly inside the truncation, on one set of points; the
    Dirichlet endpoints carry zeros (the base function phi may blow up exactly
    there)."""
    pts = _Points(table.problem, grid.nodes()[1:-1])
    return [normalize(np.concatenate([[0.0], a.value_at(pts), [0.0]]), grid)[1] for a in table.levels(ns)]


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


def _is_zero(terms):
    """Whether a sum is zero to _ROUNDING over the magnitudes of its terms, both
    sums reduced left to right; terms that are arrays give one answer per element."""
    return abs(reduce(operator.add, terms)) <= _ROUNDING * reduce(operator.add, map(abs, terms))


def _local(c, y0: float, sign: float) -> tuple:
    """(k, a) with c(y) ~ a s^k as s -> 0+, for the ascending coefficients c
    and y = y0 + sign s, or y = sign / s where y0 is infinite. A root at y0 is
    a value that is zero to _ROUNDING over its terms. Python floats throughout:
    trimmed as _trim trims, and a is P.polyval's Horner sum."""
    c = [float(v) for v in c]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    if math.isinf(y0):
        return 1 - len(c), c[-1] * sign ** (len(c) - 1)
    k = 0
    while len(c) > 1 and _is_zero([v * y0**i for i, v in enumerate(c)]):
        for i in range(len(c) - 2, -1, -1):  # divide by y - y0
            c[i] += y0 * c[i + 1]
        c, k = c[1:], k + 1
    a = reduce(lambda a, v: v + a * y0, reversed(c[:-1]), c[-1] + y0 * 0)  # Horner
    return k, a * sign**k


def _descent_orders(factor: Callable, levels) -> dict:
    """P_n's order k at a finite root of the descent's kernel, for each n in
    ``levels``. Descent step m of level n, producing subscript m+1 at chain
    offset j = n - m - 1, multiplies the leading local coefficient by the sum
    of the terms ``factor(n, m, j, k)``, linear in k; a factor that is zero to
    _ROUNDING over its terms raises k by one. Every step of every level is tested in one
    pass with k = 0; a row with a zero factor is tested again past it, with
    its k one higher."""
    orders = dict.fromkeys(levels, 0)
    ns = np.array(sorted(n for n in orders if n > 0), dtype=int)
    if not ns.size:
        return orders
    m = np.arange(ns[-1])
    k, start, rows = np.zeros(len(ns), dtype=int), np.zeros(len(ns), dtype=int), np.arange(len(ns))
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats would
        while rows.size:
            n = ns[rows, None]
            zero = _is_zero(factor(n, m, np.maximum(n - m - 1, 0), k[rows, None]))
            zero &= (m >= start[rows, None]) & (m < n)
            hit = zero.any(axis=1)
            rows = rows[hit]
            k[rows] += 1
            start[rows] = zero.argmax(axis=1)[hit] + 1
    orders.update(zip(ns.tolist(), k.tolist()))
    return orders


def _end_verdicts(sp: SuperpotentialClass, barred: tuple, chain: ParameterChain, levels, y0: float, sign: float) -> list:
    """(square integrable, Hermiticity, evidence) of each level n in ``levels``
    at one end. With s the offset from y0 = lim phi (1/|y| at infinity),
    |psi_n|^2 f = q^-n P_n(t)^2 e^(-2F) ~ s^h: the Hermiticity condition holds
    iff h > 0, and |psi_n|^2 dx ~ s^(h - ord(f phi')) ds (one more s^-2 at
    infinity) is integrable iff that exponent is > -1. F' = N/Q gives
    F ~ r log s at a simple pole; a higher pole gives an exponential factor
    whose sign decides both. The orders of q, t and f phi' and the residue's
    denominator are read once; per level come N's local term and P_n's order."""
    lam, mu = np.asarray(chain.lambda_seq), np.asarray(chain.mu_seq)

    def order(c, at=y0):
        return _local(c, at, sign)[0]

    if sp.class_id == "class1":  # q = 1, t = y, f phi' = Q, the descent's kernel
        ab, bb, cb = barred
        den = kernel = (cb, bb, ab)
        q_order, f_phi_order, t0, t_order = 0, order(den), y0, 1

        def factor(n, m, j, k):  # from -Q P' + (mu_sum + lam_sum t) P
            return [mu[n], mu[j], lam[n] * t0, lam[j] * t0, -k * bb, -2.0 * k * ab * t0]

    elif sp.class_id == "class2":  # q = t = y^-2, f phi' = Q / y
        ab, bb = barred
        den, kernel = (0.0, bb, 0.0, ab), (0.0, ab, bb)
        y_order = order((0.0, 1.0))
        q_order, f_phi_order = -2 * y_order, order((bb, 0.0, ab))
        t0 = (math.inf if y_order > 0 else 0.0) if y_order else y0**-2.0
        t_order = 2 * abs(y_order) or 1

        def factor(n, m, j, k):  # from K P' + (lam_sum - m ab + (mu_sum - m bb) t) P, K = 2 t (ab + bb t)
            return [lam[n], lam[j], -m * ab, mu[n] * t0, mu[j] * t0, -m * bb * t0, 2.0 * k * ab, 4.0 * k * bb * t0]

    else:  # q = A y^2 + B, the kernel; t = y, f phi' = (cb y + db) q^(1/2), Q = (cb y + db) q
        A, B = sp.consts[0], sp.consts[1]
        cb, db = barred[2], barred[3]
        kernel = (B, 0.0, A)
        den = np.convolve((db, cb), kernel)
        q_order, t0, t_order = order(kernel), y0, 1
        f_phi_order = order((db, cb)) + 0.5 * q_order

        def factor(n, m, j, k):  # from (db + cb t)(-q P' + m A t P) + (mu_sum + lam_sum t) P
            w = (m - 2 * k) * A * t0
            return [mu[n], mu[j], lam[n] * t0, lam[j] * t0, w * db, w * t0 * cb]

    # P_n(t) ~ u^k in the local variable u of t: k = -n at infinity, from the
    # descent at a root of its kernel, and 0 elsewhere
    on_kernel = not math.isinf(t0) and order(kernel, t0) > 0
    p_orders = _descent_orders(factor, levels) if on_kernel else {}
    kd, ad = _local(den, y0, sign)
    infinite = math.isinf(y0)
    out = []
    for n in levels:
        kn, an = _local((mu[n], 0.0, lam[n]) if sp.class_id == "class2" else (mu[n], lam[n]), y0, sign)
        pole = kd - kn + (2 if infinite else 0)  # dF/ds ~ r s^-pole
        r = an / ad * (-sign if infinite else sign)
        if pole >= 2:
            decays = r < 0.0
            out.append((decays, decays, {"y_star": y0, "exp_decay": decays}))
            continue
        k = -n if math.isinf(t0) else p_orders.get(n, 0)
        terms = {"q": -n * q_order, "P": 2 * t_order * k, "F": -2.0 * r if pole == 1 else 0.0}
        h = float(sum(terms.values()))
        square = h - f_phi_order - (2.0 if infinite else 0.0)
        out.append((square > -1.0, h > 0.0, {"y_star": y0, "herm_exponent": h, "square_exponent": square, "terms": terms}))
    return out


def admissibility_checks(table: LevelTable, levels) -> list:
    """Verdicts for each level n in ``levels`` of ``table``, read in closed form
    from the exponents of |psi_n|^2 f and |psi_n|^2 dx at each end (see
    ``_end_verdicts``): only the chain, solved once to the deepest level, and
    the class constants enter. At each end y* = lim phi(x), infinite past the
    blow-up guard, and the sign of y - y* (of y at infinity) is read inside."""
    levels = list(levels)
    if not levels:
        return []
    entry, sp, chain = table.entry, table.problem.sp, table.chain_to(max(levels))
    barred, y_ref, ends = sp.barred, float(sp.phi_val(entry.x_ref)), []
    for x in (entry.domain.x1, entry.domain.x2):
        y0 = float(sp.phi_val(x))
        y0 = math.copysign(math.inf, y0) if abs(y0) > _PHI_BLOWUP else y0
        sign = math.copysign(1.0, y0 if math.isinf(y0) else y_ref - y0)
        ends.append(_end_verdicts(sp, barred, chain, levels, y0, sign))
    return [
        AdmissibilityVerdict(left[0] and right[0], left[1] and right[1], {"left": left[2], "right": right[2]})
        for left, right in zip(*ends)
    ]
