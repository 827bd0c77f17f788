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
from functools import cached_property
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
from .si_engine import ChainProblem, ParameterChain, SuperpotentialClass, solve_chain

_ROUNDING = 64.0 * np.finfo(float).eps  # relative rounding floor of a tail increment


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

class _Points:
    """f, the base function phi and the class variables at fixed points x. Each
    part is evaluated on first use, in the order one level needs them, so errors
    and warnings surface where one level's probe met them; then it serves all levels."""

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

    @cached_property
    def logs(self):
        """(-log(f)/2, log q, |t| <= 1, t there, and 1/t and log |t| elsewhere):
        log |P(t)| is read through 1/t where |t| > 1, so it stays finite."""
        f, (q, t, _) = self.f, self.parts
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = np.atleast_1d(t)
            small = np.abs(t) <= 1.0
            big = t[~small]
            return -0.5 * np.log(f), np.log(q), small, t[small], 1.0 / big, np.log(np.abs(big))

    @cached_property
    def log_f(self) -> list:
        """log f as floats, for the tail test."""
        return (-2.0 * self.logs[0]).tolist()


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
        """log |psi_n(x)|, safe for large arguments (used by the probes)."""
        return self.log_abs_at(_Points(self.problem, x))

    def log_abs_at(self, pts: _Points):
        """log |psi_n| from this level's P_n and F and the shared parts of ``pts``."""
        return _log_abs_rows([self], pts)[0]


def _log_abs_rows(rows: list, pts: _Points) -> list:
    """log |psi_n| at ``pts`` for each assembled level in ``rows``. One Horner
    pass evaluates every P_n at t and one every reversed P_n at 1/t, each row
    padded with zeros to the longest; the padding is exact, so each row has the
    bits of P.polyval on that level alone. F(phi) - F_ref and -n/2 log q stay
    per level, added in the order one level adds them."""
    half_log_f, log_q, small, t_small, t_inv, log_t = pts.logs
    fwd, rev = np.zeros((2, max(len(a.poly) for a in rows), len(rows)))  # column i: level i
    for i, a in enumerate(rows):
        fwd[: len(a.poly), i], rev[: len(a.poly), i] = a.poly, a.poly[::-1]
    degrees = np.array([[len(a.poly) - 1.0] for a in rows])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_P = np.empty((len(rows),) + small.shape)
        log_P[:, small] = np.log(np.abs(P.polyval(t_small, fwd)) + 1e-300)
        log_P[:, ~small] = degrees * log_t + np.log(np.abs(P.polyval(t_inv, rev)) + 1e-300)
        y = pts.parts[2]
        return [
            half_log_f + -0.5 * a.n * log_q + row.reshape(pts.x.shape) - (a.F(y) - a.F_ref)
            for a, row in zip(rows, log_P)
        ]


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


def _endpoint_probes(entry: CatalogEntry, problem: ChainProblem, side: str):
    """(points, whether the end is finite) of one side's endpoint probes: offsets
    from a finite end halve, distances towards an infinite end double."""
    dom = entry.domain
    if side == "left":
        end, sign = dom.x1, +1.0
    else:
        end, sign = dom.x2, -1.0
    if math.isfinite(end):
        scale = dom.length if dom.bounded else 1.0
        s0 = 0.1 * scale
        return _Points(problem, end + sign * s0 * 2.0 ** -np.arange(0, 21)), True
    kmax = int(math.floor(math.log2(entry.probe_bound))) if entry.probe_bound > 1 else 0
    return _Points(problem, (2.0 ** np.arange(0, kmax + 1)) * (-sign)), False


def _exp_decay_certificate(u):
    """Endpoint log-slope test on the finite u = log |psi|^2 towards an infinite
    end: |psi|^2 falling ever faster along the doubling distances certifies
    exponential decay (always integrable) whose rate is still too slow to push
    the last power-law slope below -1. It reads the last five values of u."""
    if len(u) < 4:
        return False, {}
    diffs = [b - a for a, b in zip(u[-5:-1], u[-4:])]
    ok = diffs[-1] <= -0.1 and diffs[-1] < diffs[-2] - 0.02 and diffs[-2] < diffs[-3] - 0.02
    return ok, {"log_slope_diffs": diffs}


def _tail_test(two_log_abs: list, log_f: list, bound: float, finite_end: bool):
    """One end's verdict on u = 2 log |psi| + log f at its endpoint probes: log f
    = 0 and bound -1 for square integrability, log f and bound 0 for the
    Hermiticity condition |psi|^2 f -> 0. The tail exponents are the slopes of u
    per doubling of the offset from a finite end (or of the distance towards an
    infinite end) over the last three finite values; u ~ p log s passes when both
    are > bound as s -> 0, or both < bound as s -> inf. An increment within the
    rounding of u's terms reads as 0, so an exact plateau never passes. A tail
    that underflows to -inf passes; otherwise an infinite end may still pass on
    the exponential-decay certificate."""
    tail = []  # (u, the scale of its terms) at the last five finite values
    for a, b in zip(reversed(two_log_abs), reversed(log_f)):
        if math.isfinite(a + b):
            tail.insert(0, (a + b, max(1.0, abs(a), abs(b))))
            if len(tail) == 5:
                break
    sign, last = (-1.0 if finite_end else 1.0), tail[-3:]
    p = [
        sign * (v1 - v0) / math.log(2.0) if abs(v1 - v0) > _ROUNDING * max(s0, s1) else 0.0
        for (v0, s0), (v1, s1) in zip(last, last[1:])
    ]
    ev = {"tail_exponents": p}
    if two_log_abs[-1] + log_f[-1] == -math.inf:
        return True, {**ev, "underflow": True}
    if len(p) == 2 and all(e > bound if finite_end else e < bound for e in p):
        return True, ev
    if finite_end:
        return False, ev
    cert, cert_ev = _exp_decay_certificate([v for v, _ in tail])
    return cert, {**ev, **cert_ev, "exp_decay_certificate": cert}


def admissibility_checks(table: LevelTable, levels) -> list:
    """Numeric verdicts for each level n in ``levels`` of ``table``, both read
    from log |psi_n| at each end's endpoint probes by one tail test: the tail
    exponents of |psi_n|^2 against -1 for square integrability, and of
    |psi_n|^2 f against 0 for the Hermiticity condition |psi_n|^2 f -> 0. Each
    end's probe points, what psi_n needs there apart from n, and log |psi_n| of
    all levels are evaluated once."""
    rows = table.levels(levels)
    if not rows:
        return []
    ends = {side: _endpoint_probes(table.entry, table.problem, side) for side in ("left", "right")}
    logs = {side: _log_abs_rows(rows, pts) for side, (pts, _) in ends.items()}
    verdicts = []
    for i in range(len(rows)):
        square, herm = {}, {}
        for side, (pts, finite_end) in ends.items():
            two_log_abs = (2.0 * logs[side][i]).tolist()
            square[side] = _tail_test(two_log_abs, [0.0] * len(two_log_abs), -1.0, finite_end)
            herm[side] = _tail_test(two_log_abs, pts.log_f, 0.0, finite_end)
        tests = {"square": square, "hermiticity": herm}
        evidence = {name: {side: ev for side, (_, ev) in checks.items()} for name, checks in tests.items()}
        sq_ok, herm_ok = (all(ok for ok, _ in checks.values()) for checks in tests.values())
        verdicts.append(AdmissibilityVerdict(sq_ok, herm_ok, evidence))
    return verdicts
