"""Deformed shape-invariance machinery: superpotential classes and parameter chains.

A superpotential class fixes a base function phi and the algebraic form of W.
Both W^2 - f W' and W^2 + f W' expand in a fixed 3-term basis with closed-form
coefficients, so the one matching condition

    W(l_{i+1})^2 - f W'(l_{i+1}) + eps_{i+1} = target,

with target V_eff at level 0 and the partner W(li)^2 + f W'(li) after it,
reduces to exact coefficient equations solved here, never to numerical fits.
Class 0 (W = lambda*phi) is subsumed into class 1 with mu = B = B' = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import (
    ChainError,
    DeformingFunction,
    DegenerateClass,
    NoRealRoot,
    SingularPoint,
)

# phi(x) and its analytic derivative; the derivative is evaluated at x directly
# (never through the polynomial relation in y, which cancels catastrophically
# where phi approaches +-1 or blows up).
_PHI = {
    "tan": (np.tan, lambda x: 1.0 / np.cos(x) ** 2),
    "tanh": (np.tanh, lambda x: 1.0 / np.cosh(x) ** 2),
    "cot": (lambda x: 1.0 / np.tan(x), lambda x: -1.0 / np.sin(x) ** 2),
    "coth": (lambda x: 1.0 / np.tanh(x), lambda x: -1.0 / np.sinh(x) ** 2),
    "x": (lambda x: np.asarray(x, dtype=float), lambda x: np.ones_like(np.asarray(x, dtype=float))),
    "inv_x": (lambda x: 1.0 / np.asarray(x, dtype=float), lambda x: -1.0 / np.asarray(x, dtype=float) ** 2),
    "exp_neg": (lambda x: np.exp(-np.asarray(x, dtype=float)), lambda x: -np.exp(-np.asarray(x, dtype=float))),
    "sin": (np.sin, np.cos),
}

_PHI_BLOWUP = 1e12


@dataclass(frozen=True)
class SuperpotentialClass:
    """One of the three solvable superpotential forms.

    class1: W = lam*phi + mu,           phi' = A phi^2 + B phi + C
    class2: W = lam*phi + mu/phi,       phi' = A phi^2 + B
    class3: W = (lam*phi + mu)/sqrt(A phi^2 + B),
                                        phi' = (C phi + D) sqrt(A phi^2 + B)

    ``consts`` holds (A, B, C[, D]); ``primed`` the deformation constants
    (A', B', C'[, D']) already evaluated at the deformation parameters.
    """

    class_id: str
    phi: str
    consts: tuple
    primed: tuple
    class0: bool = False  # enforce mu = 0 (requires B = B' = 0)

    def __post_init__(self):
        if self.class_id not in ("class1", "class2", "class3"):
            raise DegenerateClass(f"unknown class id {self.class_id!r}")
        if self.phi not in _PHI:
            raise SingularPoint(f"unknown base function {self.phi!r}")
        if self.class_id == "class3":
            A, B, C, D = self.consts
            if A == 0.0 or B == 0.0:
                raise DegenerateClass("class3 requires A, B != 0")

    # -- barred constants: coefficients of f*phi' -------------------------
    @property
    def barred(self) -> tuple:
        return tuple(c + p for c, p in zip(self.consts, self.primed))

    def phi_val(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return _PHI[self.phi][0](x)

    def phi_prime_at(self, x):
        """Analytic phi'(x); agrees with the class relation by construction."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return _PHI[self.phi][1](x)

    def phi_prime(self, y):
        """phi' through the class relation in y (algebraic checks only)."""
        if self.class_id == "class1":
            A, B, C = self.consts
            return A * y**2 + B * y + C
        if self.class_id == "class2":
            A, B = self.consts
            return A * y**2 + B
        A, B, C, D = self.consts
        return (C * y + D) * np.sqrt(A * y**2 + B)

    def g_reconstructed(self, x):
        """g from the class formula (numerator of primed over phi'), for cross-checks."""
        y = self.phi_val(x)
        if self.class_id == "class1":
            A, B, C = self.consts
            Ap, Bp, Cp = self.primed
            return (Ap * y**2 + Bp * y + Cp) / (A * y**2 + B * y + C)
        if self.class_id == "class2":
            A, B = self.consts
            Ap, Bp = self.primed
            return (Ap * y**2 + Bp) / (A * y**2 + B)
        A, B, C, D = self.consts
        Cp, Dp = self.primed[2], self.primed[3]
        return (Cp * y + Dp) / (C * y + D)

    # -- basis coefficients of W^2 + f W' ---------------------------------
    # class1 basis {phi^2, phi, 1}; class2 {phi^2, phi^-2, 1};
    # class3: numerator {phi^2, phi, 1} over the common denominator A phi^2 + B.
    def plus_coeffs(self, lam: float, mu: float) -> tuple:
        if self.class_id == "class1":
            Ab, Bb, Cb = self.barred
            return (lam * lam + Ab * lam, 2 * lam * mu + Bb * lam, mu * mu + Cb * lam)
        if self.class_id == "class2":
            Ab, Bb = self.barred
            return (lam * lam + Ab * lam, mu * mu - Bb * mu, 2 * lam * mu + Bb * lam - Ab * mu)
        A, B = self.consts[0], self.consts[1]
        Cb, Db = self.barred[2], self.barred[3]
        return (lam * lam - A * Cb * mu, 2 * lam * mu + B * Cb * lam - A * Db * mu, mu * mu + B * Db * lam)


@dataclass(frozen=True)
class WValues:
    W: float
    W_prime: float


def w_eval(sp: SuperpotentialClass, lam: float, mu: float, x) -> WValues:
    """Superpotential and its derivative at x via the analytic phi' relation."""
    y = sp.phi_val(x)
    if np.any(~np.isfinite(np.asarray(y))) or np.any(np.abs(np.asarray(y)) > _PHI_BLOWUP):
        raise SingularPoint(f"phi({x}) blows up")
    dphi = sp.phi_prime_at(x)
    if sp.class_id == "class1":
        return WValues(lam * y + mu, lam * dphi)
    if sp.class_id == "class2":
        if np.any(np.asarray(y) == 0.0):
            raise SingularPoint("class2 superpotential singular at phi = 0")
        return WValues(lam * y + mu / y, (lam - mu / y**2) * dphi)
    A, B, C, D = sp.consts
    if sp.phi == "sin" and A == -1.0 and B == 1.0:
        rad = np.cos(x) ** 2  # avoids the 1 - sin^2 cancellation near the walls
    else:
        rad = A * y**2 + B
    if np.any(np.asarray(rad) <= 0.0):
        raise SingularPoint("class3 radicand A phi^2 + B not positive")
    W = (lam * y + mu) / np.sqrt(rad)
    Wp = (lam * B - mu * A * y) * (C * y + D) / rad
    return WValues(W, Wp)


@dataclass(frozen=True)
class ChainProblem:
    """Inputs of the coefficient-matching solve for one catalog entry + params."""

    sp: SuperpotentialClass
    v_coeffs: tuple  # target coefficients of V_eff in the class basis
    df: DeformingFunction
    v_eff: Callable
    lam_branch: float = 1.0  # sign of the square root picked for lambda_0 (class3: s_0)


@dataclass(frozen=True)
class ParameterChain:
    """Solved (lambda_i, mu_i, eps_i) sequence; E_n are exact partial sums."""

    lambda_seq: tuple
    mu_seq: tuple
    eps_seq: tuple

    @property
    def depth(self) -> int:
        return len(self.lambda_seq) - 1

    @cached_property
    def energies(self) -> tuple:
        out, tot = [], 0.0
        for e in self.eps_seq:
            tot += e
            out.append(tot)
        return tuple(out)

    def energy(self, n: int) -> float:
        if n < 0 or n > self.depth:
            raise ChainError(f"chain solved to depth {self.depth}, level {n} requested")
        return self.energies[n]


def _solve_quadratic_branch(coef_lin: float, target: float, branch: float, what: str) -> float:
    # t^2 - coef_lin * t = target, branch picks the root (coef_lin +- sqrt)/2
    disc = coef_lin * coef_lin + 4.0 * target
    if disc < 0.0:
        raise NoRealRoot(f"no real {what}: discriminant {disc} < 0")
    return 0.5 * (coef_lin + branch * math.sqrt(disc))


def _match(sp: SuperpotentialClass, barred: tuple, target: tuple, lam_branch: float = 1.0, prev=None) -> tuple:
    """(lambda, mu, eps) with W(lambda, mu)^2 - f W' + eps equal to ``target``.

    Every free unknown t obeys t^2 - c t = b: lambda (class2 also mu), or
    s = lambda + mu and d = lambda - mu for class3. At level 0 (``prev`` None)
    t is a root of that quadratic, the ``lam_branch`` one for lambda and s and
    the + one for mu and d. Matching the partner of ``prev`` = (lambda_i, mu_i)
    takes the shape-invariant root t_i + c, never a fresh square root.
    """
    t2, t1, t0 = target
    if sp.class_id == "class3":
        Cb, Db = barred[2], barred[3]
        if prev is None:
            A, B, C, _ = sp.consts
            if not (A == -1.0 and B == 1.0 and C == 0.0):
                raise DegenerateClass("class3 coefficient matching needs phi' = D*sqrt(1 - phi^2)")
            # s^2 - (Cb + Db) s = t0 + t1 + t2,  d^2 - (Db - Cb) d = t0 + t2 - t1
            s = _solve_quadratic_branch(Cb + Db, t0 + t1 + t2, lam_branch, "s = lambda + mu")
            d = _solve_quadratic_branch(Db - Cb, t0 + t2 - t1, 1.0, "d = lambda - mu")
        else:
            s = (prev[0] + prev[1]) + (Cb + Db)
            d = (prev[0] - prev[1]) + (Db - Cb)
        lam, mu = 0.5 * (s + d), 0.5 * (s - d)
        eps = t0 - mu * mu + Db * lam
        resid = (lam * lam - Cb * mu - eps) - t2
        if abs(resid) > 1e-9 * max(1.0, abs(t2), abs(eps)):
            raise DegenerateClass(f"class3 matching inconsistent (residual {resid})")
        return lam, mu, eps
    Ab, Bb = barred[0], barred[1]
    lam = _solve_quadratic_branch(Ab, t2, lam_branch, "lambda") if prev is None else prev[0] + Ab
    if sp.class_id == "class2":
        mu = _solve_quadratic_branch(-Bb, t1, 1.0, "mu") if prev is None else prev[1] - Bb
        return lam, mu, t0 - (2.0 * lam * mu - Bb * lam + Ab * mu)
    if sp.class0:
        if prev is None and (Bb != 0.0 or abs(t1) > 1e-12):
            raise DegenerateClass("class0 requires B = B' = 0 and no linear term")
        mu = 0.0
    elif lam == 0.0:
        raise DegenerateClass("lambda = 0 leaves mu undetermined")
    else:
        mu = (t1 + Bb * lam) / (2.0 * lam)
    return lam, mu, t0 - mu * mu + barred[2] * lam


def solve_chain(problem: ChainProblem, depth: int) -> ParameterChain:
    """Match V_eff at level 0, then the partner of each level to ``depth``."""
    if depth < 0:
        raise ChainError("depth must be >= 0")
    sp = problem.sp
    barred = sp.barred
    lam, mu, eps = _match(sp, barred, problem.v_coeffs, problem.lam_branch)
    lams, mus, epss = [lam], [mu], [eps]
    for _ in range(depth):
        lam, mu, eps = _match(sp, barred, sp.plus_coeffs(lam, mu), prev=(lam, mu))
        lams.append(lam)
        mus.append(mu)
        epss.append(eps)
    return ParameterChain(tuple(lams), tuple(mus), tuple(epss))


def chain_residuals(problem: ChainProblem, chain: ParameterChain, depth: int, x) -> tuple:
    """(max |r1|, max |r2| over i <= depth, scale) of the two matching conditions at x.

    r1 is the first condition (level 0); r2 at index i couples levels i and
    i+1, so the chain must be solved to depth >= depth + 1. ``scale`` is the
    largest term magnitude |W^2| + |f W'| entering the residuals, the natural
    yardstick once potential parameters grow large.
    """
    if depth < 0 or depth + 1 > chain.depth:
        raise ChainError(f"residuals up to i={depth} need chain depth >= {depth + 1}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    f = np.asarray(problem.df.f(xs), dtype=float)
    v = np.asarray(problem.v_eff(xs), dtype=float)
    # one row per chain level 0..depth+1, one column per point
    lam, mu = (np.asarray(seq[: depth + 2])[:, None] for seq in (chain.lambda_seq, chain.mu_seq))
    w = w_eval(problem.sp, lam, mu, xs)
    w2, fw = w.W**2, f * w.W_prime
    r1 = w2[0] - fw[0] + chain.eps_seq[0] - v
    r2 = w2[:-1] + fw[:-1] - w2[1:] + fw[1:] - np.asarray(chain.eps_seq[1 : depth + 2])[:, None]
    scale = float(np.max(np.abs(w2) + np.abs(fw)))
    return float(np.max(np.abs(r1))), float(np.max(np.abs(r2))), scale


def partner_potential(problem: ChainProblem, chain: ParameterChain, x) -> float:
    """First deformed partner potential V_eff(x) + 2 f(x) W'(lambda_0; x)."""
    f = problem.df.f(x)
    w0 = w_eval(problem.sp, chain.lambda_seq[0], chain.mu_seq[0], x)
    return float(np.asarray(problem.v_eff(x)) + 2.0 * f * w0.W_prime)
