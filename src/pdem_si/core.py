"""Foundational types: intervals, grids, deforming functions and ambiguity parameters.

Units are fixed to hbar = 2*m0 = 1 throughout; the position-dependent mass is
M(x) = 1/f(x)^2 with f = 1 + g and g analytic on the open domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


class PdemError(Exception):
    """Base class for all library errors."""


class DomainError(PdemError):
    """Evaluation point lies outside the open domain."""


class NonPositiveError(PdemError):
    """Deforming function (or mass) fails positive definiteness."""


class ParameterError(PdemError):
    """Structural parameter constraint violated (e.g. exponent sum)."""


class RangeError(PdemError):
    """Potential or deformation parameters outside their validity range."""


class NotFound(PdemError):
    """Unknown registry key; message carries the exclusion note if any."""


class SingularPoint(PdemError):
    """Superpotential or its base function blows up at the point."""


class NoRealRoot(PdemError):
    """Coefficient matching has no real solution on the requested branch."""


class DegenerateClass(PdemError):
    """Leading coefficients vanish where the class solve needs them."""


class ChainError(PdemError):
    """Parameter chain undefined at the requested depth."""


class ZeroNorm(PdemError):
    """A wavefunction norm or Gram integral cannot be computed."""


class ConvergenceError(PdemError):
    """An oracle eigenvector misses its residual bound."""


class SingularPotential(PdemError):
    """Potential exceeds the overflow guard at a grid node."""


@dataclass(frozen=True)
class Interval:
    """Open interval (x1, x2); math.inf / -math.inf mark unbounded ends."""

    x1: float
    x2: float

    def __post_init__(self):
        if not self.x1 < self.x2:
            raise ParameterError(f"interval requires x1 < x2, got ({self.x1}, {self.x2})")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.x1) and math.isfinite(self.x2)

    def contains_strictly(self, x: ArrayLike) -> bool:
        return bool(np.all((np.asarray(x) > self.x1) & (np.asarray(x) < self.x2)))

    @property
    def length(self) -> float:
        return self.x2 - self.x1


@dataclass(frozen=True)
class Grid:
    """Uniform grid over a finite (truncated) interval, endpoints included."""

    interval: Interval
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ParameterError("grid needs n_points >= 3")
        if not self.interval.bounded:
            raise ParameterError("grid interval must be finite (truncate first)")

    @property
    def spacing(self) -> float:
        return (self.interval.x2 - self.interval.x1) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.interval.x1, self.interval.x2, self.n_points)

    def midpoints(self) -> np.ndarray:
        x = self.nodes()
        return 0.5 * (x[:-1] + x[1:])


# ---------------------------------------------------------------------------
# Ambiguity parameters
# ---------------------------------------------------------------------------

#: (xi, zeta) for the standard orderings, exponent convention f^xi d f^eta d f^zeta
#: with xi + eta + zeta = 2.
PRESET_EXPONENTS = {
    "bdd": (0.0, 0.0),
    "bastard": (2.0, 0.0),
    "zk": (1.0, 1.0),
    "lk": (0.0, 1.0),
}


@dataclass(frozen=True)
class AmbiguityParams:
    """Kinetic-ordering exponents (xi, zeta) and the derived pair (rho, sigma).

    rho = (1 - xi - zeta)/2 and sigma = (1/2 - xi)(1/2 - zeta) control the
    ordering term V~ = rho*f*f'' + sigma*f'^2.
    """

    xi: float
    zeta: float
    rho: float = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rho", 0.5 * (1.0 - self.xi - self.zeta))
        object.__setattr__(self, "sigma", (0.5 - self.xi) * (0.5 - self.zeta))

    @property
    def eta(self) -> float:
        return 2.0 - self.xi - self.zeta

    @property
    def primed(self) -> tuple:
        """Exponents (xi', eta', zeta') of the mass-power form, summing to -1."""
        return (-self.xi / 2.0, -self.eta / 2.0, -self.zeta / 2.0)

    @classmethod
    def preset(cls, name: str) -> "AmbiguityParams":
        key = name.lower()
        if key not in PRESET_EXPONENTS:
            raise NotFound(f"unknown ambiguity preset {name!r}; choose from {sorted(PRESET_EXPONENTS)}")
        return cls(*PRESET_EXPONENTS[key])

    @classmethod
    def from_primed(cls, xi_p: float, eta_p: float, zeta_p: float) -> "AmbiguityParams":
        if abs(xi_p + eta_p + zeta_p + 1.0) > 1e-12:
            raise ParameterError("primed exponents must sum to -1")
        return cls(-2.0 * xi_p, -2.0 * zeta_p)


# ---------------------------------------------------------------------------
# Deforming functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeformingValues:
    f: ArrayLike
    f_prime: ArrayLike
    f_second: ArrayLike
    g: ArrayLike
    M: ArrayLike


def _family_trig_sin2(p):
    a = p.get("alpha", 0.0)

    def g(x):
        return a * np.sin(x) ** 2

    def g1(x):
        return a * np.sin(2.0 * x)

    def g2(x):
        return 2.0 * a * np.cos(2.0 * x)

    return g, g1, g2


def _family_hyperbolic_sinh2(p):
    a = p.get("alpha", 0.0)
    return (
        lambda x: a * np.sinh(x) ** 2,
        lambda x: a * np.sinh(2.0 * x),
        lambda x: 2.0 * a * np.cosh(2.0 * x),
    )


def _family_linear(p):
    a = p.get("alpha", 0.0)
    return (
        lambda x: a * x,
        lambda x: a * np.ones_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def _family_quadratic(p):
    a = p.get("alpha", 0.0)
    b = p.get("beta", 0.0)
    return (
        lambda x: a * x**2 + 2.0 * b * x,
        lambda x: 2.0 * a * x + 2.0 * b,
        lambda x: 2.0 * a * np.ones_like(np.asarray(x, dtype=float)),
    )


def _family_exp_decay(p):
    a = p.get("alpha", 0.0)
    return (
        lambda x: a * np.exp(-x),
        lambda x: -a * np.exp(-x),
        lambda x: a * np.exp(-x),
    )


def _family_exp_sinh(p):
    # g = alpha * e^{-x} sinh x = alpha (1 - e^{-2x}) / 2.  f is evaluated in the
    # fused form (1 + alpha/2) - (alpha/2) e^{-2x}: at alpha = -2 this is e^{-2x}
    # exactly, where 1 + g would cancel to zero once e^{-2x} drops below epsilon.
    a = p.get("alpha", 0.0)
    return (
        lambda x: 0.5 * a * (1.0 - np.exp(-2.0 * x)),
        lambda x: a * np.exp(-2.0 * x),
        lambda x: -2.0 * a * np.exp(-2.0 * x),
        lambda x: (1.0 + 0.5 * a) - 0.5 * a * np.exp(-2.0 * x),
    )


def _family_trig_sin(p):
    a = p.get("alpha", 0.0)
    return (
        lambda x: a * np.sin(x),
        lambda x: a * np.cos(x),
        lambda x: -a * np.sin(x),
    )


def _family_trig_mix(p):
    # g = sin x (alpha cos x + beta sin x)
    a = p.get("alpha", 0.0)
    b = p.get("beta", 0.0)
    return (
        lambda x: np.sin(x) * (a * np.cos(x) + b * np.sin(x)),
        lambda x: a * np.cos(2.0 * x) + b * np.sin(2.0 * x),
        lambda x: -2.0 * a * np.sin(2.0 * x) + 2.0 * b * np.cos(2.0 * x),
    )


_FAMILIES: dict = {
    "trig_sin2": _family_trig_sin2,
    "hyperbolic_sinh2": _family_hyperbolic_sinh2,
    "linear": _family_linear,
    "quadratic": _family_quadratic,
    "exp_decay": _family_exp_decay,
    "exp_sinh": _family_exp_sinh,
    "trig_sin": _family_trig_sin,
    "trig_mix": _family_trig_mix,
}


@dataclass(frozen=True)
class DeformingFunction:
    """f(x) = 1 + g(x) with analytic hand-coded derivatives, M = 1/f^2.

    All catalog families are entire, so f is defined at every finite x;
    positivity is checked at evaluation, never assumed.
    """

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise NotFound(f"unknown deforming family {self.family!r}")

    def _g_funcs(self):
        return _FAMILIES[self.family](self.params)

    def _f_unchecked(self, xa: np.ndarray) -> np.ndarray:
        funcs = self._g_funcs()
        return funcs[3](xa) if len(funcs) > 3 else 1.0 + funcs[0](xa)

    def _f_checked(self, x: ArrayLike) -> np.ndarray:
        xa = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(xa)):
            raise DomainError(f"x={x} is not finite")
        f = self._f_unchecked(xa)
        if np.any(f <= 0.0) or np.any(~np.isfinite(f)):
            bad, i = np.ravel(f), int(np.argmax(~np.isfinite(f)))
            if not np.isfinite(bad[i]):  # an overflow or a NaN: name it and its x, not the smallest f
                raise NonPositiveError(f"f(x) = {bad[i]} is not finite at x = {np.ravel(xa)[i]}")
            raise NonPositiveError(f"f(x) <= 0 encountered (min f = {np.min(bad)}, near index {int(np.argmin(bad))})")
        return f

    def _slopes(self, x: ArrayLike) -> tuple:
        """(f', f'') at x, as numpy values; x is checked where f is evaluated."""
        xa = np.asarray(x, dtype=float)
        g1, g2 = self._g_funcs()[1:3]
        return g1(xa), g2(xa)

    def f(self, x: ArrayLike) -> ArrayLike:
        """f at finite x (scalar or array), without the derivatives that
        ``deforming_eval`` also computes."""
        f = self._f_checked(x)
        return float(f) if np.ndim(x) == 0 else f


def deforming_eval(df: DeformingFunction, x: ArrayLike) -> DeformingValues:
    """Evaluate f, f', f'', g and M at finite x (scalar or array)."""
    f = df._f_checked(x)
    f_prime, f_second = df._slopes(x)
    g = df._g_funcs()[0](np.asarray(x, dtype=float))
    vals = DeformingValues(f=f, f_prime=f_prime, f_second=f_second, g=g, M=1.0 / f**2)
    if np.ndim(x) == 0:
        return DeformingValues(*(float(v) for v in (vals.f, vals.f_prime, vals.f_second, vals.g, vals.M)))
    return vals


@dataclass(frozen=True)
class PositivityReport:
    ok: bool
    min_f: float
    x_at_min: float
    first_violation_x: float | None = None
    first_violation_f: float | None = None


def positivity_check(df: DeformingFunction, grid: Grid) -> PositivityReport:
    """Sample f on every grid node; ok iff min sampled f > 0.

    A violation is reported as a value, not raised.
    """
    x = grid.nodes()
    f = df._f_unchecked(x)
    imin = int(np.argmin(f))
    if f[imin] > 0.0:
        return PositivityReport(ok=True, min_f=float(f[imin]), x_at_min=float(x[imin]))
    first = int(np.argmax(f <= 0.0))
    return PositivityReport(
        ok=False,
        min_f=float(f[imin]),
        x_at_min=float(x[imin]),
        first_violation_x=float(x[first]),
        first_violation_f=float(f[first]),
    )


