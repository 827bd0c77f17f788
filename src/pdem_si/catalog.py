"""Registry of the worked deformed potentials with their closed-form data.

Each entry bundles the effective potential, its deforming function, the
superpotential class with branch choices, the published parameter chain and
energy formulas, the unnormalized ground state, the bound-state counting rule
and the default numerical recipes used by the oracle.

Three potentials from the conventional shape-invariant table are registered as
documented exclusions only: Scarf II (no nontrivial parameters keep f positive
definite on the whole real line) and Rosen-Morse II / generalized Poschl-Teller
(square-integrable wavefunctions fail the deformed-momentum Hermiticity
condition, so they do not support any bound state).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DeformingFunction, DomainError, Interval, NotFound, ParameterError, RangeError
from .si_engine import ChainProblem, SuperpotentialClass


@dataclass(frozen=True)
class CountingResult:
    kind: str  # 'finite' | 'infinite' | 'zero'
    count: Optional[int] = None  # number of bound states when finite

    @classmethod
    def finite(cls, k: int) -> "CountingResult":
        return cls("zero", 0) if k <= 0 else cls("finite", k)

    @classmethod
    def infinite(cls) -> "CountingResult":
        return cls("infinite", None)

    @classmethod
    def zero(cls) -> "CountingResult":
        return cls("zero", 0)

    @property
    def n_max(self) -> Optional[int]:
        return None if self.kind != "finite" else self.count - 1

    def levels(self, cap: int) -> int:
        """Number of bound states, capped at ``cap``."""
        return cap if self.kind == "infinite" else min(cap, self.count)

    def __str__(self) -> str:
        return f"finite({self.count})" if self.kind == "finite" else self.kind


@dataclass(frozen=True)
class OracleRecipe:
    x1: float
    x2: float
    n_points: int
    rel_tol: float = 1e-4
    level_cap: int = 4  # levels the recipe is trusted to resolve


@dataclass(frozen=True)
class CatalogEntry:
    """Closed-form data of one deformed potential.

    Every callable field takes the parameter dict first, e.g.
    ``printed_energy(params, n)``, ``ground_state_closed(params, x)`` or
    ``v_tilde_closed(params, rho, sigma, x)`` (None when nothing is printed).

    Unset recipes follow from the domain: a bounded domain is its own oracle
    recipe at 4001 points and its own equivalence interval.
    """

    name: str
    domain: Interval
    deformation_names: tuple
    default_params: dict
    range_text: str
    _validate: Callable
    deforming: Callable
    v_eff: Callable
    v_coeffs: Callable
    sp: Callable
    lam_branch: float
    printed_lambda: Callable
    printed_mu: Callable
    printed_energy: Callable
    ground_state_closed: Callable
    counting: Callable
    v_tilde_closed: Optional[Callable]
    oracle_recipe: Optional[Callable] = None
    equivalence_interval: Optional[Interval] = None
    continuum_edge: Callable = lambda p: math.inf
    energy_discrepancy: Optional[str] = None

    def __post_init__(self):
        if not self.domain.bounded and (self.oracle_recipe is None or self.equivalence_interval is None):
            raise ParameterError(f"{self.name}: an unbounded domain needs an oracle recipe and an equivalence interval")
        if self.oracle_recipe is None:
            recipe = OracleRecipe(self.domain.x1, self.domain.x2, 4001)
            object.__setattr__(self, "oracle_recipe", lambda p: recipe)
        if self.equivalence_interval is None:
            object.__setattr__(self, "equivalence_interval", self.domain)

    @property
    def param_names(self) -> tuple:
        return tuple(self.default_params)

    @property
    def x_ref(self) -> float:
        """Midpoint of a bounded domain, x1 + 1 on a half-line, 0 on the whole line."""
        x1, x2 = self.domain.x1, self.domain.x2
        if self.domain.bounded:
            return 0.5 * (x1 + x2)
        return x1 + 1.0 if math.isfinite(x1) else 0.0

    def validate(self, params: dict) -> None:
        unknown = set(params) - set(self.param_names)
        if unknown:
            raise RangeError(f"{self.name}: unknown parameter(s) {sorted(unknown)}")
        missing = set(self.param_names) - set(params)
        if missing:
            raise RangeError(f"{self.name}: missing parameter(s) {sorted(missing)}")
        nonfinite = sorted(k for k in self.param_names if not math.isfinite(params[k]))
        if nonfinite:
            raise RangeError(f"{self.name}: parameter(s) {nonfinite} must be finite")
        if all(params[k] == 0.0 for k in self.deformation_names):
            raise RangeError(f"{self.name}: deformation parameters all zero (range: {self.range_text})")
        self._validate(params)

    def chain_problem(self, params: dict) -> ChainProblem:
        return ChainProblem(
            sp=self.sp(params),
            v_coeffs=self.v_coeffs(params),
            df=self.deforming(params),
            v_eff=self.v_eff(params),
            lam_branch=self.lam_branch,
        )


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RangeError(msg)


def _levels_below(root: float, below: Callable) -> CountingResult:
    """Count the integers k >= 0 with below(k), a predicate that holds exactly
    for k < root. ``root`` carries rounding error, so the predicate settles the
    integer at the edge: an exact equality is not a level."""
    if not math.isfinite(root):
        raise RangeError(f"bound-state count overflows (estimate {root})")
    k = max(0, math.ceil(root))
    if k > 0 and not below(float(k - 1)):
        k -= 1
    elif below(float(k)):
        k += 1
    return CountingResult.finite(k)


# ---------------------------------------------------------------------------
# box and trigonometric Poschl-Teller (same deforming family, phi = tan x)
# ---------------------------------------------------------------------------

_HALF_PI = math.pi / 2.0


def _tan_sp(alpha: float) -> SuperpotentialClass:
    return SuperpotentialClass("class1", "tan", (1.0, 0.0, 1.0), (alpha, 0.0, 0.0), class0=True)


def _box_trig_vtilde(alpha, rho, sigma, x):
    x = np.asarray(x, dtype=float)
    return (
        -(rho + sigma) * alpha**2 * np.cos(2 * x) ** 2
        + rho * alpha * (2 + alpha) * np.cos(2 * x)
        + sigma * alpha**2
    )


def _make_box() -> CatalogEntry:
    def validate(p):
        a = p["alpha"]
        # upper bound mirrors the CLI range-enforcement contract
        _require(-1.0 < a < 1.0, f"box: alpha must satisfy -1 < alpha < 1, got {a}")

    def printed_energy(p, n):
        return (1.0 + p["alpha"]) * (n + 1) ** 2

    def ground(p, x):
        a = p["alpha"]
        return np.cos(x) / (1.0 + a * np.sin(x) ** 2)

    return CatalogEntry(
        name="box",
        domain=Interval(-_HALF_PI, _HALF_PI),
        deformation_names=("alpha",),
        default_params={"alpha": 0.5},
        range_text="-1 < alpha < 1, alpha != 0",
        _validate=validate,
        deforming=lambda p: DeformingFunction("trig_sin2", {"alpha": p["alpha"]}),
        v_eff=lambda p: (lambda x: np.zeros_like(np.asarray(x, dtype=float))),
        v_coeffs=lambda p: (0.0, 0.0, 0.0),
        sp=lambda p: _tan_sp(p["alpha"]),
        lam_branch=+1.0,
        printed_lambda=lambda p, i: (i + 1) * (1.0 + p["alpha"]),
        printed_mu=lambda p, i: 0.0,
        printed_energy=printed_energy,
        ground_state_closed=ground,
        counting=lambda p: CountingResult.infinite(),
        v_tilde_closed=lambda p, r, s, x: _box_trig_vtilde(p["alpha"], r, s, x),
    )


def _trig_pt_lambda0(p) -> float:
    A, a = p["A"], p["alpha"]
    delta = math.sqrt((1.0 + a) ** 2 + 4.0 * A * (A - 1.0))
    return 0.5 * (1.0 + a + delta)


def _make_trig_pt() -> CatalogEntry:
    def validate(p):
        A, a = p["A"], p["alpha"]
        _require(A > 1.0, f"trig_poschl_teller: A > 1 required, got {A}")
        _require(a > -1.0, f"trig_poschl_teller: alpha > -1 required, got {a}")

    def v_eff(p):
        A = p["A"]
        return lambda x: A * (A - 1.0) / np.cos(x) ** 2

    def printed_energy(p, n):
        lam = _trig_pt_lambda0(p)
        return (lam + n) ** 2 - p["alpha"] * (lam - n**2)

    def ground(p, x):
        a = p["alpha"]
        lam = _trig_pt_lambda0(p)
        e = lam / (1.0 + a)
        return np.cos(x) ** e * (1.0 + a * np.sin(x) ** 2) ** (-0.5 * (e + 1.0))

    return CatalogEntry(
        name="trig_poschl_teller",
        domain=Interval(-_HALF_PI, _HALF_PI),
        deformation_names=("alpha",),
        default_params={"A": 2.0, "alpha": 0.3},
        range_text="A > 1, -1 < alpha != 0",
        _validate=validate,
        deforming=lambda p: DeformingFunction("trig_sin2", {"alpha": p["alpha"]}),
        v_eff=v_eff,
        v_coeffs=lambda p: (p["A"] * (p["A"] - 1.0), 0.0, p["A"] * (p["A"] - 1.0)),
        sp=lambda p: _tan_sp(p["alpha"]),
        lam_branch=+1.0,
        printed_lambda=lambda p, i: _trig_pt_lambda0(p) + i * (1.0 + p["alpha"]),
        printed_mu=lambda p, i: 0.0,
        printed_energy=printed_energy,
        ground_state_closed=ground,
        counting=lambda p: CountingResult.infinite(),
        v_tilde_closed=lambda p, r, s, x: _box_trig_vtilde(p["alpha"], r, s, x),
    )


# ---------------------------------------------------------------------------
# hyperbolic Poschl-Teller (no bound states under this deformation)
# ---------------------------------------------------------------------------

def _hyp_pt_lambda0(p) -> float:
    A, a = p["A"], p["alpha"]
    delta = math.sqrt((1.0 - a) ** 2 + 4.0 * A * (A + 1.0))
    return 0.5 * (a - 1.0 + delta)


def _make_hyp_pt() -> CatalogEntry:
    def validate(p):
        A, a = p["A"], p["alpha"]
        _require(A > 0.0, f"hyperbolic_poschl_teller: A > 0 required, got {A}")
        _require(0.0 < a < 1.0, f"hyperbolic_poschl_teller: 0 < alpha < 1 required, got {a}")

    def v_eff(p):
        A = p["A"]
        return lambda x: -A * (A + 1.0) / np.cosh(x) ** 2

    def printed_energy(p, n):
        lam = _hyp_pt_lambda0(p)
        return -((lam - n) ** 2) + p["alpha"] * (lam + n**2)

    def ground(p, x):
        a = p["alpha"]
        lam = _hyp_pt_lambda0(p)
        e = lam / (1.0 - a)
        return np.cosh(x) ** (-e) * (1.0 + a * np.sinh(x) ** 2) ** (0.5 * (e - 1.0))

    return CatalogEntry(
        name="hyperbolic_poschl_teller",
        domain=Interval(-math.inf, math.inf),
        deformation_names=("alpha",),
        default_params={"A": 1.0, "alpha": 0.5},
        range_text="A > 0, 0 < alpha < 1",
        _validate=validate,
        deforming=lambda p: DeformingFunction("hyperbolic_sinh2", {"alpha": p["alpha"]}),
        v_eff=v_eff,
        v_coeffs=lambda p: (p["A"] * (p["A"] + 1.0), 0.0, -p["A"] * (p["A"] + 1.0)),
        sp=lambda p: SuperpotentialClass(
            "class1", "tanh", (-1.0, 0.0, 1.0), (p["alpha"], 0.0, 0.0), class0=True
        ),
        lam_branch=+1.0,
        printed_lambda=lambda p, i: _hyp_pt_lambda0(p) - i * (1.0 - p["alpha"]),
        printed_mu=lambda p, i: 0.0,
        printed_energy=printed_energy,
        ground_state_closed=ground,
        # square-integrable levels exist formally, but |psi|^2 f plateaus at infinity
        counting=lambda p: CountingResult.zero(),
        v_tilde_closed=None,
        oracle_recipe=lambda p: OracleRecipe(-6.0, 6.0, 4001),
        equivalence_interval=Interval(-3.5, 3.5),
        continuum_edge=lambda p: 0.0,
    )


# ---------------------------------------------------------------------------
# shifted oscillator
# ---------------------------------------------------------------------------

def _shifted_lam_mu(p) -> tuple:
    om, b, a, be = p["omega"], p["b"], p["alpha"], p["beta"]
    delta = math.sqrt(om**2 + a**2)
    lam = 0.5 * (a + delta)
    mu = be - b * om / (2.0 * lam)
    return lam, mu, delta


def _make_shifted() -> CatalogEntry:
    def validate(p):
        om, a, be = p["omega"], p["alpha"], p["beta"]
        _require(om > 0.0, f"shifted_oscillator: omega > 0 required, got {om}")
        _require(a > be**2, f"shifted_oscillator: alpha > beta^2 >= 0 required, got alpha={a}, beta={be}")

    def v_eff(p):
        om, b = p["omega"], p["b"]
        return lambda x: 0.25 * om**2 * (np.asarray(x, dtype=float) - 2.0 * b / om) ** 2

    def printed_mu(p, i):
        lam, mu, _ = _shifted_lam_mu(p)
        a, be = p["alpha"], p["beta"]
        return (lam * mu + 2.0 * i * be * lam + i**2 * a * be) / (lam + i * a)

    def printed_energy(p, n):
        om, b, a, be = p["omega"], p["b"], p["alpha"], p["beta"]
        _, _, delta = _shifted_lam_mu(p)
        num = ((2 * n + 1) * delta + (2 * n**2 + 2 * n + 1) * a) * be - b * om
        return (
            (n + 0.5) * delta
            + (n**2 + n + 0.5) * a
            + b**2
            - (num / (delta + (2 * n + 1) * a)) ** 2
        )

    def ground(p, x):
        a, be = p["alpha"], p["beta"]
        lam, mu, _ = _shifted_lam_mu(p)
        x = np.asarray(x, dtype=float)
        f = 1.0 + a * x**2 + 2.0 * be * x
        dsmall = math.sqrt(a - be**2)
        return f ** (-(lam + a) / (2.0 * a)) * np.exp(
            (lam * be - mu * a) / (a * dsmall) * np.arctan((a * x + be) / dsmall)
        )

    def vtilde(p, r, s, x):
        a, be = p["alpha"], p["beta"]
        x = np.asarray(x, dtype=float)
        return 2.0 * (r + 2.0 * s) * a * x * (a * x + 2.0 * be) + 2.0 * r * a + 4.0 * s * be**2

    return CatalogEntry(
        name="shifted_oscillator",
        domain=Interval(-math.inf, math.inf),
        deformation_names=("alpha", "beta"),
        default_params={"omega": 1.0, "b": 0.3, "alpha": 0.1, "beta": 0.1},
        range_text="omega > 0, alpha > beta^2 >= 0",
        _validate=validate,
        deforming=lambda p: DeformingFunction("quadratic", {"alpha": p["alpha"], "beta": p["beta"]}),
        v_eff=v_eff,
        v_coeffs=lambda p: (
            0.25 * p["omega"] ** 2,
            -p["b"] * p["omega"],
            p["b"] ** 2,
        ),
        sp=lambda p: SuperpotentialClass(
            "class1", "x", (0.0, 0.0, 1.0), (p["alpha"], 2.0 * p["beta"], 0.0)
        ),
        lam_branch=+1.0,
        printed_lambda=lambda p, i: _shifted_lam_mu(p)[0] + i * p["alpha"],
        printed_mu=printed_mu,
        printed_energy=printed_energy,
        ground_state_closed=ground,
        counting=lambda p: CountingResult.infinite(),
        v_tilde_closed=vtilde,
        oracle_recipe=lambda p: OracleRecipe(-25.0, 25.0, 4001),
        equivalence_interval=Interval(-12.0, 12.0),
    )


# ---------------------------------------------------------------------------
# three-dimensional oscillator (class 2)
# ---------------------------------------------------------------------------

def _osc3d_mu0(p) -> float:
    om, a = p["omega"], p["alpha"]
    return 0.5 * (a + math.sqrt(om**2 + a**2))


def _make_osc3d() -> CatalogEntry:
    def validate(p):
        om, l, a = p["omega"], p["l"], p["alpha"]
        _require(om > 0.0, f"oscillator_3d: omega > 0 required, got {om}")
        _require(l >= 0.0, f"oscillator_3d: l >= 0 required, got {l}")
        _require(a > 0.0, f"oscillator_3d: alpha > 0 required, got {a}")

    def v_eff(p):
        om, l = p["omega"], p["l"]
        return lambda x: 0.25 * om**2 * np.asarray(x, dtype=float) ** 2 + l * (l + 1.0) / np.asarray(x, dtype=float) ** 2

    def printed_energy(p, n):
        om, l, a = p["omega"], p["l"], p["alpha"]
        delta = math.sqrt(om**2 + a**2)
        return delta * (2 * n + l + 1.5) + a * (2.0 * (n + l + 1) * (2 * n + 1) + 0.5)

    def ground(p, x):
        l, a = p["l"], p["alpha"]
        mu = _osc3d_mu0(p)
        x = np.asarray(x, dtype=float)
        f = 1.0 + a * x**2
        return x ** (l + 1.0) * f ** (-(mu + (l + 2.0) * a) / (2.0 * a))

    return CatalogEntry(
        name="oscillator_3d",
        domain=Interval(0.0, math.inf),
        deformation_names=("alpha",),
        default_params={"omega": 1.0, "l": 1.0, "alpha": 0.05},
        range_text="omega > 0, l >= 0, alpha > 0",
        _validate=validate,
        deforming=lambda p: DeformingFunction("quadratic", {"alpha": p["alpha"], "beta": 0.0}),
        v_eff=v_eff,
        v_coeffs=lambda p: (p["l"] * (p["l"] + 1.0), 0.25 * p["omega"] ** 2, 0.0),
        sp=lambda p: SuperpotentialClass("class2", "inv_x", (-1.0, 0.0), (0.0, -p["alpha"])),
        lam_branch=-1.0,
        printed_lambda=lambda p, i: -p["l"] - 1.0 - i,
        printed_mu=lambda p, i: _osc3d_mu0(p) + i * p["alpha"],
        printed_energy=printed_energy,
        ground_state_closed=ground,
        counting=lambda p: CountingResult.infinite(),
        v_tilde_closed=lambda p, r, s, x: 2.0 * (r + 2.0 * s) * p["alpha"] ** 2 * np.asarray(x, dtype=float) ** 2
        + 2.0 * r * p["alpha"],
        oracle_recipe=lambda p: OracleRecipe(1e-4, 64.0, 8001),
        equivalence_interval=Interval(1e-4, 24.0),
    )


# ---------------------------------------------------------------------------
# Coulomb
# ---------------------------------------------------------------------------

def _make_coulomb() -> CatalogEntry:
    def validate(p):
        e2, l, a = p["e2"], p["l"], p["alpha"]
        _require(e2 > 0.0, f"coulomb: e2 > 0 required, got {e2}")
        _require(l >= 0.0, f"coulomb: l >= 0 required, got {l}")
        _require(a > 0.0, f"coulomb: alpha > 0 required, got {a}")

    def v_eff(p):
        e2, l = p["e2"], p["l"]

        def v(x):
            x = np.asarray(x, dtype=float)
            return -e2 / x + l * (l + 1.0) / x**2

        return v

    def printed_mu(p, i):
        e2, l, a = p["e2"], p["l"], p["alpha"]
        lam = -l - 1.0
        return -(e2 + a * lam * (2 * i + 1) - a * i**2) / (2.0 * (lam - i))

    def printed_energy(p, n):
        e2, l, a = p["e2"], p["l"], p["alpha"]
        return -(((e2 - a * (n**2 + (l + 1.0) * (2 * n + 1))) / (2.0 * (n + l + 1.0))) ** 2)

    def counting(p):
        # levels are the integers k >= 0 with k^2 + (l+1)(2k+1) < e2/alpha, i.e.
        # k < -(l+1) + sqrt(l(l+1) + e2/alpha); the root is taken in the
        # cancellation-free form and hypot keeps l(l+1) from overflowing
        e2, l, a = p["e2"], p["l"], p["alpha"]
        if a >= e2 / (l + 1.0):
            return CountingResult.zero()
        c = e2 / a
        root = (c - (l + 1.0)) / (l + 1.0 + math.hypot(l, math.sqrt(l + c)))
        return _levels_below(root, lambda k: k * k + (l + 1.0) * (2 * k + 1) < c)

    def ground(p, x):
        e2, l, a = p["e2"], p["l"], p["alpha"]
        lam = -l - 1.0
        mu = -(e2 + a * lam) / (2.0 * lam)
        x = np.asarray(x, dtype=float)
        return x ** (l + 1.0) * (1.0 + a * x) ** (-(mu / a + l + 1.5))

    return CatalogEntry(
        name="coulomb",
        domain=Interval(0.0, math.inf),
        deformation_names=("alpha",),
        default_params={"e2": 1.0, "l": 0.0, "alpha": 0.1},
        range_text="e2 > 0, l >= 0, alpha > 0",
        _validate=validate,
        deforming=lambda p: DeformingFunction("linear", {"alpha": p["alpha"]}),
        v_eff=v_eff,
        v_coeffs=lambda p: (p["l"] * (p["l"] + 1.0), -p["e2"], 0.0),
        sp=lambda p: SuperpotentialClass("class1", "inv_x", (-1.0, 0.0, 0.0), (0.0, -p["alpha"], 0.0)),
        lam_branch=-1.0,
        printed_lambda=lambda p, i: -p["l"] - 1.0 - i,
        printed_mu=printed_mu,
        printed_energy=printed_energy,
        ground_state_closed=ground,
        counting=counting,
        v_tilde_closed=lambda p, r, s, x: s * p["alpha"] ** 2 * np.ones_like(np.asarray(x, dtype=float)),
        # slow second-order oracle convergence near the 1/x singularity; relaxed tolerance
        oracle_recipe=lambda p: OracleRecipe(1e-3, 512.0, 8001, rel_tol=5e-3, level_cap=2),
        equivalence_interval=Interval(1e-3, 30.0),
        continuum_edge=lambda p: 0.0,
    )


# ---------------------------------------------------------------------------
# Morse
# ---------------------------------------------------------------------------

def _morse_lam_mu(p) -> tuple:
    A, B, a = p["A"], p["B"], p["alpha"]
    delta = math.sqrt(4.0 * B**2 + a**2)
    lam = -0.5 * (a + delta)
    mu = -0.5 * (B * (2.0 * A + 1.0) / lam + 1.0)
    return lam, mu, delta


def _morse_alpha_max(A: float, B: float, n: int) -> float:
    if n == 0:
        return 4.0 * A * (A + 1.0) * B / (2.0 * A + 1.0)
    return (
        B * (2.0 * A + 1.0) * (2.0 * n**2 + 2.0 * n + 1.0)
        - B * (2.0 * n + 1.0) * math.sqrt((2.0 * A + 1.0) ** 2 + 4.0 * n**2 * (n + 1.0) ** 2)
    ) / (2.0 * n**2 * (n + 1.0) ** 2)


def _make_morse() -> CatalogEntry:
    def validate(p):
        A, B, a = p["A"], p["B"], p["alpha"]
        _require(A > 0.0 and B > 0.0, f"morse: A > 0 and B > 0 required, got A={A}, B={B}")
        _require(a > 0.0, f"morse: alpha > 0 required, got {a}")

    def v_eff(p):
        A, B = p["A"], p["B"]

        def v(x):
            x = np.asarray(x, dtype=float)
            return B**2 * np.exp(-2.0 * x) - B * (2.0 * A + 1.0) * np.exp(-x)

        return v

    def printed_mu(p, i):
        a = p["alpha"]
        lam, mu, _ = _morse_lam_mu(p)
        return (2.0 * lam * (mu - i) + i**2 * a) / (2.0 * (lam - i * a))

    def printed_energy(p, n):
        A, B, a = p["A"], p["B"], p["alpha"]
        _, _, delta = _morse_lam_mu(p)
        den = delta + (2 * n + 1) * a
        return -0.25 * ((2.0 * B * (2.0 * A + 1.0) - ((2 * n + 1) * delta + (2 * n**2 + 2 * n + 1) * a)) / den) ** 2

    def counting(p):
        # levels k with (2k^2+2k+1) a + (2k+1) hypot(2B, a) < 2B(2A+1); cancellation-free root
        A, B, a = p["A"], p["B"], p["alpha"]
        if not a < _morse_alpha_max(A, B, 0):
            return CountingResult.zero()
        s = a + math.hypot(2.0 * B, a)
        c = 2.0 * B * (2.0 * A + 1.0) - s
        root = c / (s + math.sqrt(s * s + 2.0 * a * c))
        return _levels_below(root, lambda k: k < A and a < _morse_alpha_max(A, B, k))

    def ground(p, x):
        a = p["alpha"]
        lam, mu, _ = _morse_lam_mu(p)
        x = np.asarray(x, dtype=float)
        f = 1.0 + a * np.exp(-x)
        return f ** (lam / a - mu - 0.5) * np.exp(-mu * x)

    def recipe(p):
        # right wall from the closed ground-state tail exp(-2 mu0 L) < 1e-8;
        # left wall adapts to the tail power in e^{-x} so that f^2/h^2 stays
        # well inside double precision (a fixed deep wall ruins the eigenvalues
        # once alpha or B get large)
        lam, mu, _ = _morse_lam_mu(p)
        L = 20.0
        while mu > 0.0 and math.exp(-2.0 * mu * L) > 1e-8 and L < 700.0:
            L *= 2.0
        p_left = abs(2.0 * lam / p["alpha"] - 1.0)
        left = -min(12.0, max(4.0, 60.0 / max(p_left, 1e-6)))
        return OracleRecipe(left, L, 8001)

    return CatalogEntry(
        name="morse",
        domain=Interval(-math.inf, math.inf),
        deformation_names=("alpha",),
        default_params={"A": 1.0, "B": 1.0, "alpha": 0.5},
        range_text="A > 0, B > 0, alpha > 0",
        _validate=validate,
        deforming=lambda p: DeformingFunction("exp_decay", {"alpha": p["alpha"]}),
        v_eff=v_eff,
        v_coeffs=lambda p: (p["B"] ** 2, -p["B"] * (2.0 * p["A"] + 1.0), 0.0),
        sp=lambda p: SuperpotentialClass("class1", "exp_neg", (0.0, -1.0, 0.0), (-p["alpha"], 0.0, 0.0)),
        lam_branch=-1.0,
        printed_lambda=lambda p, i: _morse_lam_mu(p)[0] - i * p["alpha"],
        printed_mu=printed_mu,
        printed_energy=printed_energy,
        ground_state_closed=ground,
        counting=counting,
        v_tilde_closed=lambda p, r, s, x: (r + s) * p["alpha"] ** 2 * np.exp(-2.0 * np.asarray(x, dtype=float))
        + r * p["alpha"] * np.exp(-np.asarray(x, dtype=float)),
        oracle_recipe=recipe,
        equivalence_interval=Interval(-6.0, 20.0),
        continuum_edge=lambda p: 0.0,
    )


# ---------------------------------------------------------------------------
# Eckart
# ---------------------------------------------------------------------------

def _make_eckart() -> CatalogEntry:
    def validate(p):
        A, B, a = p["A"], p["B"], p["alpha"]
        _require(A >= 1.5, f"eckart: A >= 3/2 required, got {A}")
        _require(B > A**2, f"eckart: B > A^2 required, got B={B}, A={A}")
        _require(-2.0 <= a, f"eckart: -2 <= alpha required, got {a}")

    def v_eff(p):
        A, B = p["A"], p["B"]

        def v(x):
            x = np.asarray(x, dtype=float)
            return A * (A - 1.0) / np.sinh(x) ** 2 - 2.0 * B / np.tanh(x)

        return v

    def printed_mu(p, i):
        A, B, a = p["A"], p["B"], p["alpha"]
        lam = -A
        mu = B / A - 0.5 * a
        return (lam * mu - 0.5 * a * i * (2.0 * lam - i)) / (lam - i)

    def printed_energy(p, n):
        A, B, a = p["A"], p["B"], p["alpha"]
        s = (2 * n + 1) * A + n**2
        return -((A + n) ** 2) - ((B - 0.5 * a * s) / (A + n)) ** 2 - a * s

    def counting(p):
        A, B, a = p["A"], p["B"], p["alpha"]
        if a == -2.0:
            return CountingResult.infinite()
        bound = (2.0 * B + a * A * (A - 1.0)) / (2.0 + a)
        return _levels_below(math.sqrt(bound) - A, lambda k: (A + k) ** 2 < bound)

    def ground(p, x):
        A, B, a = p["A"], p["B"], p["alpha"]
        mu = B / A - 0.5 * a
        y = 1.0 / np.tanh(np.asarray(x, dtype=float))
        if a == -2.0:
            return (y - 1.0) ** (-A - 1.0) / np.sinh(np.asarray(x, dtype=float)) * np.exp(-(mu - A) / (y - 1.0))
        return (
            (y + 1.0) ** 0.5
            * (y + 1.0 + a) ** (-((1.0 + a) * A + mu) / (2.0 + a) - 0.5)
            * (y - 1.0) ** ((mu - A) / (2.0 + a))
        )

    def recipe(p):
        A, B, a = p["A"], p["B"], p["alpha"]
        if a == -2.0:
            return OracleRecipe(1e-4, 20.0, 8001, rel_tol=1e-3)
        # asymptotic decay |psi0|^2 ~ exp(-2 c x), c = (lam0 + mu0)/f(inf)
        c = (-A + B / A - 0.5 * a) / (1.0 + 0.5 * a)
        L = 20.0
        while c > 0.0 and math.exp(-2.0 * c * L) > 1e-12 and L < 700.0:
            L *= 2.0
        return OracleRecipe(1e-4, L, 8001)

    def vtilde(p, r, s, x):
        a = p["alpha"]
        x = np.asarray(x, dtype=float)
        return (r + s) * a**2 * np.exp(-4.0 * x) - r * a * (2.0 + a) * np.exp(-2.0 * x)

    return CatalogEntry(
        name="eckart",
        domain=Interval(0.0, math.inf),
        deformation_names=("alpha",),
        default_params={"A": 1.5, "B": 2.5, "alpha": -1.0},
        range_text="A >= 3/2, B > A^2, -2 <= alpha != 0",
        _validate=validate,
        deforming=lambda p: DeformingFunction("exp_sinh", {"alpha": p["alpha"]}),
        v_eff=v_eff,
        v_coeffs=lambda p: (
            p["A"] * (p["A"] - 1.0),
            -2.0 * p["B"],
            -p["A"] * (p["A"] - 1.0),
        ),
        sp=lambda p: SuperpotentialClass("class1", "coth", (-1.0, 0.0, 1.0), (0.0, -p["alpha"], p["alpha"])),
        lam_branch=-1.0,
        printed_lambda=lambda p, i: -p["A"] - i,
        printed_mu=printed_mu,
        printed_energy=printed_energy,
        ground_state_closed=ground,
        counting=counting,
        v_tilde_closed=vtilde,
        oracle_recipe=recipe,
        equivalence_interval=Interval(1e-4, 8.0),
        continuum_edge=lambda p: -2.0 * p["B"],
    )


# ---------------------------------------------------------------------------
# Scarf I (class 3)
# ---------------------------------------------------------------------------

def _scarf_deltas(p) -> tuple:
    A, B, a = p["A"], p["B"], p["alpha"]
    dp = math.sqrt(0.25 * (1.0 - a) ** 2 + (A + B) * (A + B - 1.0))
    dm = math.sqrt(0.25 * (1.0 + a) ** 2 + (A - B) * (A - B - 1.0))
    return dp, dm


def _scarf_lam_mu(p) -> tuple:
    a = p["alpha"]
    dp, dm = _scarf_deltas(p)
    return 0.5 * (1.0 + dp + dm), 0.5 * (a - dp + dm)


def _make_scarf1() -> CatalogEntry:
    def validate(p):
        A, B, a = p["A"], p["B"], p["alpha"]
        _require(0.0 < B < A - 1.0, f"scarf_i: 0 < B < A - 1 required, got A={A}, B={B}")
        _require(0.0 < abs(a) < 1.0, f"scarf_i: 0 < |alpha| < 1 required, got {a}")

    def v_eff(p):
        A, B = p["A"], p["B"]

        def v(x):
            x = np.asarray(x, dtype=float)
            return (B**2 + A * (A - 1.0)) / np.cos(x) ** 2 - B * (2.0 * A - 1.0) * np.sin(x) / np.cos(x) ** 2

        return v

    def printed_energy(p, n):
        # Verbatim appendix formula. Its leading -1/4(...)^2 disagrees with the
        # chain solve and the matrix oracle (both give +1/4); see energy_discrepancy.
        a = p["alpha"]
        dp, dm = _scarf_deltas(p)
        return (
            -0.25 * (2 * n + 1 + dp + dm) ** 2
            + a * (n + 0.5) * (dp - dm)
            - a**2 * (n**2 + n + 0.5)
        )

    def ground(p, x):
        a = p["alpha"]
        lam, mu = _scarf_lam_mu(p)
        x = np.asarray(x, dtype=float)
        f = 1.0 + a * np.sin(x)
        return (
            f ** (-(lam - a * mu) / (1.0 - a**2) - 0.5)
            * (1.0 - np.sin(x)) ** ((lam + mu) / (2.0 * (1.0 + a)))
            * (1.0 + np.sin(x)) ** ((lam - mu) / (2.0 * (1.0 - a)))
        )

    def vtilde(p, r, s, x):
        a = p["alpha"]
        x = np.asarray(x, dtype=float)
        return -(r + s) * a**2 * np.sin(x) ** 2 - r * a * np.sin(x) + s * a**2

    return CatalogEntry(
        name="scarf_i",
        domain=Interval(-_HALF_PI, _HALF_PI),
        deformation_names=("alpha",),
        default_params={"A": 3.0, "B": 0.5, "alpha": 0.5},
        range_text="0 < B < A - 1, 0 < |alpha| < 1",
        _validate=validate,
        deforming=lambda p: DeformingFunction("trig_sin", {"alpha": p["alpha"]}),
        v_eff=v_eff,
        v_coeffs=lambda p: (
            0.0,
            -p["B"] * (2.0 * p["A"] - 1.0),
            p["B"] ** 2 + p["A"] * (p["A"] - 1.0),
        ),
        sp=lambda p: SuperpotentialClass(
            "class3", "sin", (-1.0, 1.0, 0.0, 1.0), (0.0, 0.0, p["alpha"], 0.0)
        ),
        lam_branch=+1.0,
        printed_lambda=lambda p, i: _scarf_lam_mu(p)[0] + i,
        printed_mu=lambda p, i: _scarf_lam_mu(p)[1] + i * p["alpha"],
        printed_energy=printed_energy,
        ground_state_closed=ground,
        counting=lambda p: CountingResult.infinite(),
        v_tilde_closed=vtilde,
        energy_discrepancy=(
            "printed E_n leads with -1/4(2n+1+Dp+Dm)^2, which gives -(A+n)^2 in the"
            " undeformed limit; the chain solve and the matrix oracle both give the"
            " opposite leading sign +1/4(...)^2, i.e. +(A+n)^2 as alpha -> 0"
        ),
    )


# ---------------------------------------------------------------------------
# Rosen-Morse I
# ---------------------------------------------------------------------------

def _make_rosen_morse1() -> CatalogEntry:
    def validate(p):
        A, a, be = p["A"], p["alpha"], p["beta"]
        _require(A >= 1.5, f"rosen_morse_i: A >= 3/2 required, got {A}")
        _require(be > -1.0, f"rosen_morse_i: beta > -1 required, got {be}")
        _require(abs(a) / 2.0 < math.sqrt(1.0 + be), f"rosen_morse_i: |alpha|/2 < sqrt(1+beta) required")

    def v_eff(p):
        A, B = p["A"], p["B"]

        def v(x):
            x = np.asarray(x, dtype=float)
            return A * (A - 1.0) / np.sin(x) ** 2 + 2.0 * B / np.tan(x)

        return v

    def printed_mu(p, i):
        A, B, a = p["A"], p["B"], p["alpha"]
        lam = -A
        mu = -B / A - 0.5 * a
        return (lam * mu - 0.5 * a * i * (2.0 * lam - i)) / (lam - i)

    def printed_energy(p, n):
        A, B, a, be = p["A"], p["B"], p["alpha"], p["beta"]
        s = (2 * n + 1) * A + n**2
        return (A + n) ** 2 - ((B + 0.5 * a * s) / (A + n)) ** 2 + be * s

    def ground(p, x):
        A, B, a, be = p["A"], p["B"], p["alpha"], p["beta"]
        mu = -B / A - 0.5 * a
        x = np.asarray(x, dtype=float)
        f = 1.0 + np.sin(x) * (a * np.cos(x) + be * np.sin(x))
        dsmall = math.sqrt(1.0 + be - 0.25 * a**2)
        y = 1.0 / np.tan(x)
        return f ** (-(A + 1.0) / 2.0) * np.sin(x) ** A * np.exp(
            (mu + 0.5 * a * A) / dsmall * np.arctan((y + 0.5 * a) / dsmall)
        )

    def vtilde(p, r, s, x):
        a, be = p["alpha"], p["beta"]
        x = np.asarray(x, dtype=float)
        return (
            (r + s) * (0.5 * (a**2 - be**2) * np.cos(4 * x) + a * be * np.sin(4 * x))
            + r * (2.0 + be) * (-a * np.sin(2 * x) + be * np.cos(2 * x))
            + (s - r) * 0.5 * (a**2 + be**2)
        )

    return CatalogEntry(
        name="rosen_morse_i",
        domain=Interval(0.0, math.pi),
        deformation_names=("alpha", "beta"),
        default_params={"A": 1.5, "B": 0.5, "alpha": 0.4, "beta": 0.3},
        range_text="A >= 3/2, beta > -1, |alpha|/2 < sqrt(1 + beta)",
        _validate=validate,
        deforming=lambda p: DeformingFunction("trig_mix", {"alpha": p["alpha"], "beta": p["beta"]}),
        v_eff=v_eff,
        v_coeffs=lambda p: (
            p["A"] * (p["A"] - 1.0),
            2.0 * p["B"],
            p["A"] * (p["A"] - 1.0),
        ),
        sp=lambda p: SuperpotentialClass(
            "class1", "cot", (-1.0, 0.0, -1.0), (0.0, -p["alpha"], -p["beta"])
        ),
        lam_branch=-1.0,
        printed_lambda=lambda p, i: -p["A"] - i,
        printed_mu=printed_mu,
        printed_energy=printed_energy,
        ground_state_closed=ground,
        counting=lambda p: CountingResult.infinite(),
        v_tilde_closed=vtilde,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ENTRIES: dict = {
    e.name: e
    for e in (
        _make_box(),
        _make_trig_pt(),
        _make_hyp_pt(),
        _make_shifted(),
        _make_osc3d(),
        _make_coulomb(),
        _make_morse(),
        _make_eckart(),
        _make_scarf1(),
        _make_rosen_morse1(),
    )
}

EXCLUSIONS: dict = {
    "scarf_ii": (
        "excluded: no nontrivial values of the parameters may ensure positive"
        " definiteness of f on the whole real line"
    ),
    "rosen_morse_ii": (
        "excluded: square-integrable wavefunctions do not ensure Hermiticity of the"
        " deformed momentum, so the potential does not support any bound state"
    ),
    "gen_poschl_teller": (
        "excluded: square-integrable wavefunctions do not ensure Hermiticity of the"
        " deformed momentum, so the potential does not support any bound state"
    ),
}


def lookup(name: str) -> CatalogEntry:
    """Return the entry, or raise NotFound (with the documented reason for exclusions)."""
    if name in ENTRIES:
        return ENTRIES[name]
    if name in EXCLUSIONS:
        raise NotFound(f"{name}: {EXCLUSIONS[name]}")
    raise NotFound(f"unknown potential {name!r}; available: {sorted(ENTRIES)}")


def closed_energy(entry: CatalogEntry, params: dict, n: int) -> float:
    """Evaluate the published E_n after range and counting checks."""
    entry.validate(params)
    if n < 0:
        raise IndexError("level index must be >= 0")
    counting = entry.counting(params)
    if counting.kind == "zero":
        raise IndexError(f"{entry.name}: no bound states for these parameters")
    if counting.kind == "finite" and n > counting.n_max:
        raise IndexError(f"{entry.name}: level {n} beyond n_max = {counting.n_max}")
    return float(entry.printed_energy(params, n))


def bound_state_count(entry: CatalogEntry, params: dict) -> CountingResult:
    entry.validate(params)
    return entry.counting(params)


def ground_state_closed(entry: CatalogEntry, params: dict, x):
    """Published unnormalized ground state at interior x."""
    entry.validate(params)
    if not entry.domain.contains_strictly(x):
        raise DomainError(f"{entry.name}: x outside open domain")
    val = entry.ground_state_closed(params, x)
    return float(val) if np.ndim(x) == 0 else val
