"""Scalar formulas tying the ordered kinetic term to the deformed-operator form.

The kinetic term of ordering (xi, zeta), -(f^xi d/dx f^eta d/dx f^zeta)
symmetrized, equals the deformed kinetic term -(sqrt(f) d/dx sqrt(f))^2 plus the
ordering term V~ = rho*f*f'' + sigma*f'^2. The deformed term is itself the
ordering (1/2, 1/2), where rho = sigma = 0, so the verify battery's
``equivalence_deviation`` compares two orderings of one discretized operator.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .core import AmbiguityParams, ArrayLike, DeformingFunction


def v_tilde_eval(df: DeformingFunction, amb: AmbiguityParams, x: ArrayLike) -> ArrayLike:
    """Ordering term rho*f*f'' + sigma*f'^2 with analytic derivatives."""
    f = df._f_checked(x)
    f_prime, f_second = df._slopes(x)
    if np.ndim(x) == 0:  # Python floats, as deforming_eval gives: f'**2 is then libm pow, an array's a multiply
        f, f_prime, f_second = float(f), float(f_prime), float(f_second)
    return _v_tilde(amb, f, f_prime, f_second)


def _v_tilde(amb: AmbiguityParams, f: ArrayLike, f_prime: ArrayLike, f_second: ArrayLike) -> ArrayLike:
    """V~ from f, f' and f'' already evaluated; at DEFORMED it is +0.0 where they are
    finite and NaN where not, and ``verification._operators`` takes V_eff itself there."""
    return amb.rho * f * f_second + amb.sigma * f_prime**2


def recover_initial_potential(df: DeformingFunction, amb: AmbiguityParams, v_eff: Callable, x: ArrayLike) -> ArrayLike:
    """Initial potential V(a;x) = V_eff(b;x) - V~(x) of the mass-ordered equation."""
    return np.asarray(v_eff(x)) - v_tilde_eval(df, amb, x)
