"""Scalar formulas tying the ordered kinetic term to the deformed-operator form.

The ordering term is V~ = rho*f*f'' + sigma*f'^2; the kinetic operator written
with mass powers M^{xi'} d/dx M^{eta'} d/dx M^{zeta'} (symmetrized) equals the
deformed kinetic operator -(sqrt(f) d/dx sqrt(f))^2 plus V~, which
``oracle.equivalence_check`` verifies operator-by-operator on the discretized
operators.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .core import AmbiguityParams, ArrayLike, DeformingFunction, deforming_eval


def v_tilde_eval(df: DeformingFunction, amb: AmbiguityParams, x: ArrayLike) -> ArrayLike:
    """Ordering term rho*f*f'' + sigma*f'^2 with analytic derivatives."""
    v = deforming_eval(df, x)
    return amb.rho * v.f * v.f_second + amb.sigma * v.f_prime**2


def recover_initial_potential(df: DeformingFunction, amb: AmbiguityParams, v_eff: Callable, x: ArrayLike) -> ArrayLike:
    """Initial potential V(a;x) = V_eff(b;x) - V~(x) of the mass-ordered equation."""
    return np.asarray(v_eff(x)) - v_tilde_eval(df, amb, x)
