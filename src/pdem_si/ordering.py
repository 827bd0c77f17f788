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

from .core import AmbiguityParams, ArrayLike, DeformingFunction, deforming_eval


def v_tilde_eval(df: DeformingFunction, amb: AmbiguityParams, x: ArrayLike) -> ArrayLike:
    """Ordering term rho*f*f'' + sigma*f'^2 with analytic derivatives."""
    v = deforming_eval(df, x)
    return amb.rho * v.f * v.f_second + amb.sigma * v.f_prime**2


def recover_initial_potential(df: DeformingFunction, amb: AmbiguityParams, v_eff: Callable, x: ArrayLike) -> ArrayLike:
    """Initial potential V(a;x) = V_eff(b;x) - V~(x) of the mass-ordered equation."""
    return np.asarray(v_eff(x)) - v_tilde_eval(df, amb, x)
