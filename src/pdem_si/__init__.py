"""Closed-form spectra and wavefunctions for deformed shape-invariant potentials
with a position-dependent effective mass, verified against an in-repo matrix
oracle."""

from .core import (
    AmbiguityParams,
    ChainError,
    ConvergenceError,
    DeformingFunction,
    DegenerateClass,
    DomainError,
    Grid,
    Interval,
    NoRealRoot,
    NonPositiveError,
    NotFound,
    ParameterError,
    PdemError,
    RangeError,
    SingularPoint,
    SingularPotential,
    ZeroNorm,
    deforming_eval,
    positivity_check,
)
from .ordering import recover_initial_potential, v_tilde_eval
from .si_engine import (
    ChainProblem,
    ParameterChain,
    SuperpotentialClass,
    chain_residuals,
    partner_potential,
    solve_chain,
    w_eval,
)
from .catalog import (
    CatalogEntry,
    CountingResult,
    bound_state_count,
    closed_energy,
    ground_state_closed,
    lookup,
)
from .oracle import (
    Spectrum,
    TridiagonalOperator,
    discretize_vonroos,
    eigenpairs,
    eigenvectors,
    quadrature,
    sturm_count,
)
from .wavefunctions import (
    AdmissibilityVerdict,
    DeformedPolynomial,
    admissibility_checks,
    excited_state_eval,
    normalize,
    polynomial_chain,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
