import ast
import inspect
import math

import numpy as np
import pytest

import pdem_si
from pdem_si import catalog, verification, wavefunctions
from pdem_si.core import (
    AmbiguityParams,
    DeformingFunction,
    DomainError,
    Grid,
    Interval,
    NonPositiveError,
    NotFound,
    ParameterError,
    deforming_eval,
    positivity_check,
)

PRESET_TABLE = {
    "bdd": (0.0, 0.0, 0.5, 0.25),
    "zk": (1.0, 1.0, -0.5, 0.25),
    "lk": (0.0, 1.0, 0.0, -0.25),
    "bastard": (2.0, 0.0, -0.5, -0.75),
}


@pytest.mark.parametrize("name", sorted(PRESET_TABLE))
def test_preset_values(name):
    xi, zeta, rho, sigma = PRESET_TABLE[name]
    amb = AmbiguityParams.preset(name)
    assert (amb.xi, amb.zeta) == (xi, zeta)
    assert amb.rho == rho and amb.sigma == sigma
    # recomputing from (xi, zeta) reproduces the stored pair exactly
    again = AmbiguityParams(amb.xi, amb.zeta)
    assert again.rho == amb.rho and again.sigma == amb.sigma


def test_ambiguity_reduce_random():
    rng = np.random.RandomState(7)
    for _ in range(50):
        xi, zeta = rng.uniform(-3, 3, size=2)
        amb = AmbiguityParams(xi, zeta)
        assert amb.rho == 0.5 * (1 - xi - zeta)
        assert amb.sigma == (0.5 - xi) * (0.5 - zeta)
        assert abs(amb.xi + amb.eta + amb.zeta - 2.0) < 1e-12
        assert abs(sum(amb.primed) + 1.0) < 1e-12


def test_primed_conversion():
    assert AmbiguityParams.preset("bdd").primed == (0.0, -1.0, 0.0)
    amb = AmbiguityParams.from_primed(-0.5, 0.0, -0.5)
    assert (amb.xi, amb.zeta) == (1.0, 1.0)  # ZK
    with pytest.raises(ParameterError):
        AmbiguityParams.from_primed(0.0, 0.0, 0.0)


def test_unknown_preset():
    with pytest.raises(NotFound):
        AmbiguityParams.preset("nope")


def test_interval_and_grid():
    with pytest.raises(ParameterError):
        Interval(2.0, 1.0)
    half = Interval(0.0, math.inf)
    assert not half.bounded and half.contains_strictly(5.0)
    assert not half.contains_strictly(0.0)

    grid = Grid(Interval(0.0, 1.0), 101)
    assert grid.spacing == (1.0 - 0.0) / 100
    x = grid.nodes()
    assert x[0] == 0.0 and x[-1] == 1.0 and len(x) == 101
    with pytest.raises(ParameterError):
        Grid(Interval(0.0, 1.0), 2)
    with pytest.raises(ParameterError):
        Grid(Interval(0.0, math.inf), 11)


def test_deforming_eval_examples():
    box = DeformingFunction("trig_sin2", {"alpha": 0.5})
    v0 = deforming_eval(box, 0.0)
    assert v0.f == 1.0 and v0.M == 1.0 and v0.g == 0.0
    vh = deforming_eval(box, math.pi / 2)
    assert abs(vh.f - 1.5) < 1e-15
    assert abs(vh.M - 4.0 / 9.0) < 1e-15

    # Eckart family at alpha = -2 is exactly e^{-2x}
    eck = DeformingFunction("exp_sinh", {"alpha": -2.0})
    for x in (0.1, 1.0, 5.0, 20.0, 100.0):
        assert deforming_eval(eck, x).f == math.exp(-2.0 * x)


def test_deforming_domain_and_positivity_errors():
    df = DeformingFunction("trig_sin2", {"alpha": 0.5})
    for x in (math.inf, -math.inf, math.nan, np.array([0.0, math.inf]), np.array([math.nan, 0.5])):
        with pytest.raises(DomainError):
            deforming_eval(df, x)
        with pytest.raises(DomainError):
            df.f(x)
    bad = DeformingFunction("trig_sin2", {"alpha": -1.5})
    with pytest.raises(NonPositiveError):
        deforming_eval(bad, math.pi / 2)
    with pytest.raises(NotFound):
        DeformingFunction("no_such_family", {})


def test_mass_relation_machine_precision():
    for name, entry in catalog.ENTRIES.items():
        df = entry.deforming(dict(entry.default_params))
        a, b = _sample_window(entry)
        xs = np.linspace(a, b, 57)
        v = deforming_eval(df, xs)
        assert np.max(np.abs(v.M * v.f**2 - 1.0)) < 5e-16, name


def _sample_window(entry):
    dom = entry.domain
    if dom.bounded:
        pad = 0.02 * dom.length
        return dom.x1 + pad, dom.x2 - pad
    if math.isfinite(dom.x1):
        return dom.x1 + 0.05, dom.x1 + 10.0
    return -6.0, 6.0


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_derivatives_match_finite_differences(name):
    entry = catalog.ENTRIES[name]
    df = entry.deforming(dict(entry.default_params))
    a, b = _sample_window(entry)
    rng = np.random.RandomState(11)
    xs = rng.uniform(a, b, size=100)
    h = 1e-5 * (b - a)
    v = deforming_eval(df, xs)
    fp = (deforming_eval(df, xs + h).f - deforming_eval(df, xs - h).f) / (2 * h)
    fpp = (deforming_eval(df, xs + h).f - 2 * v.f + deforming_eval(df, xs - h).f) / h**2
    scale = np.maximum(1.0, np.abs(v.f_prime))
    assert np.max(np.abs(v.f_prime - fp) / scale) < 1e-6
    scale2 = np.maximum(1.0, np.abs(v.f_second))
    assert np.max(np.abs(v.f_second - fpp) / scale2) < 1e-4


def test_positivity_check_box():
    ok = positivity_check(DeformingFunction("trig_sin2", {"alpha": 0.5}), Grid(Interval(-math.pi / 2, math.pi / 2), 1001))
    assert ok.ok and ok.min_f >= 1.0

    bad = positivity_check(DeformingFunction("trig_sin2", {"alpha": -1.5}), Grid(Interval(-math.pi / 2, math.pi / 2), 1001))
    assert not bad.ok
    assert math.sin(bad.first_violation_x) ** 2 > 2.0 / 3.0
    assert bad.first_violation_f <= 0.0

    flat = positivity_check(DeformingFunction("trig_sin2", {"alpha": 0.0}), Grid(Interval(-1.0, 1.0), 101))
    assert flat.ok and flat.min_f == 1.0


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_positivity_all_catalog_families(name):
    entry = catalog.ENTRIES[name]
    a, b = _sample_window(entry)
    rep = positivity_check(entry.deforming(dict(entry.default_params)), Grid(Interval(a, b), 10001))
    assert rep.ok, (name, rep)


def test_public_api_names():
    # every change to the public API shows here
    assert sorted(pdem_si.__all__) == [
        "AdmissibilityVerdict", "AmbiguityParams", "CatalogEntry", "ChainError", "ChainProblem",
        "ConvergenceError", "CountingResult", "DeformedPolynomial", "DeformingFunction", "DegenerateClass",
        "DomainError", "Grid", "Interval", "LevelTable", "NoRealRoot", "NonPositiveError", "NotFound",
        "ParameterChain", "ParameterError", "PdemError", "RangeError", "SingularPoint", "SingularPotential",
        "Spectrum", "SuperpotentialClass", "TridiagonalOperator", "ZeroNorm", "admissibility_checks", "bound_state_count",
        "catalog", "chain_residuals", "closed_energy", "core", "deforming_eval", "discretize_vonroos",
        "eigenpairs", "eigenvectors", "excited_state_eval", "ground_state_closed", "lookup", "normalize",
        "oracle", "ordering", "partner_potential", "polynomial_chain", "positivity_check", "quadrature",
        "recover_initial_potential", "si_engine", "solve_chain", "sturm_count", "v_tilde_eval", "w_eval",
        "wavefunctions",
    ]


def _forwards(module) -> list:
    # public module-level functions whose whole body, past an optional docstring,
    # is one return of a call to a private function or to another function of the module
    tree = ast.parse(inspect.getsource(module))
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    own = {node.name for node in defs}
    found = []
    for node in defs:
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if node.name.startswith("_") or len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            if call.func.id.startswith("_") or call.func.id in own:
                found.append(f"{module.__name__.rsplit('.', 1)[1]}.{node.name}")
    return found


def test_no_public_function_forwards_to_a_twin():
    # each check is one function under its public name, taking the level table
    # or request of its parameter point. The one forwarder left is
    # oracle_vs_chain(entry, params): benchmarks/workloads.py calls the oracle
    # check by that name and signature, and that reader changes only together
    # with the benchmark (ROADMAP item 1)
    assert _forwards(verification) + _forwards(wavefunctions) == ["verification.oracle_vs_chain"]
