import ctypes
import gc
import hashlib
import math
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from pdem_si import catalog, cli, oracle, verification as verif
from pdem_si.core import (
    AmbiguityParams,
    ConvergenceError,
    DeformingFunction,
    Grid,
    Interval,
    NonPositiveError,
    PdemError,
    SingularPotential,
    deforming_eval,
)
from pdem_si.oracle import (
    TridiagonalOperator,
    discretize_vonroos,
    eigenpairs,
    eigenvectors,
    quadrature,
    sturm_count,
)
from pdem_si.ordering import recover_initial_potential
from pdem_si.wavefunctions import AdmissibilityVerdict, excited_state_eval, normalize

PRESETS = ("bdd", "bastard", "zk", "lk")


def test_quadrature_examples():
    g = Grid(Interval(0.0, math.pi), 1001)
    assert abs(quadrature(np.sin(g.nodes()), g) - 2.0) < 1e-10
    g = Grid(Interval(-math.pi / 2, math.pi / 2), 1001)
    assert abs(quadrature(np.cos(g.nodes()) ** 2, g) - math.pi / 2) < 1e-10
    g = Grid(Interval(0.0, 1.0), 101)
    assert quadrature(np.ones(101), g) == 1.0


def test_quadrature_even_fallback_warns():
    g = Grid(Interval(0.0, 1.0), 100)
    with pytest.warns(UserWarning, match="trapezoid"):
        val = quadrature(np.ones(100), g)
    assert abs(val - 1.0) < 1e-12


def test_two_by_two():
    grid = Grid(Interval(0.0, 3.0), 4)
    op = TridiagonalOperator(np.array([2.0, 2.0]), np.array([1.0]), grid)
    spec = eigenpairs(op, 2)
    assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_toeplitz_closed_form():
    # second-difference matrix on (0, pi): lambda_k = (2 - 2 cos(k pi/1000)) / h^2
    N = 999
    grid = Grid(Interval(0.0, math.pi), N + 2)
    h = grid.spacing
    op = TridiagonalOperator(np.full(N, 2.0 / h**2), np.full(N - 1, -1.0 / h**2), grid)
    spec = eigenpairs(op, 5)
    for k in range(1, 6):
        exact = (2.0 - 2.0 * math.cos(k * math.pi / 1000.0)) / h**2
        assert abs(spec.eigenvalues[k - 1] - exact) < 1e-9 * exact
        assert abs(spec.eigenvalues[k - 1] - k**2) < 5.0 * k**4 * h**2  # O(h^2) vs k^2


def test_sturm_count_monotone():
    rng = np.random.RandomState(3)
    grid = Grid(Interval(0.0, 1.0), 52)
    op = TridiagonalOperator(rng.uniform(-2, 2, 50), rng.uniform(-1, 1, 49), grid)
    ts = np.linspace(-5, 5, 41)
    counts = [sturm_count(op, t) for t in ts]
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    assert counts[0] == 0 and counts[-1] == 50


def _box_operator(alpha, n_points):
    df = DeformingFunction("trig_sin2", {"alpha": alpha})
    grid = Grid(Interval(-math.pi / 2, math.pi / 2), n_points)
    return discretize_vonroos(df, oracle.DEFORMED, lambda x: np.zeros_like(np.asarray(x)), grid)


def test_grid_convergence_second_order():
    errs = []
    for n_points in (1001, 2001, 4001, 8001):
        spec = eigenpairs(_box_operator(0.5, n_points), 1)
        errs.append(abs(spec.eigenvalues[0] - 1.5))
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.0 < e1 / e2 < 5.0  # halving h divides the error by ~4


def test_box_spectrum_against_closed_form():
    spec = eigenpairs(_box_operator(0.5, 4001), 6)
    for n in range(6):
        exact = 1.5 * (n + 1) ** 2
        assert abs(spec.eigenvalues[n] - exact) / exact < 1e-4


def test_undeformed_box_spectrum():
    # f == 1, V == 0 on (-pi/2, pi/2): plain infinite well, E_n = (n+1)^2
    df = DeformingFunction("trig_sin", {"alpha": 0.0})
    grid = Grid(Interval(-math.pi / 2, math.pi / 2), 2001)
    spec = eigenpairs(discretize_vonroos(df, oracle.DEFORMED, lambda x: np.zeros_like(np.asarray(x)), grid), 3)
    for n in range(3):
        exact = (n + 1) ** 2
        assert abs(spec.eigenvalues[n] - exact) / exact < 1e-4


def test_api_guards():
    op = _box_operator(0.5, 101)
    from pdem_si.core import ParameterError

    with pytest.raises(ParameterError):
        eigenpairs(op, 0)
    with pytest.raises(ParameterError):
        eigenpairs(op, op.n + 1)
    with pytest.raises(ParameterError):
        quadrature(np.ones(5), Grid(Interval(0.0, 1.0), 11))
    with pytest.raises(ParameterError):
        TridiagonalOperator(np.ones(5), np.ones(4), Grid(Interval(0.0, 1.0), 11))


def test_apply_includes_boundary_couplings():
    # constant-mass second difference of a linear function vanishes identically,
    # which only holds if the stencil keeps its couplings to the boundary nodes
    df = DeformingFunction("trig_sin", {"alpha": 0.0})
    grid = Grid(Interval(0.0, 1.0), 101)
    op = discretize_vonroos(df, oracle.DEFORMED, lambda x: np.zeros_like(np.asarray(x)), grid)
    psi = 2.0 + 3.0 * grid.nodes()
    assert np.max(np.abs(op.apply(psi))) < 1e-9


def test_harmonic_oscillator_constant_mass():
    # f == 1, V = x^2 (omega = 2 in the quarter-square convention): E_n = 2(n + 1/2)
    df = DeformingFunction("trig_sin", {"alpha": 0.0})
    grid = Grid(Interval(-12.0, 12.0), 4001)
    op = discretize_vonroos(df, oracle.DEFORMED, lambda x: np.asarray(x) ** 2, grid)
    spec = eigenpairs(op, 3)
    for n in range(3):
        exact = 2.0 * (n + 0.5)
        assert abs(spec.eigenvalues[n] - exact) / exact < 1e-4


def test_eigenvectors_match_closed_ground_state():
    op = _box_operator(0.5, 4001)
    spec = eigenpairs(op, 1)
    x = op.grid.nodes()
    psi = np.cos(x) / (1.0 + 0.5 * np.sin(x) ** 2)
    psi /= math.sqrt(quadrature(psi**2, op.grid))
    vec = eigenvectors(op, spec.eigenvalues)[0]
    if vec[len(vec) // 2] < 0:
        vec = -vec
    assert np.max(np.abs(vec - psi)) < 1e-4


def test_cached_spectra_are_read_only():
    # a caller that edits a cached spectrum would poison every later comparison
    spec = verif.deformed_spectrum(catalog.ENTRIES["box"], {"alpha": 0.5}, 2)
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 0.0
    op = _box_operator(0.5, 401)
    vecs = eigenvectors(op, eigenpairs(op, 2).eigenvalues)
    with pytest.raises(ValueError):
        vecs[0, 1] = 0.0


def test_eigenvector_orthonormality_under_quadrature():
    op = _box_operator(0.5, 4001)
    vectors = eigenvectors(op, eigenpairs(op, 4).eigenvalues)
    G = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            G[i, j] = quadrature(vectors[i] * vectors[j], op.grid)
    assert np.max(np.abs(G - np.eye(4))) < 1e-8


def test_vonroos_constant_mass_matches_deformed():
    grid = Grid(Interval(0.0, 2.0), 101)
    v = lambda x: np.sin(np.asarray(x))
    flat = DeformingFunction("trig_sin", {"alpha": 0.0})
    a = discretize_vonroos(flat, oracle.DEFORMED, v, grid)
    b = discretize_vonroos(flat, AmbiguityParams.preset("bdd"), v, grid)
    assert np.array_equal(a.diag, b.diag) and np.array_equal(a.off, b.off)


def _reference_deformed(df, v_eff, grid):
    # the deformed stencil as first written, in sqrt(f), kept to pin the
    # ordered stencil at DEFORMED bit for bit
    x = grid.nodes()
    h = grid.spacing
    f = np.asarray(df.f(x[1:-1]), dtype=float)
    fm = np.asarray(df.f(grid.midpoints()), dtype=float)
    s = np.sqrt(f)
    diag = f * (fm[1:] + fm[:-1]) / h**2 + np.asarray(v_eff(x[1:-1]), dtype=float)
    off = -s[:-1] * fm[1:-1] * s[1:] / h**2
    sb = np.sqrt(np.asarray(df.f(x[[0, -1]]), dtype=float))
    return diag, off, -s[0] * fm[0] * sb[0] / h**2, -s[-1] * fm[-1] * sb[1] / h**2


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_deformed_operator_matches_reference_stencil(name):
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    df, v_eff = entry.deforming(params), entry.v_eff(params)
    pair = [Grid(entry.equivalence_interval, n) for n in (verif._PAIR_POINTS, 2 * verif._PAIR_POINTS - 1)]
    for grid in [verif.oracle_grid(entry, params)] + pair + [verif.oracle_grid(entry, params, 16001)]:
        op = discretize_vonroos(df, oracle.DEFORMED, v_eff, grid)
        diag, off, left, right = _reference_deformed(df, v_eff, grid)
        assert np.array_equal(op.diag, diag) and np.array_equal(op.off, off)
        # the couplings multiply the same three factors, the left one in another order
        assert abs(op.left_coupling - left) <= 2.0 * math.ulp(left) and op.right_coupling == right


def _pin_points(entry):
    # the defaults and two seeded draws, each default scaled by e^U, U in [-0.3, 0.3]
    yield dict(entry.default_params)
    rng = np.random.default_rng(sum(map(ord, entry.name)))
    drawn = 0
    for _ in range(100):
        params = {k: v * math.exp(rng.uniform(-0.3, 0.3)) for k, v in entry.default_params.items()}
        try:
            entry.validate(params)
        except PdemError:
            continue
        yield params
        drawn += 1
        if drawn == 2:
            return
    raise AssertionError(f"no valid draw for {entry.name}")


def _reference_vonroos(df, amb, v_eff, grid):
    # the stencil and the recovered potential as each ordering once built them
    # alone: f at the nodes, f at grid.midpoints(), V~ from deforming_eval
    x = grid.nodes()
    h = grid.spacing
    f = np.asarray(df.f(x), dtype=float)
    B = np.asarray(df.f(grid.midpoints()), dtype=float) ** amb.eta
    v = deforming_eval(df, x[1:-1])
    V = np.asarray(v_eff(x[1:-1])) - (amb.rho * v.f * v.f_second + amb.sigma * v.f_prime**2)
    A, C = f**amb.xi, f**amb.zeta
    edge = -0.5 * (A[:-1] * B * C[1:] + C[:-1] * B * A[1:]) / h**2
    diag = f[1:-1] ** (amb.xi + amb.zeta) * (B[1:] + B[:-1]) / h**2 + V
    return diag, edge[1:-1], edge[0], edge[-1]


@pytest.mark.bitpin
@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_pair_operators_match_per_ordering_builds(name):
    # f, V_eff, f' and f'' evaluated once per pair grid for both orderings give
    # the bits of building each ordering alone, and so does discretize_vonroos
    entry = catalog.ENTRIES[name]
    for params in _pin_points(entry):
        df, v_eff = entry.deforming(params), entry.v_eff(params)
        for preset in PRESETS:
            amb = AmbiguityParams.preset(preset)
            pair = verif.Request(entry, params).pair(amb)
            assert [ops[0].grid for ops in pair] == [
                Grid(entry.equivalence_interval, n) for n in (verif._PAIR_POINTS, 2 * verif._PAIR_POINTS - 1)
            ]
            for ops in pair:
                for ordering, op in zip((amb, oracle.DEFORMED), ops):
                    want = _reference_vonroos(df, ordering, v_eff, op.grid)
                    alone = verif._operator(entry, params, ordering, op.grid)
                    for got in (op, alone):
                        assert op.grid == got.grid
                        got_parts = (got.diag, got.off, got.left_coupling, got.right_coupling)
                        assert [_bits(a) for a in got_parts] == [_bits(b) for b in want], (params, preset, ordering)


# the battery's checks that read its one shared Request
_REQUEST_CHECKS = (
    "counting_vs_admissibility", "ground_ratio_spread", "a_minus_residual", "eigen_residual",
    "equivalence_deviation", "spectral_equivalence", "oracle_comparison",
)


def _same_bits(a, b):
    # equal bit for bit, floats and arrays by their bytes (so NaN payloads and
    # signed zeros count), recursing into dicts, lists, tuples and verdicts
    if isinstance(a, AdmissibilityVerdict):
        a, b = vars(a), vars(b)
    if isinstance(a, dict):
        return type(b) is dict and list(a) == list(b) and all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, (float, np.floating, np.ndarray)):
        return type(a) is type(b) and np.shape(a) == np.shape(b) and _bits(a) == _bits(b)
    return type(a) is type(b) and a == b


@pytest.mark.bitpin
@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_battery_checks_match_a_fresh_request(name, monkeypatch):
    # every value the verify battery reports from its one shared Request has the
    # bits of the same check run alone on a fresh Request from a cold spectrum
    # cache: the request's lazily built levels and operators do not depend on
    # the order in which the checks read them
    entry = catalog.ENTRIES[name]
    calls = []
    for check in _REQUEST_CHECKS:

        def recorded(req, *args, real=getattr(verif, check)):
            value = real(req, *args)
            calls.append((real, req, args, value))
            return value

        monkeypatch.setattr(verif, check, recorded)
    for params in _pin_points(entry):
        calls.clear()
        monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
        for _ in verif.verify_entry(entry, params):
            pass
        assert {real.__name__ for real, *_ in calls} >= set(_REQUEST_CHECKS) - {"eigen_residual"}
        assert len({id(req) for _, req, _, _ in calls}) == 1 and type(calls[0][1]) is verif.Request
        for real, _, args, value in calls:
            monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
            assert _same_bits(real(verif.Request(entry, params), *args), value), (params, real.__name__, args)


def test_equivalence_deviation_builds_two_operators(monkeypatch):
    # two on each grid of the pair
    built = []

    def counted(df, orderings, v, grid, real=oracle._stencil):
        built.extend((ordering, grid.n_points) for ordering in orderings)
        return real(df, orderings, v, grid)

    monkeypatch.setattr(verif, "_stencil", counted)
    monkeypatch.setattr(oracle, "_stencil", counted)
    entry = catalog.ENTRIES["scarf_i"]
    amb = AmbiguityParams.preset("bdd")
    verif.equivalence_deviation(verif.Request(entry, dict(entry.default_params)), amb)
    pair = (verif._PAIR_POINTS, 2 * verif._PAIR_POINTS - 1)
    assert built == [(ordering, n) for n in pair for ordering in (amb, oracle.DEFORMED)]


def test_battery_builds_each_ordering_operator_once(monkeypatch):
    # both ordering checks of one battery read the same four operators
    built = []

    def counted(df, orderings, v, grid, real=oracle._stencil):
        built.extend((ordering, grid) for ordering in orderings)
        return real(df, orderings, v, grid)

    monkeypatch.setattr(verif, "_stencil", counted)
    monkeypatch.setattr(oracle, "_stencil", counted)
    monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
    entry = catalog.ENTRIES["morse"]
    for _ in verif.verify_entry(entry, dict(entry.default_params)):
        pass
    amb = AmbiguityParams.preset("bdd")
    pair = (verif._PAIR_POINTS, 2 * verif._PAIR_POINTS - 1)
    on_pair = [(ordering, grid.n_points) for ordering, grid in built if grid.interval == entry.equivalence_interval]
    assert on_pair == [(ordering, n) for n in pair for ordering in (amb, oracle.DEFORMED)]


@pytest.mark.parametrize("name", ("box", "morse", "oscillator_3d"))
def test_equivalence_deviation_pairs_nodes_at_the_same_x(name):
    # reference: match each coarse interior node to the fine node at its x
    entry = catalog.ENTRIES[name]
    params, amb = dict(entry.default_params), AmbiguityParams.preset("bastard")
    dev, x = [], []
    for n in (verif._PAIR_POINTS, 2 * verif._PAIR_POINTS - 1):
        grid = Grid(entry.equivalence_interval, n)
        ops = (verif._operator(entry, params, amb, grid), verif._operator(entry, params, oracle.DEFORMED, grid))
        dev.append(oracle._battery_deviation(*ops))
        x.append(grid.nodes()[1:-1])
    (d_h, _), (d_h2, scale) = dev
    at = np.rint((x[0][2:-2] - x[1][0]) / (x[1][1] - x[1][0])).astype(int)
    assert np.allclose(x[1][at], x[0][2:-2], rtol=0.0, atol=1e-9)
    want = np.max(np.abs(4.0 * d_h2[:, at] - d_h[:, 2:-2])) / 3.0 / scale
    assert verif.equivalence_deviation(verif.Request(entry, params), amb)["rel_dev"] == pytest.approx(want, rel=1e-12)


def test_guards():
    grid = Grid(Interval(-math.pi / 2, math.pi / 2), 101)
    bad = DeformingFunction("trig_sin2", {"alpha": -1.5})
    with pytest.raises(NonPositiveError):
        discretize_vonroos(bad, oracle.DEFORMED, lambda x: np.zeros_like(np.asarray(x)), grid)
    flat = DeformingFunction("trig_sin", {"alpha": 0.0})
    with pytest.raises(SingularPotential):
        discretize_vonroos(flat, oracle.DEFORMED, lambda x: np.full_like(np.asarray(x), 1e15), grid)


def _equivalence_cases():
    for name in sorted(catalog.ENTRIES):
        entry = catalog.ENTRIES[name]
        yield name, dict(entry.default_params)
    yield "eckart", {"A": 1.5, "B": 2.5, "alpha": -2.0}
    # scan points whose single-grid gap exceeded 1e-6 before the Richardson pair
    yield "morse", {"A": 1.0832, "B": 0.9487, "alpha": 1.4426}
    yield "morse", {"A": 0.5616, "B": 1.1535, "alpha": 1.4487}


@pytest.mark.parametrize("name,params", list(_equivalence_cases()), ids=lambda v: str(v))
def test_spectral_equivalence_all_presets(name, params):
    # ordered form on the recovered V vs deformed form on V_eff, same grid
    entry = catalog.ENTRIES[name]
    for preset in PRESETS:
        res = verif.spectral_equivalence(verif.Request(entry, params), AmbiguityParams.preset(preset))
        assert res is not None, (name, preset)
        assert res["max_rel_dev"] < 1e-6, (name, preset, res)


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_spectral_equivalence_pair_is_second_order(name):
    # D(h)/D(h/2) near 4 on every level: the reported value is the extrapolated one
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    for preset in PRESETS:
        res = verif.spectral_equivalence(verif.Request(entry, params), AmbiguityParams.preset(preset))
        assert all(3.0 <= r <= 5.0 for r in res["order_ratio"]), (name, preset, res)
        assert res["reported"] == ["richardson"] * res["levels"]
        assert len(res["d_h"]) == len(res["d_h2"]) == res["levels"]


def test_spectral_equivalence_keeps_its_power(monkeypatch):
    # V~ off by 1e-4 in the von Roos potential must read above the 1e-6 tolerance
    def perturbed(amb, *derivatives, real=verif._v_tilde):
        return (1.0 + 1e-4) * real(amb, *derivatives)

    monkeypatch.setattr(verif, "_v_tilde", perturbed)
    monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
    for name in sorted(catalog.ENTRIES):
        entry = catalog.ENTRIES[name]
        res = verif.spectral_equivalence(verif.Request(entry, dict(entry.default_params)), AmbiguityParams.preset("bastard"))
        assert res["max_rel_dev"] > 1e-6, (name, res)


# the pointwise check at the defaults under bastard with V~ off by 1e-4, on one
# recipe grid per entry (4,001 to 16,001 points) before the check moved to the pair
_SINGLE_GRID_POWER = {
    "box": 7.812e-6, "coulomb": 3.375e-8, "eckart": 2.822e-10, "hyperbolic_poschl_teller": 3.444e-5,
    "morse": 2.978e-5, "oscillator_3d": 5.939e-8, "rosen_morse_i": 2.489e-9, "scarf_i": 8.170e-11,
    "shifted_oscillator": 1.354e-6, "trig_poschl_teller": 5.058e-10,
}


def test_ordering_identity_keeps_its_power(monkeypatch):
    # the error V~ eps does not depend on h, so the Richardson value keeps it
    def perturbed(amb, *derivatives, real=verif._v_tilde):
        return (1.0 + 1e-4) * real(amb, *derivatives)

    monkeypatch.setattr(verif, "_v_tilde", perturbed)
    amb = AmbiguityParams.preset("bastard")
    for name, single_grid in _SINGLE_GRID_POWER.items():
        entry = catalog.ENTRIES[name]
        rel = verif.equivalence_deviation(verif.Request(entry, dict(entry.default_params)), amb)["rel_dev"]
        assert rel >= single_grid / 2.0, (name, rel)
        if name in ("morse", "hyperbolic_poschl_teller"):
            assert rel > 1e-5, (name, rel)  # the verify tolerance


def test_richardson_gate_on_synthetic_levels():
    # order ratios 4, 2 and 6, then E2 = E3 and E1 = E2 = E3; dyadic steps keep the ratios exact
    e3 = np.array([1.0, 1.0, 1.0, 2.0, 3.0])
    e2 = e3 + 2.0**-10 * np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    e1 = e2 + 2.0**-10 * np.array([4.0, 2.0, 6.0, 1.0, 0.0])
    value, ratio, reported = verif._richardson(e2, e3, e1 - e2, e2 - e3)
    assert reported == ["richardson", "fine", "fine", "fine", "fine"]
    assert ratio[:3].tolist() == [4.0, 2.0, 6.0]
    assert value[0] == (4.0 * e3[0] - e2[0]) / 3.0
    assert value[1:].tolist() == e3[1:].tolist()


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_energy_oracle_is_second_order(name):
    # every trusted default level converges at O(h^2) across the triple
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    ovc = verif.oracle_vs_chain(entry, params)
    if name == "hyperbolic_poschl_teller":
        assert ovc is None  # no trusted level
        return
    assert ovc["grids"] == verif.oracle_grid_sizes(entry, params)
    assert ovc["reported"] == ["richardson"] * ovc["levels"]
    assert all(3.0 <= r <= 5.0 for r in ovc["order_ratio"]), ovc["order_ratio"]


def test_requests_for_one_matrix_share_one_solve(monkeypatch):
    # box: the deformed and von Roos solves on each grid of the equivalence pair,
    # whose deformed solves are also the energy triple's 501- and 1,001-point
    # grids, and the triple's 251-point solve; no matrix twice
    calls = _count_solves(monkeypatch)
    entry = catalog.ENTRIES["box"]
    params = dict(entry.default_params)
    for _ in verif.verify_entry(entry, params):
        pass
    pair = 2 * verif._PAIR_POINTS - 1
    assert sorted(op.grid.n_points for op, _ in calls) == [251] + [verif._PAIR_POINTS] * 2 + [pair] * 2
    assert len(verif._SPECTRUM_CACHE) == len(calls)  # each solve filled its own (operator, grid, k) key
    assert len(calls) == 5


def _count_solves(monkeypatch):
    solve, calls = verif.eigenpairs, []

    def counted(op, k, *args, **kwargs):
        calls.append((op, k))
        return solve(op, k, *args, **kwargs)

    monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
    monkeypatch.setattr(verif, "eigenpairs", counted)
    return calls


def test_vectors_reuse_the_cached_eigenvalues(monkeypatch):
    calls = _count_solves(monkeypatch)
    entry = catalog.ENTRIES["box"]
    params = dict(entry.default_params)
    spec = verif.deformed_spectrum(entry, params, 4, n_override=2001)
    with_vectors = verif.deformed_spectrum(entry, params, 4, n_override=2001, want_vectors=True)
    assert len(calls) == 1
    assert with_vectors.eigenvalues is spec.eigenvalues
    op = discretize_vonroos(entry.deforming(params), oracle.DEFORMED, entry.v_eff(params), verif.oracle_grid(entry, params, 2001))
    assert np.array_equal(with_vectors.eigenvectors, eigenvectors(op, eigenpairs(op, 4).eigenvalues))


def test_vectors_on_a_cache_miss_build_one_operator(monkeypatch):
    # the solve and the vectors share one discretization
    builds = []
    monkeypatch.setattr(verif, "_stencil", lambda *args: builds.append(args) or oracle._stencil(*args))
    monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
    entry = catalog.ENTRIES["box"]
    spec = verif.deformed_spectrum(entry, dict(entry.default_params), 4, n_override=2001, want_vectors=True)
    assert len(builds) == 1 and spec.eigenvectors.shape == (4, 2001)


def _count_builds(monkeypatch):
    # the grids of every operator build (one per ordering) and of every sweep-array build
    builds = {"stencil": [], "sweep_arrays": []}

    def stencil(df, orderings, v, grid, real=oracle._stencil):
        builds["stencil"] += [grid] * len(orderings)
        return real(df, orderings, v, grid)

    def sweep_arrays(op, real=oracle._sweep_arrays):
        builds["sweep_arrays"].append(op.grid)
        return real(op)

    monkeypatch.setattr(verif, "_stencil", stencil)
    monkeypatch.setattr(oracle, "_sweep_arrays", sweep_arrays)
    monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
    return builds


def test_vectors_after_spectrum_oracle_reuse_its_operator(monkeypatch, capsys):
    # spectrum --oracle on one grid, then the vectors of that grid: one
    # operator and one pair of sweep arrays between them, and the vectors
    # release the operator they took
    builds = _count_builds(monkeypatch)
    entry = catalog.ENTRIES["box"]
    params = dict(entry.default_params)
    monkeypatch.setenv("PDEM_GRID_N", "2001")
    assert cli.main(["spectrum", "--potential", "box", "--n-levels", "4", "--oracle"]) == 0
    capsys.readouterr()
    spec = verif.deformed_spectrum(entry, params, 4, n_override=2001, want_vectors=True)
    grid = verif.oracle_grid(entry, params, 2001)
    assert spec.eigenvectors.shape == (4, 2001)
    assert builds["stencil"].count(grid) == 1
    assert builds["sweep_arrays"] == [grid]
    assert all(op is None for _, op in verif._SPECTRUM_CACHE.values())


def test_cleared_cache_drops_the_kept_operator(monkeypatch):
    # clear() is the benchmark's reset before each pass: it frees the kept
    # operator, and the vectors of the grid just solved solve and build again
    builds = _count_builds(monkeypatch)
    entry = catalog.ENTRIES["box"]
    params = dict(entry.default_params)
    verif.deformed_spectrum(entry, params, 4, n_override=2001)
    [(_, op)] = verif._SPECTRUM_CACHE.values()
    kept = weakref.ref(op)
    del op
    verif._SPECTRUM_CACHE.clear()
    gc.collect()
    assert kept() is None
    spec = verif.deformed_spectrum(entry, params, 4, n_override=2001, want_vectors=True)
    assert len(builds["stencil"]) == len(builds["sweep_arrays"]) == 2
    assert spec.eigenvectors.shape == (4, 2001)


def test_cache_keeps_only_the_latest_operator(monkeypatch):
    # after solves on two grids only the second holds its operator; the
    # vectors of the first build theirs again
    builds = _count_builds(monkeypatch)
    entry = catalog.ENTRIES["box"]
    params = dict(entry.default_params)
    for n in (1001, 2001):
        verif.deformed_spectrum(entry, params, 4, n_override=n)
    assert len(verif._SPECTRUM_CACHE) == 2
    kept = [(key[3].n_points, op) for key, (_, op) in verif._SPECTRUM_CACHE.items()]
    assert kept[0] == (1001, None) and kept[1][0] == 2001 and kept[1][1] is not None
    verif.deformed_spectrum(entry, params, 4, n_override=1001, want_vectors=True)
    assert [grid.n_points for grid in builds["stencil"]] == [1001, 2001, 1001]
    assert [key[3].n_points for key, (_, op) in verif._SPECTRUM_CACHE.items() if op is not None] == [2001]


@pytest.mark.bitpin
@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_vectors_on_the_kept_operator_match_a_fresh_operator(name, monkeypatch):
    # the eigenvalues and vectors read from the solve's kept operator and its
    # sweep arrays have the bits of a fresh discretize_vonroos operator's
    builds = _count_builds(monkeypatch)
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    verif.deformed_spectrum(entry, params, 4)
    spec = verif.deformed_spectrum(entry, params, 4, want_vectors=True)
    assert len(builds["stencil"]) == len(builds["sweep_arrays"]) == 1
    op = discretize_vonroos(entry.deforming(params), oracle.DEFORMED, entry.v_eff(params), verif.oracle_grid(entry, params))
    eigvals = eigenpairs(op, 4).eigenvalues
    assert _bits(spec.eigenvalues) == _bits(eigvals)
    assert _bits(spec.eigenvectors) == _bits(eigenvectors(op, eigvals))


def test_deformed_operators_skip_the_slopes(monkeypatch):
    # V~ vanishes at DEFORMED, so a DEFORMED-only build never evaluates f' and
    # f''; the ordering pair still evaluates them once per grid
    calls = []
    real = DeformingFunction._slopes
    monkeypatch.setattr(DeformingFunction, "_slopes", lambda df, x: calls.append(len(x)) or real(df, x))
    for name in sorted(catalog.ENTRIES):
        entry = catalog.ENTRIES[name]
        params = dict(entry.default_params)
        calls.clear()
        verif._operators(entry, params, (oracle.DEFORMED,), verif.oracle_grid(entry, params))
        assert calls == [], name
        verif.Request(entry, params).pair(AmbiguityParams.preset("bdd"))
        assert calls == [verif._PAIR_POINTS - 2, 2 * verif._PAIR_POINTS - 3], name


def test_equivalence_solves_only_the_levels_it_compares(monkeypatch):
    # Morse binds one level below the continuum edge: neither operator is solved for 4
    calls = _count_solves(monkeypatch)
    entry = catalog.ENTRIES["morse"]
    params = dict(entry.default_params)
    for _ in verif.verify_entry(entry, params):
        pass
    levels = verif.spectral_equivalence(verif.Request(entry, params), AmbiguityParams.preset("bdd"))["levels"]
    assert levels < 4
    for n in (verif._PAIR_POINTS, 2 * verif._PAIR_POINTS - 1):
        grid = Grid(entry.equivalence_interval, n)
        deformed = discretize_vonroos(entry.deforming(params), oracle.DEFORMED, entry.v_eff(params), grid)
        on_grid = [(op, k) for op, k in calls if op.grid == grid]
        assert len(on_grid) == 2  # deformed and von Roos
        assert all(k == levels for _, k in on_grid)
        assert any(np.array_equal(op.diag, deformed.diag) for op, _ in on_grid)


def test_eigenvectors_converge_on_fine_grid():
    # at N = 8001 the rounding floor of T v lies above 1e-8 |lambda|
    entry = catalog.ENTRIES["box"]
    params = {"alpha": 0.5}
    grid = verif.oracle_grid(entry, params, 8001)
    op = discretize_vonroos(entry.deforming(params), oracle.DEFORMED, entry.v_eff(params), grid)
    vectors = eigenvectors(op, eigenpairs(op, 4).eigenvalues)
    x = grid.nodes()
    for n in range(4):
        psi = np.concatenate([[0.0], excited_state_eval(entry, params, n, x[1:-1]), [0.0]])
        _, psi = normalize(psi, grid)
        assert 1.0 - abs(quadrature(psi * vectors[n], grid)) < 1e-12, n


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_eigenpairs_match_lapack(name):
    # the default LAPACK tolerance is too loose where ||T|| reaches ~1e14
    # (hyperbolic Poschl-Teller, Morse): ask stebz for full accuracy; the
    # vectors are compared up to sign on the recipe grid and at N = 16001
    linalg = pytest.importorskip("scipy.linalg")
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    for n_points in (None, 16001):
        grid = verif.oracle_grid(entry, params, n_points)
        op = discretize_vonroos(entry.deforming(params), oracle.DEFORMED, entry.v_eff(params), grid)
        spec = eigenpairs(op, 4)
        ref, U = linalg.eigh_tridiagonal(op.diag, op.off, select="i", select_range=(0, 3), tol=1e-300)
        got = spec.eigenvalues
        if n_points is None:  # at N = 16001 the counts' backward error eps ||T|| is 2.6e-8 for box
            assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref))), (got, ref)
        for n, vec in enumerate(eigenvectors(op, spec.eigenvalues)):
            u = np.concatenate([[0.0], U[:, n], [0.0]])
            u /= math.sqrt(quadrature(u * u, grid))
            dev = min(np.max(np.abs(vec - u)), np.max(np.abs(vec + u)))
            assert dev <= 5e-9 * np.max(np.abs(u)), (n_points, n, dev)


def test_vector_that_misses_the_residual_bound_raises(monkeypatch):
    # a NaN residual must fail the acceptance test as well as a large one
    op = _box_operator(0.5, 401)
    for bad in (np.ones, lambda shape: np.full(shape, np.nan)):
        rows = lambda op, lams, bad=bad: np.pad(bad((len(lams), op.n)), ((0, 0), (1, 1)))
        monkeypatch.setattr(oracle, "_twisted_rows", rows)
        with pytest.raises(ConvergenceError):
            eigenvectors(op, eigenpairs(op, 2).eigenvalues)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_vonroos_eigenpairs_match_lapack(name, preset):
    # the mass-ordered form on the recovered V, on the fine grid of the pair
    # that ``ordered vs deformed spectra`` solves it on
    linalg = pytest.importorskip("scipy.linalg")
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    df, amb, v_eff = entry.deforming(params), AmbiguityParams.preset(preset), entry.v_eff(params)
    grid = Grid(entry.equivalence_interval, 2 * verif._PAIR_POINTS - 1)
    op = discretize_vonroos(df, amb, lambda x: recover_initial_potential(df, amb, v_eff, x), grid)
    got = eigenpairs(op, 4).eigenvalues
    ref = linalg.eigh_tridiagonal(op.diag, op.off, eigvals_only=True, select="i", select_range=(0, 3), tol=1e-300)
    assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref))), (got, ref)


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_eigenvalues_sit_in_certified_brackets(name):
    # each lambda_m is the midpoint of a bracket of relative width <= 1e-12
    # whose ends count m - 1 and m eigenvalues below them
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    op = discretize_vonroos(entry.deforming(params), oracle.DEFORMED, entry.v_eff(params), verif.oracle_grid(entry, params))
    got = eigenpairs(op, 4).eigenvalues
    for m, lam in enumerate(got, start=1):
        w = 1e-12 * max(1.0, abs(lam)) + 4.0 * math.ulp(lam)
        assert sturm_count(op, lam - w) <= m - 1, (m, lam)
        assert sturm_count(op, lam + w) >= m, (m, lam)
    # a solve for fewer levels gives the same bits: caches and level counts rest on it
    for j in range(1, 4):
        assert np.array_equal(eigenpairs(op, j).eigenvalues, got[:j]), j


def test_sweeps_per_level_bounded(monkeypatch):
    # counts plus slope sweeps; bisecting each level separately from the
    # Gershgorin bounds takes about 62 per level on this operator; every
    # shift of a fused pass counts
    shifts = _record_sweeps(monkeypatch)
    spec = eigenpairs(_box_operator(0.5, 4001), 4)
    n_shifts = len(shifts["_count"]) + len(shifts["_count_slope"])
    assert n_shifts <= 24 * 4, n_shifts
    assert np.allclose(spec.eigenvalues, [1.5 * (n + 1) ** 2 for n in range(4)], rtol=1e-4)


def _reference_pivots(d, e2, t):
    # the pivot sweep as first written, kept to pin the faster one bit for bit
    out = []
    q = d[0] - t
    for dj, ej in zip(d[1:], e2):
        out.append(q if not -oracle._PIVMIN < q < oracle._PIVMIN else -oracle._PIVMIN)
        q = dj - t - ej / out[-1]
    out.append(q if not -oracle._PIVMIN < q < oracle._PIVMIN else -oracle._PIVMIN)
    return out


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_eigenvectors_match_reference_pivot_sweep(name, monkeypatch):
    # the vectors as the solver builds them, against those built on the list
    # sweep arrays, where both pivot sweeps are the reference sweep
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    df, v_eff, grid = entry.deforming(params), entry.v_eff(params), verif.oracle_grid(entry, params)
    op = discretize_vonroos(df, oracle.DEFORMED, v_eff, grid)
    eigvals = eigenpairs(op, 4).eigenvalues
    got = eigenvectors(op, eigvals)
    # on a fresh operator, since op keeps the sweep arrays it has built;
    # both pivot sweeps of each vector run on lists
    sweeps = []

    def lists(op):
        sweeps.append("lists")
        return op.diag.tolist(), [e**2 for e in map(float, op.off)]

    def pivots(d, e2, t):
        sweeps.append("pivots")
        return _reference_pivots(d, e2, t)

    monkeypatch.setattr(oracle, "_sweep_arrays", lists)
    monkeypatch.setattr(oracle, "_pivots", pivots)
    assert np.array_equal(got, eigenvectors(discretize_vonroos(df, oracle.DEFORMED, v_eff, grid), eigvals))
    assert sweeps == ["lists"] + ["pivots"] * (2 * len(eigvals))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_kernel_sweeps_match_python_sweeps(name):
    # the compiled sweep against the Python loops, which run on lists: counts
    # and slopes bit for bit at seeded shifts, 1 and 1,000 ulps either side of
    # the lowest levels, and at d[0], whose zero pivot becomes -pivmin, first
    # in passes of one lane (_count and _count_slope on kernel arrays), then
    # in every lane of passes of 1 to 8 shifts at every split between slope
    # and count lanes, and over all the shifts at once, which it takes 8 at a
    # time
    if not oracle._kernel():
        pytest.skip("the sweep kernel cannot be built here")
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    rng = np.random.default_rng(11)
    for n_points in (251, 1001, 4001):
        grid = verif.oracle_grid(entry, params, n_points)
        op = discretize_vonroos(entry.deforming(params), oracle.DEFORMED, entry.v_eff(params), grid)
        d, e2 = oracle._sweep_arrays(op)
        ref_d, ref_e2 = op.diag.tolist(), [e**2 for e in map(float, op.off)]
        assert isinstance(d, ctypes.Array) and isinstance(e2, ctypes.Array)
        assert _bits(d) == _bits(ref_d) and _bits(e2) == _bits(ref_e2)
        lams = eigenpairs(op, 4).eigenvalues.tolist()
        w = lams[3] - lams[0] + 1.0
        shifts = rng.uniform(*op.gershgorin(), 8).tolist() + rng.uniform(lams[0] - w, lams[3] + w, 8).tolist()
        shifts += [lam + k * math.ulp(lam) for lam in lams for k in (-1000, -1, 1, 1000)] + [ref_d[0]]
        counts, slopes = [], []
        for t in shifts:
            counts.append(oracle._count(ref_d, ref_e2, t))
            assert oracle._count(d, e2, t) == counts[-1], (n_points, t)
            (c, slope), (ref_c, ref_slope) = oracle._count_slope(d, e2, t), oracle._count_slope(ref_d, ref_e2, t)
            assert c == ref_c == counts[-1] and _bits(slope) == _bits(ref_slope), (n_points, t)
            slopes.append(_bits(ref_slope))
        for m in (*range(1, 9), len(shifts)):
            for ms in range(m + 1):
                got_counts, got_slopes = [], []
                for i in range(0, len(shifts), m):
                    c, slope = oracle._lanes(d, e2, shifts[i : i + m], ms)
                    got_counts += c
                    got_slopes += map(_bits, slope)
                assert got_counts == counts, (n_points, m, ms)
                assert got_slopes == [slopes[i] for i in range(len(shifts)) if i % m < ms], (n_points, m, ms)


def test_kernel_lanes_replace_a_zero_pivot_inside_the_sweep():
    # at t = 0 the second pivot of d = [1, 1, 1, 1], e2 = [1, 1, 1] is 1 - 1/1 =
    # 0, and becomes -pivmin; every pass of 1 to 8 shifts, with t = 0 at every
    # subset of the lanes and the other lanes away from a zero pivot, at every
    # split between slope and count lanes, against the Python sweeps
    if not oracle._kernel():
        pytest.skip("the sweep kernel cannot be built here")
    ref_d, ref_e2 = [1.0] * 4, [1.0] * 3
    d, e2 = (ctypes.c_double * 4)(*ref_d), (ctypes.c_double * 3)(*ref_e2)
    assert oracle._pivots(ref_d, ref_e2, 0.0)[1] == -oracle._PIVMIN
    away = [0.5, -0.25, 2.0, 0.125, -3.0, 1.5, 0.75, -0.5]
    for m in range(1, 9):
        for zeros in range(1 << m):
            shifts = [0.0 if zeros >> i & 1 else away[i] for i in range(m)]
            counts = [oracle._count(ref_d, ref_e2, t) for t in shifts]
            slopes = [_bits(oracle._count_slope(ref_d, ref_e2, t)[1]) for t in shifts]
            for ms in range(m + 1):
                c, slope = oracle._lanes(d, e2, shifts, ms)
                assert c == counts and list(map(_bits, slope)) == slopes[:ms], (shifts, ms)


@pytest.mark.bitpin
@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_kernel_vectors_match_the_list_vectors(name):
    # the rows of sturm_vectors against _twisted_vector on the list sweep
    # arrays, bit for bit, for k = 1 to 6 eigenvalues: an odd k pairs the last
    # eigenvalue with itself
    if not oracle._kernel():
        pytest.skip("the sweep kernel cannot be built here")
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    op = discretize_vonroos(entry.deforming(params), oracle.DEFORMED, entry.v_eff(params), verif.oracle_grid(entry, params))
    lams = eigenpairs(op, 6).eigenvalues.tolist()
    ref_d, ref_e2 = op.diag.tolist(), [e**2 for e in map(float, op.off)]
    refs = [_bits(oracle._twisted_vector(op, ref_d, ref_e2, lam)) for lam in lams]
    for k in range(1, 7):
        rows = oracle._twisted_rows(op, lams[:k])
        assert rows.shape == (k, op.n + 2) and not rows[:, [0, -1]].any(), k
        assert [_bits(row[1:-1]) for row in rows] == refs[:k], k


# sha256 of the eigenvalue bytes of eigenpairs(op, k) at the defaults, for
# N = 1001, 4001 and k = 1, 4 in that order, as the solver gave them when
# each level finished its Newton steps before the next level started (x86-64)
_EIGENVALUE_DIGESTS = {
    "box": "568d09f738a36486e13a81048ad19a94765563fdce6ce8afdde504fe077df7f3",
    "coulomb": "43f1c331c01ac56d7ee836e1252a7daf93af44b6110dbd20554d53bb01094b15",
    "eckart": "c9b0dde0d4b0326a479bcba5c27bc761a683065064bf81be65d3149ee8e2c9c3",
    "hyperbolic_poschl_teller": "4f8e256ca77b59fbb5cfd7ad7aaa2115aa149d0883b3cda504d3f7affc84d8a5",
    "morse": "138a9772c791c8bb7a1248c55fad3ef41e92f5d5bb1cb07a9e82ecbfe0310080",
    "oscillator_3d": "822f1f67d28bc98f044f1978f9c0df7ee30b2bb6df724144ef637dc6e2935caf",
    "rosen_morse_i": "e86e41a266478e9aa881c1cab6d4ce361e9d5fa1956ba5741b6e4eca91957cf1",
    "scarf_i": "162325c9b6106c93c805a5816e8d3ce0723edec6c3ad34a3e3a26e5f83fa11c5",
    "shifted_oscillator": "00a87533f7987b3fdd2c1d534ae3a15b589ceab2c8a057018edfff71d864ffa0",
    "trig_poschl_teller": "7760fb783a906dea078f83ecc2116cad010c98175af2d3f7da1edc41fe7fdf66",
}


@pytest.mark.bitpin
@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_eigenvalue_bits_are_pinned(name):
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    digest = hashlib.sha256()
    for n_points in (1001, 4001):
        grid = verif.oracle_grid(entry, params, n_points)
        op = discretize_vonroos(entry.deforming(params), oracle.DEFORMED, entry.v_eff(params), grid)
        for k in (1, 4):
            digest.update(eigenpairs(op, k).eigenvalues.tobytes())
    assert digest.hexdigest() == _EIGENVALUE_DIGESTS[name]


# a fresh interpreter: is the kernel unloaded after the import, is it loaded
# after a solve, and the eigenvalue bits
_SOLVE_SCRIPT = """
from pdem_si import catalog, oracle, verification
print(oracle.__file__)
fresh = oracle._LIB is None
entry = catalog.ENTRIES["morse"]
spec = verification.deformed_spectrum(entry, dict(entry.default_params), 4, n_override=1001)
print(fresh, bool(oracle._LIB), spec.eigenvalues.tobytes().hex())
"""


def _package_copy(tmp_path):
    # the package without its __pycache__, so the kernel cache starts empty
    root = tmp_path / "site"
    shutil.copytree(Path(oracle.__file__).parent, root / "pdem_si", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tmp").mkdir()
    return root


def _start_solve(root, **env):
    env = dict(os.environ, PYTHONPATH=str(root), TMPDIR=str(root.parent / "tmp"), **env)
    return subprocess.Popen(
        [sys.executable, "-W", "error", "-c", _SOLVE_SCRIPT], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def _solve_output(proc, root):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == "", err
    where, result = out.splitlines()
    assert Path(where).is_relative_to(root)
    return result


def _cached_files(root):
    # what the package's __pycache__ holds besides bytecode
    return sorted(p.name for p in (root / "pdem_si" / "__pycache__").iterdir() if p.suffix != ".pyc")


def _morse_bits(monkeypatch):
    monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
    entry = catalog.ENTRIES["morse"]
    return verif.deformed_spectrum(entry, dict(entry.default_params), 4, n_override=1001).eigenvalues.tobytes().hex()


def _compiler(tmp_path, script):
    # PATH with a cc that runs ``script``, or with no cc at all where it is None
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if script is None:
        return str(bin_dir)
    (bin_dir / "cc").write_text(f"#!/bin/sh\n{script}\n")
    (bin_dir / "cc").chmod(0o755)
    return f"{bin_dir}{os.pathsep}{os.environ['PATH']}"


@pytest.mark.parametrize("case", ["failing compiler", "no compiler", "unwritable cache"])
def test_python_sweeps_stand_in_where_the_kernel_cannot_be_built(tmp_path, monkeypatch, case):
    # the same eigenvalue bits, with no exception, no warning (each would be an
    # error under -W error) and nothing built; __pycache__ as a plain file
    # cannot be written (even by root), and then cc is never run
    root = _package_copy(tmp_path)
    ran = tmp_path / "cc-ran"
    path = _compiler(tmp_path, None if case == "no compiler" else f"touch {ran}; exit 1")
    if case == "unwritable cache":
        (root / "pdem_si" / "__pycache__").write_text("")
    result = _solve_output(_start_solve(root, PATH=path), root)
    assert result == f"True False {_morse_bits(monkeypatch)}"
    assert ran.exists() == (case == "failing compiler")
    if case != "unwritable cache":
        assert _cached_files(root) == []
    assert not list((tmp_path / "tmp").iterdir())


def test_concurrent_first_builds_load_one_kernel(tmp_path, monkeypatch):
    # two interpreters that start together on an empty cache both build and
    # load the kernel, agree bit for bit, and leave one library behind
    if not oracle._kernel():
        pytest.skip("the sweep kernel cannot be built here")
    root = _package_copy(tmp_path)
    procs = [_start_solve(root), _start_solve(root)]
    results = [_solve_output(proc, root) for proc in procs]
    assert results == [f"True True {_morse_bits(monkeypatch)}"] * 2
    built = _cached_files(root)
    assert len(built) == 1 and built[0].startswith("_sturm.") and built[0].endswith(".so"), built
    assert not list((tmp_path / "tmp").iterdir())


def test_rebuild_deletes_the_stale_library(tmp_path, monkeypatch):
    # an edited source builds a library under a new key and deletes the old one
    if not oracle._kernel():
        pytest.skip("the sweep kernel cannot be built here")
    root = _package_copy(tmp_path)
    expected = f"True True {_morse_bits(monkeypatch)}"
    assert _solve_output(_start_solve(root), root) == expected
    first = _cached_files(root)
    with open(root / "pdem_si" / "_sturm.c", "a") as src:
        src.write("/* edited */\n")
    assert _solve_output(_start_solve(root), root) == expected
    second = _cached_files(root)
    assert len(first) == len(second) == 1 and first != second, (first, second)


def _assert_certified(op, eigvals):
    for m, lam in enumerate(eigvals, start=1):
        w = 1e-12 * max(1.0, abs(lam)) + 4.0 * math.ulp(lam)
        assert sturm_count(op, lam - w) <= m - 1, (m, lam)
        assert sturm_count(op, lam + w) >= m, (m, lam)


def _assert_near(got, cold):
    assert np.all(np.abs(got - cold) <= 1e-12 * np.maximum(1.0, np.abs(cold))), (got, cold)


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_warm_started_vonroos_levels_are_certified(name):
    # the deformed levels only seed the solve: the von Roos levels keep the
    # bracket bound and agree with a solve that starts from the Gershgorin
    # bounds, on the fine grid of the pair that ``ordered vs deformed spectra`` solves
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    grid = Grid(entry.equivalence_interval, 2 * verif._PAIR_POINTS - 1)
    deformed = eigenpairs(verif._operator(entry, params, oracle.DEFORMED, grid), 4).eigenvalues
    for preset in PRESETS:
        amb = AmbiguityParams.preset(preset)
        op = verif._operator(entry, params, amb, grid)
        warm = eigenpairs(op, 4, deformed.tolist()).eigenvalues
        _assert_certified(op, warm)
        _assert_near(warm, eigenpairs(op, 4).eigenvalues)


@pytest.mark.parametrize("name", ("box", "coulomb", "hyperbolic_poschl_teller"))
def test_bad_guesses_still_give_certified_levels(name):
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    op = verif._operator(entry, params, oracle.DEFORMED, Grid(entry.equivalence_interval, 2 * verif._PAIR_POINTS - 1))
    cold = eigenpairs(op, 4).eigenvalues
    for guess in (1.1 * cold, cold[::-1], np.repeat(cold, 2), [math.nan, -math.inf, cold[1]], []):
        got = eigenpairs(op, 4, guess=guess).eigenvalues
        _assert_certified(op, got)
        _assert_near(got, cold)


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_vonroos_spectrum_does_not_depend_on_the_cache(name, monkeypatch):
    # from a cold cache, and with the fine deformed solve already cached
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    amb = AmbiguityParams.preset("bdd")
    monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
    cold = verif.spectral_equivalence(verif.Request(entry, params), amb)
    monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
    fine = Grid(entry.equivalence_interval, 2 * verif._PAIR_POINTS - 1)
    verif._cached_solve(entry, params, oracle.DEFORMED, fine, cold["levels"])
    warm = verif.spectral_equivalence(verif.Request(entry, params), amb)
    assert warm["d_h"] == cold["d_h"] and warm["d_h2"] == cold["d_h2"]


def _record_sweeps(monkeypatch):
    # (shift, N) of every sweep; a count lane of a fused pass (``_lanes``)
    # counts as a count and a slope lane as a slope sweep, and "passes" holds
    # one N per pass over the matrix, of up to 8 lanes
    shifts = {"_count": [], "_count_slope": [], "passes": []}
    for name in ("_count", "_count_slope"):
        sweep, seen = getattr(oracle, name), shifts[name]

        def single(d, e2, t, sweep=sweep, seen=seen):
            seen.append((t, len(d)))
            shifts["passes"].append(len(d))
            return sweep(d, e2, t)

        monkeypatch.setattr(oracle, name, single)
    fused = oracle._lanes

    def lanes(d, e2, ts, ms):
        if isinstance(d, ctypes.Array) and len(ts) > 1:  # else _lanes runs the recorded single sweeps
            shifts["_count_slope"].extend((t, len(d)) for t in ts[:ms])
            shifts["_count"].extend((t, len(d)) for t in ts[ms:])
            shifts["passes"].extend([len(d)] * -(-len(ts) // 8))
        return fused(d, e2, ts, ms)

    monkeypatch.setattr(oracle, "_lanes", lanes)
    monkeypatch.setattr(verif, "_SPECTRUM_CACHE", {})
    return shifts


def test_sweep_shifts_are_floats(monkeypatch):
    # a numpy scalar shift would make every later sweep step a numpy operation
    shifts = _record_sweeps(monkeypatch)
    for name in ("box", "coulomb"):
        entry = catalog.ENTRIES[name]
        for _ in verif.verify_entry(entry, dict(entry.default_params)):
            pass
    assert shifts["_count"] and shifts["_count_slope"]
    assert all(type(t) is float for name in ("_count", "_count_slope") for t, _ in shifts[name])


def test_single_shift_rounds_run_the_recorded_sweeps(monkeypatch):
    # a k = 1 solve on kernel arrays runs its single-shift rounds through
    # oracle._count and oracle._count_slope, which _record_sweeps and the
    # benchmark tracer count: a kernel call past them would pass the work
    # gates with counts that read low
    if not oracle._kernel():
        pytest.skip("the sweep kernel cannot be built here")
    op = _box_operator(0.5, 2001)
    want = eigenpairs(op, 1).eigenvalues
    seen = {"_count": 0, "_count_slope": 0}
    for name in seen:

        def counted(d, e2, t, sweep=getattr(oracle, name), name=name):
            assert isinstance(d, ctypes.Array)
            seen[name] += 1
            return sweep(d, e2, t)

        monkeypatch.setattr(oracle, name, counted)
    assert np.array_equal(eigenpairs(op, 1).eigenvalues, want)
    assert seen["_count"] > 0 and seen["_count_slope"] > 0, seen


def test_solver_work_in_verify_all(monkeypatch):
    # the deterministic sweep counters of ``verify --potential all``; a slope
    # sweep is weighted 1.8 counts, though in C a slope lane costs 1.16-1.19
    # count lanes at N = 2001-16001, both bound by the same chain of divisions
    shifts = _record_sweeps(monkeypatch)
    for name in sorted(catalog.ENTRIES):
        entry = catalog.ENTRIES[name]
        for _ in verif.verify_entry(entry, dict(entry.default_params)):
            pass
    counts, slopes, passes = shifts["_count"], shifts["_count_slope"], shifts["passes"]
    slope_steps = sum(n for _, n in slopes)
    steps = sum(n for _, n in counts) + 1.8 * slope_steps
    print(
        f"\nsolver work: {len(counts)} counts, {len(slopes)} slope sweeps of {slope_steps} pivot steps,"
        f" {steps:.4g} weighted pivot steps, {len(passes)} passes over the matrix"
    )
    assert steps <= 2.0e6, steps
    assert slope_steps <= 0.75e6, slope_steps
    assert len(passes) <= 800, len(passes)  # 1,674 when each level finished alone, 1,130 when only Newton steps were fused
