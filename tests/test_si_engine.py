import dataclasses
import math

import numpy as np
import pytest

from pdem_si import catalog, verification as verif
from pdem_si.core import DeformingFunction
from pdem_si.si_engine import (
    ChainProblem,
    DegenerateClass,
    NoRealRoot,
    ParameterChain,
    SingularPoint,
    SuperpotentialClass,
    chain_residuals,
    partner_potential,
    solve_chain,
    w_eval,
)

ALL = sorted(catalog.ENTRIES)


def _problem(name, params=None):
    entry = catalog.ENTRIES[name]
    p = dict(entry.default_params) if params is None else params
    return entry, p, entry.chain_problem(p)


def test_w_eval_class1_tan():
    sp = SuperpotentialClass("class1", "tan", (1.0, 0.0, 1.0), (0.0, 0.0, 0.0), class0=True)
    got = w_eval(sp, 1.5, 0.0, 0.0)
    assert got.W == 0.0 and got.W_prime == 1.5


def test_w_eval_class2_osc3d_form():
    sp = SuperpotentialClass("class2", "inv_x", (-1.0, 0.0), (0.0, -0.2))
    lam, mu = -2.0, 0.6
    for x in (0.5, 1.0, 3.0):
        got = w_eval(sp, lam, mu, x)
        assert abs(got.W - (lam / x + mu * x)) < 1e-14
        assert abs(got.W_prime - (-lam / x**2 + mu)) < 1e-13


def test_w_eval_class3_scarf_form():
    sp = SuperpotentialClass("class3", "sin", (-1.0, 1.0, 0.0, 1.0), (0.0, 0.0, 0.5, 0.0))
    lam, mu = 3.0, -0.2
    for x in (-1.0, 0.3, 1.2):
        got = w_eval(sp, lam, mu, x)
        want = lam * math.tan(x) + mu / math.cos(x)
        assert abs(got.W - want) < 1e-12
        want_p = lam / math.cos(x) ** 2 + mu * math.sin(x) / math.cos(x) ** 2
        assert abs(got.W_prime - want_p) < 1e-11


def test_w_eval_singularities():
    sp2 = SuperpotentialClass("class2", "tan", (1.0, 0.0), (0.0, 0.0))
    with pytest.raises(SingularPoint):
        w_eval(sp2, 1.0, 1.0, 0.0)  # phi = tan 0 = 0 divides mu/phi
    sp1 = SuperpotentialClass("class1", "cot", (-1.0, 0.0, -1.0), (0.0, 0.0, 0.0))
    with pytest.raises(SingularPoint):
        w_eval(sp1, 1.0, 0.0, 0.0)  # cot 0 blows up


def test_solve_chain_box():
    _, p, prob = _problem("box", {"alpha": 0.5})
    chain = solve_chain(prob, 6)
    for i in range(7):
        assert abs(chain.lambda_seq[i] - (i + 1) * 1.5) < 1e-12
        assert chain.mu_seq[i] == 0.0
        assert abs(chain.eps_seq[i] - (2 * i + 1) * 1.5) < 1e-12
    assert abs(chain.energy(3) - 1.5 * 16) < 1e-12


def test_solve_chain_coulomb_printed():
    entry, p, prob = _problem("coulomb", {"e2": 1.0, "l": 0.0, "alpha": 0.1})
    chain = solve_chain(prob, 5)
    for i in range(6):
        assert abs(chain.lambda_seq[i] - entry.printed_lambda(p, i)) < 1e-13
        assert abs(chain.mu_seq[i] - entry.printed_mu(p, i)) < 1e-13


def test_shifted_oscillator_undeformed_factorization():
    # alpha = beta = 0 reduces to the plain oscillator: lambda = omega / 2
    entry = catalog.ENTRIES["shifted_oscillator"]
    prob = entry.chain_problem({"omega": 1.0, "b": 0.0, "alpha": 0.0, "beta": 0.0})
    chain = solve_chain(prob, 0)
    assert abs(chain.lambda_seq[0] - 0.5) < 1e-15
    assert abs(chain.eps_seq[0] - 0.5) < 1e-15


@pytest.mark.parametrize("name", ALL)
def test_chain_residuals(name):
    entry = catalog.ENTRIES[name]
    r1, r2, _ = verif.chain_residual_max(entry, dict(entry.default_params))
    assert r1 < 1e-10 and r2 < 1e-10, (name, r1, r2)


@pytest.mark.parametrize("name", ALL)
def test_printed_chain_parameters_satisfy_conditions(name):
    entry = catalog.ENTRIES[name]
    r1, r2, _ = verif.printed_chain_residual_max(entry, dict(entry.default_params))
    assert r1 < 1e-10 and r2 < 1e-10, (name, r1, r2)


def test_residual_sensitive_to_perturbation():
    entry, p, prob = _problem("box", {"alpha": 0.5})
    chain = solve_chain(prob, 1)
    bumped = ParameterChain(
        (chain.lambda_seq[0] + 1e-3,) + chain.lambda_seq[1:], chain.mu_seq, chain.eps_seq
    )
    r1, _, _ = chain_residuals(prob, bumped, 0, 1.0)
    assert r1 > 1e-4


def test_residual_undeformed_limit_trig_pt():
    entry = catalog.ENTRIES["trig_poschl_teller"]
    prob = entry.chain_problem({"A": 2.0, "alpha": 0.0})
    chain = solve_chain(prob, 3)
    for x in (-1.0, 0.3, 1.2):
        _, r2, _ = chain_residuals(prob, chain, 1, x)
        assert r2 < 1e-12


@pytest.mark.parametrize("name", ALL)
def test_chain_vs_printed_energies(name):
    entry = catalog.ENTRIES[name]
    gap = verif.chain_vs_printed_energy(entry, dict(entry.default_params))
    if entry.energy_discrepancy:
        # flagged case: the printed formula disagrees (leading-sign typo)
        assert gap > 0.5, (name, gap)
    else:
        assert gap < 1e-10, (name, gap)


@pytest.mark.parametrize("name,params,level", [
    *((name, dict(catalog.ENTRIES[name].default_params), 0) for name in ALL if not catalog.ENTRIES[name].energy_discrepancy),
    # E_2 = -2.25e-8 next to the binding threshold, with E_0 = -0.16: the gap is
    # relative to the chain's partial sum, so rounding of the sum passes and an
    # error of 1e-9 |E_0| in the printed E_2 still fails
    ("coulomb", {"e2": 0.9009, "l": 0.0, "alpha": 0.1}, 2),
])
def test_chain_vs_printed_energy_scale(name, params, level):
    entry = catalog.ENTRIES[name]
    e0 = entry.printed_energy(params, 0)

    def off(p, n):
        return entry.printed_energy(p, n) + (1e-9 * abs(e0) if n == level else 0.0)

    def check(e):
        return next(c for c in verif.verify_entry(e, params) if c.name == "chain vs printed E_n")

    assert check(entry).ok
    assert not check(dataclasses.replace(entry, printed_energy=off)).ok


def test_scarf_chain_matches_sign_corrected_formula():
    entry = catalog.ENTRIES["scarf_i"]
    p = dict(entry.default_params)
    chain = solve_chain(entry.chain_problem(p), 5)
    a = p["alpha"]
    from pdem_si.catalog import _scarf_deltas

    dp, dm = _scarf_deltas(p)
    for n in range(6):
        corrected = (
            +0.25 * (2 * n + 1 + dp + dm) ** 2
            + a * (n + 0.5) * (dp - dm)
            - a**2 * (n**2 + n + 0.5)
        )
        assert abs(chain.energy(n) - corrected) < 1e-10 * max(1.0, abs(corrected))


def test_partner_potential():
    # alpha -> 0 box: partner is 2 sec^2 x
    entry = catalog.ENTRIES["box"]
    prob = entry.chain_problem({"alpha": 0.0})
    chain = solve_chain(prob, 0)
    for x in (-0.7, 0.0, 1.1):
        assert abs(partner_potential(prob, chain, x) - 2.0 / math.cos(x) ** 2) < 1e-12

    prob = entry.chain_problem({"alpha": 0.5})
    chain = solve_chain(prob, 0)
    assert abs(partner_potential(prob, chain, 0.0) - 3.0) < 1e-14

    # f == 1 generic entry: partner = V_eff + 2 W'
    entry = catalog.ENTRIES["trig_poschl_teller"]
    prob = entry.chain_problem({"A": 2.0, "alpha": 0.0})
    chain = solve_chain(prob, 0)
    x = 0.4
    w = w_eval(prob.sp, chain.lambda_seq[0], chain.mu_seq[0], x)
    want = float(prob.v_eff(x)) + 2.0 * w.W_prime
    assert abs(partner_potential(prob, chain, x) - want) < 1e-12


def test_partner_potential_spectrum():
    # the partner's levels are the original spectrum with the ground state removed
    entry = catalog.ENTRIES["box"]
    p = {"alpha": 0.5}
    prob = entry.chain_problem(p)
    chain = solve_chain(prob, 4)
    from pdem_si.core import Grid, Interval
    from pdem_si.oracle import DEFORMED, discretize_vonroos, eigenpairs

    grid = Grid(Interval(-math.pi / 2, math.pi / 2), 4001)

    def v_partner(x):
        return np.array([partner_potential(prob, chain, float(t)) for t in np.atleast_1d(x)])

    spec = eigenpairs(discretize_vonroos(entry.deforming(p), DEFORMED, v_partner, grid), 3)
    for k in range(3):
        want = chain.energy(k + 1)
        assert abs(spec.eigenvalues[k] - want) / want < 1e-4


def test_branch_determinism():
    entry = catalog.ENTRIES["morse"]
    p = dict(entry.default_params)
    c1 = solve_chain(entry.chain_problem(p), 6)
    c2 = solve_chain(entry.chain_problem(p), 6)
    assert c1.lambda_seq == c2.lambda_seq
    assert c1.mu_seq == c2.mu_seq
    assert c1.eps_seq == c2.eps_seq


UNDEFORMED = {
    "box": lambda p, n: (n + 1) ** 2,
    "trig_poschl_teller": lambda p, n: (p["A"] + n) ** 2,
    "hyperbolic_poschl_teller": lambda p, n: -((p["A"] - n) ** 2),
    "shifted_oscillator": lambda p, n: (n + 0.5) * p["omega"],
    "oscillator_3d": lambda p, n: p["omega"] * (2 * n + p["l"] + 1.5),
    "coulomb": lambda p, n: -((p["e2"] / (2 * (n + p["l"] + 1))) ** 2),
    "morse": lambda p, n: -((p["A"] - n) ** 2),
    "eckart": lambda p, n: -((p["A"] + n) ** 2) - (p["B"] / (p["A"] + n)) ** 2,
    "scarf_i": lambda p, n: (p["A"] + n) ** 2,
    "rosen_morse_i": lambda p, n: (p["A"] + n) ** 2 - (p["B"] / (p["A"] + n)) ** 2,
}


@pytest.mark.parametrize("name", ALL)
def test_undeformed_limit(name):
    # chains at deformation 1e-6 approach the conventional chain energies
    entry = catalog.ENTRIES[name]
    p = dict(entry.default_params)
    for k in entry.deformation_names:
        p[k] = 0.0
    p[entry.deformation_names[0]] = -1e-6 if name == "eckart" else 1e-6
    if name == "shifted_oscillator":
        p["b"] = 0.0  # undeformed reference below is the centred oscillator
    chain = solve_chain(entry.chain_problem(p), 3)
    for n in range(4):
        assert abs(chain.energy(n) - UNDEFORMED[name](p, n)) < 1e-4, (name, n)


def test_class_relation_and_g_reconstruction():
    for name in ALL:
        entry = catalog.ENTRIES[name]
        p = dict(entry.default_params)
        prob = entry.chain_problem(p)
        sp = prob.sp
        a, b = verif.residual_window(entry, p)
        xs = np.linspace(a, b, 41)
        y = sp.phi_val(xs)
        lhs = sp.phi_prime(y)
        rhs = sp.phi_prime_at(xs)
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-9, name
        from pdem_si.core import deforming_eval

        g_cat = deforming_eval(prob.df, xs).g
        g_cls = sp.g_reconstructed(xs)
        # 1e-8 allowance: the class-formula route evaluates rational functions of
        # phi that cancel near phi -> 1 (coth-type entries), the catalog route not
        assert np.max(np.abs(g_cat - g_cls)) < 1e-8 * max(1.0, float(np.max(np.abs(g_cat)))), name


def test_no_real_root():
    sp = SuperpotentialClass("class1", "x", (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    prob = ChainProblem(
        sp=sp,
        v_coeffs=(-1.0, 0.0, 0.0),  # lambda^2 = -1
        df=DeformingFunction("trig_sin", {"alpha": 0.0}),
        v_eff=lambda x: -np.asarray(x) ** 2,
    )
    with pytest.raises(NoRealRoot):
        solve_chain(prob, 0)


def test_class3_requires_unit_circle_structure():
    with pytest.raises(DegenerateClass):
        SuperpotentialClass("class3", "sin", (-1.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.1, 0.0))
    sp = SuperpotentialClass("class3", "sin", (-2.0, 3.0, 0.0, 1.0), (0.0, 0.0, 0.1, 0.0))
    prob = ChainProblem(
        sp=sp,
        v_coeffs=(0.0, -1.0, 4.0),
        df=DeformingFunction("trig_sin", {"alpha": 0.1}),
        v_eff=lambda x: np.zeros_like(np.asarray(x)),
    )
    with pytest.raises(DegenerateClass):
        solve_chain(prob, 0)


def test_chain_depth_guards():
    entry = catalog.ENTRIES["box"]
    prob = entry.chain_problem({"alpha": 0.5})
    chain = solve_chain(prob, 2)
    with pytest.raises(Exception):
        chain.energy(5)
    with pytest.raises(Exception):
        chain_residuals(prob, chain, 2, 0.5)


@pytest.mark.parametrize(
    "sp,v_coeffs,depth,exc",
    [
        # class 2: mu_0^2 + B' mu_0 = -1 has no real root
        (SuperpotentialClass("class2", "inv_x", (-1.0, 0.0), (0.0, 0.0)), (0.0, -1.0, 0.0), 0, NoRealRoot),
        # class 0 cannot absorb a linear term with mu = 0
        (SuperpotentialClass("class1", "tan", (1.0, 0.0, 1.0), (0.5, 0.0, 0.0), class0=True), (0.0, 1.0, 0.0), 0, DegenerateClass),
        # class 1 with lambda_0 = 0 leaves mu_0 undetermined
        (SuperpotentialClass("class1", "x", (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)), (0.0, 0.0, 0.0), 0, DegenerateClass),
        # lambda_0 = 1, and the step lambda_1 = lambda_0 + A = 0 leaves mu_1 undetermined
        (SuperpotentialClass("class1", "x", (-1.0, 0.0, 1.0), (0.0, 0.0, 0.0)), (2.0, 0.0, 0.0), 1, DegenerateClass),
    ],
    ids=["class2_mu_no_root", "class0_linear_term", "class1_lambda0_zero", "class1_step_lambda_zero"],
)
def test_matching_solve_raises(sp, v_coeffs, depth, exc):
    prob = ChainProblem(
        sp=sp,
        v_coeffs=v_coeffs,
        df=DeformingFunction("quadratic", {"alpha": 0.0, "beta": 0.0}),
        v_eff=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    if depth:
        solve_chain(prob, depth - 1)  # the level before the failing step solves
    with pytest.raises(exc):
        solve_chain(prob, depth)
