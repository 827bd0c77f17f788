import math

import numpy as np
import pytest

from pdem_si import catalog, verification as verif
from pdem_si.core import ChainError, Grid, Interval, ZeroNorm
from pdem_si.wavefunctions import (
    _assemble,
    admissibility_check,
    excited_state_eval,
    normalize,
    polynomial_chain,
)

ALL = sorted(catalog.ENTRIES)


@pytest.mark.parametrize("name", ALL)
def test_ground_state_matches_printed_form(name):
    # numeric (closed-antiderivative) and printed ground states agree up to a constant
    entry = catalog.ENTRIES[name]
    assert verif.ground_ratio_spread(entry, dict(entry.default_params)) < 1e-8


def test_eckart_both_printed_branches():
    entry = catalog.ENTRIES["eckart"]
    assert verif.ground_ratio_spread(entry, {"A": 1.5, "B": 2.5, "alpha": -1.0}) < 1e-8
    assert verif.ground_ratio_spread(entry, {"A": 1.5, "B": 2.5, "alpha": -2.0}) < 1e-8


def test_undeformed_gaussian_limit():
    # f == 1 and W = x factorize the plain oscillator: psi0 ~ exp(-x^2/2)
    entry = catalog.ENTRIES["shifted_oscillator"]
    params = {"omega": 2.0, "b": 0.0, "alpha": 0.0, "beta": 0.0}
    xs = np.linspace(-3.0, 3.0, 61)
    vals = np.asarray(excited_state_eval(entry, params, 0, xs))
    ratio = vals / np.exp(-0.5 * xs**2)
    assert np.max(np.abs(ratio - ratio[30])) < 1e-12


def test_polynomial_seeds_and_low_orders():
    box = catalog.ENTRIES["box"]
    p0 = polynomial_chain(box, {"alpha": 0.5}, 0)
    assert p0.coeffs == (1.0,) and p0.degree == 0

    p1 = polynomial_chain(box, {"alpha": 0.5}, 1)
    assert p1.degree == 1
    assert abs(p1.coeffs[0]) < 1e-15 and abs(p1.coeffs[1] - 3.0 * 1.5) < 1e-12

    osc = catalog.ENTRIES["oscillator_3d"]
    params = dict(osc.default_params)
    lam = -params["l"] - 1.0
    mu = 0.5 * (params["alpha"] + math.sqrt(params["omega"] ** 2 + params["alpha"] ** 2))
    q1 = polynomial_chain(osc, params, 1)
    assert abs(q1.coeffs[0] - (2 * lam - 1)) < 1e-12
    assert abs(q1.coeffs[1] - (2 * mu + params["alpha"])) < 1e-12


def test_box_second_polynomial_closed_form():
    # descending through lambda_1 = 2(1+alpha): P_2 = 5(1+alpha) [3(1+alpha) y^2 - 1]
    alpha = 0.5
    p2 = polynomial_chain(catalog.ENTRIES["box"], {"alpha": alpha}, 2)
    c = 5.0 * (1 + alpha)
    want = (-c, 0.0, 3.0 * (1 + alpha) * c)
    assert np.allclose(p2.coeffs, want, rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("name,nmax", [("box", 6), ("coulomb", 4), ("oscillator_3d", 5)])
def test_polynomial_degree_exact(name, nmax):
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    for n in range(nmax + 1):
        poly = polynomial_chain(entry, params, n)
        assert poly.degree == n
        top = abs(poly.coeffs[-1])
        assert top > 1e-12 * max(abs(c) for c in poly.coeffs)


def test_scarf_class3_degree_cancellation():
    entry = catalog.ENTRIES["scarf_i"]
    params = dict(entry.default_params)
    for n in range(1, 7):
        poly = polynomial_chain(entry, params, n)
        assert poly.degree == n
        assert poly.cancellations, "class3 recursion must record its cancellations"
        for resid, scale in poly.cancellations:
            assert resid < 1e-12 * scale


def test_box_undeformed_gegenbauer():
    # alpha -> 0: psi_n ~ cos^{n+1} x P_n(tan x) matches cos(x) C_n^(1)(sin x)
    entry = catalog.ENTRIES["box"]
    params = {"alpha": 0.0}
    xs = np.linspace(-1.4, 1.4, 101)

    def gegenbauer_1(n, t):
        u0, u1 = np.ones_like(t), 2.0 * t
        if n == 0:
            return u0
        for _ in range(n - 1):
            u0, u1 = u1, 2.0 * t * u1 - u0
        return u1

    for n in range(5):
        got = np.asarray(excited_state_eval(entry, params, n, xs))
        want = np.cos(xs) * gegenbauer_1(n, np.sin(xs))
        mask = np.abs(want) > 1e-3 * np.max(np.abs(want))  # skip nodes of psi_n
        ratio = got[mask] / want[mask]
        ref = ratio[np.argmax(np.abs(want[mask]))]
        assert np.max(np.abs(ratio / ref - 1.0)) < 1e-6, n


def test_excited_state_odd_zero():
    assert excited_state_eval(catalog.ENTRIES["box"], {"alpha": 0.5}, 1, 0.0) == 0.0


@pytest.mark.parametrize("name", ALL)
def test_prefactor_consistency(name):
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    a, b = verif.residual_window(entry, params)
    xs = np.linspace(a, b, 41)
    # value() and log_abs() each assemble the prefactors; they must agree
    assembled = _assemble(entry, params, 0)
    g0 = np.asarray(assembled.value(xs))
    e0 = np.exp(np.asarray(assembled.log_abs(xs)))
    assert np.max(np.abs(e0 - np.abs(g0))) <= 1e-12 * np.max(np.abs(g0))


def test_normalize():
    grid = Grid(Interval(0.0, 1.0), 101)
    const, normed = normalize(np.ones(101), grid)
    assert const == 1.0 and np.all(normed == 1.0)

    grid = Grid(Interval(-math.pi / 2, math.pi / 2), 2001)
    const, _ = normalize(np.cos(grid.nodes()), grid)
    assert abs(const - math.sqrt(2.0 / math.pi)) < 1e-10

    entry = catalog.ENTRIES["box"]
    for n in range(4):
        psi = np.asarray(excited_state_eval(entry, {"alpha": 0.5}, n, grid.nodes()[1:-1]))
        psi = np.concatenate([[0.0], psi, [0.0]])
        _, normed = normalize(psi, grid)
        from pdem_si.oracle import quadrature

        assert abs(quadrature(normed**2, grid) - 1.0) < 1e-8

    with pytest.raises(ZeroNorm):
        normalize(np.zeros(101), Grid(Interval(0.0, 1.0), 101))


def test_normalize_is_scale_free():
    # squaring raw samples of 1e200 would overflow the norm to inf
    grid = Grid(Interval(-math.pi / 2, math.pi / 2), 2001)
    psi = np.cos(grid.nodes())
    _, normed = normalize(psi, grid)
    _, big_normed = normalize(1e200 * psi, grid)
    assert np.max(np.abs(big_normed - normed)) <= 1e-15 * np.max(np.abs(normed))
    for bad in (np.full(2001, np.inf), np.full(2001, np.nan)):
        with pytest.raises(ZeroNorm):
            normalize(bad, grid)


def test_eckart_alpha_minus_two_value_tail():
    # beyond x ~ 19, coth x rounds to exactly 1; the double-root antiderivative
    # must take its limit (state dead superexponentially), never NaN
    entry = catalog.ENTRIES["eckart"]
    p = {"A": 1.5, "B": 2.5, "alpha": -2.0}
    xs = np.linspace(18.0, 20.0, 41)
    for n in (0, 2):
        vals = np.asarray(excited_state_eval(entry, p, n, xs))
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) == 0.0


def test_polynomial_chain_guards():
    with pytest.raises(ChainError):
        polynomial_chain(catalog.ENTRIES["box"], {"alpha": 0.5}, -1)


def test_admissibility_box_all_levels():
    entry = catalog.ENTRIES["box"]
    for n in (0, 5, 10):
        v = admissibility_check(entry, {"alpha": 0.5}, n)
        assert v.admissible and v.square_integrable and v.hermiticity_ok
        # f(+-pi/2) = 1.5 finite: the boundary condition holds automatically
        assert v.evidence["left"].get("auto") and v.evidence["right"].get("auto")


def test_admissibility_hyperbolic_pt():
    entry = catalog.ENTRIES["hyperbolic_poschl_teller"]
    for n in range(4):
        v = admissibility_check(entry, {"A": 1.0, "alpha": 0.5}, n)
        assert v.square_integrable
        assert not v.hermiticity_ok  # |psi|^2 f plateaus at a nonzero constant
        assert not v.admissible


def test_admissibility_coulomb_counting():
    entry = catalog.ENTRIES["coulomb"]
    p = {"e2": 1.0, "l": 0.0, "alpha": 0.1}
    verdicts = [admissibility_check(entry, p, n).admissible for n in range(4)]
    assert verdicts == [True, True, True, False]


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_admissibility_morse_level_by_level(alpha):
    entry = catalog.ENTRIES["morse"]
    p = {"A": 1.0, "B": 1.0, "alpha": alpha}
    counting = entry.counting(p)
    assert counting.count == 1
    assert admissibility_check(entry, p, 0).admissible
    assert not admissibility_check(entry, p, 1).admissible


def test_admissibility_eckart_regimes():
    entry = catalog.ENTRIES["eckart"]
    assert admissibility_check(entry, {"A": 1.5, "B": 2.5, "alpha": -1.0}, 0).admissible
    assert not admissibility_check(entry, {"A": 1.5, "B": 2.5, "alpha": -1.0}, 1).admissible
    for n in range(4):
        assert admissibility_check(entry, {"A": 1.5, "B": 2.5, "alpha": -2.0}, n).admissible


@pytest.mark.parametrize("name", ALL)
def test_lowering_operator_annihilates_ground_state(name):
    entry = catalog.ENTRIES[name]
    assert verif.a_minus_residual(entry, dict(entry.default_params)) < 1e-8


@pytest.mark.parametrize(
    "name,params",
    [
        ("box", {"alpha": 0.5}),
        ("trig_poschl_teller", {"A": 2.0, "alpha": 0.3}),
        ("oscillator_3d", None),
        ("morse", {"A": 1.0, "B": 1.0, "alpha": 0.5}),
    ],
)
def test_eigen_residual_first_levels(name, params):
    entry = catalog.ENTRIES[name]
    p = dict(entry.default_params) if params is None else params
    counting = entry.counting(p)
    levels = 3 if counting.kind == "infinite" else min(3, counting.count)
    for n in range(levels):
        assert verif.eigen_residual(entry, p, n) < 1e-5, (name, n)


# coulomb is reported, not asserted: its marginal power-law tails put the
# 1e-6 quadrature accuracy out of reach of any floating-point truncation
@pytest.mark.parametrize(
    "name",
    [
        "box",
        "trig_poschl_teller",
        "shifted_oscillator",
        "oscillator_3d",
        "morse",
        "eckart",
        "scarf_i",
        "rosen_morse_i",
    ],
)
def test_orthonormality_gram(name):
    entry = catalog.ENTRIES[name]
    p = dict(entry.default_params)
    counting = entry.counting(p)
    levels = min(4, 4 if counting.kind == "infinite" else counting.count)
    G = verif.gram_matrix(entry, p, levels)
    assert np.max(np.abs(G - np.eye(levels))) < 1e-6, name
