import math

import numpy as np
import pytest

from pdem_si import catalog
from pdem_si.core import AmbiguityParams, DeformingFunction, Grid, Interval, ParameterError, deforming_eval
from pdem_si.oracle import DEFORMED, discretize_vonroos
from pdem_si.ordering import recover_initial_potential, v_tilde_eval

PRESETS = ("bdd", "bastard", "zk", "lk")


def _zero(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def test_vtilde_zero_without_deformation():
    df = DeformingFunction("trig_sin", {"alpha": 0.0})
    xs = np.linspace(-1.0, 1.0, 11)
    for preset in PRESETS:
        assert np.all(v_tilde_eval(df, AmbiguityParams.preset(preset), xs) == 0.0)


def test_vtilde_box_lk_value():
    df, amb = DeformingFunction("trig_sin2", {"alpha": 0.5}), AmbiguityParams.preset("lk")
    got = v_tilde_eval(df, amb, math.pi / 4)
    assert abs(got - (-0.0625)) < 1e-15
    # closed LK form -alpha^2/4 sin^2(2x) across the box
    xs = np.linspace(-1.5, 1.5, 101)
    assert np.max(np.abs(v_tilde_eval(df, amb, xs) + 0.25 * 0.25 * np.sin(2 * xs) ** 2)) < 1e-15


def test_vtilde_shifted_oscillator_origin():
    alpha, beta = 0.1, 0.1
    df = DeformingFunction("quadratic", {"alpha": alpha, "beta": beta})
    for preset in PRESETS:
        amb = AmbiguityParams.preset(preset)
        got = v_tilde_eval(df, amb, 0.0)
        assert abs(got - (2 * amb.rho * alpha + 4 * amb.sigma * beta**2)) < 1e-15


def _reference_v_tilde(df, amb, x):
    # V~ as read from deforming_eval, which also evaluates g and M
    v = deforming_eval(df, x)
    return amb.rho * v.f * v.f_second + amb.sigma * v.f_prime**2


@pytest.mark.bitpin
@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_v_tilde_matches_deforming_eval_reference(name):
    # bit for bit on arrays, and on scalars, which keep Python-float arithmetic:
    # Python's f'**2 is libm pow and numpy's a multiply, 1 ulp apart at times
    entry = catalog.ENTRIES[name]
    df = entry.deforming(dict(entry.default_params))
    xs = np.linspace(*_window(entry), 2001)
    for amb in [AmbiguityParams.preset(p) for p in PRESETS] + [DEFORMED]:
        assert v_tilde_eval(df, amb, xs).tobytes() == _reference_v_tilde(df, amb, xs).tobytes()
        scalars = xs[::10].tolist()
        got = [v_tilde_eval(df, amb, x) for x in scalars]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array([_reference_v_tilde(df, amb, x) for x in scalars]).tobytes()


def test_recover_initial_identity_and_roundtrip():
    entry = catalog.ENTRIES["box"]
    params = {"alpha": 0.5}
    v_eff = entry.v_eff(params)
    df, amb = entry.deforming(params), AmbiguityParams.preset("lk")
    assert recover_initial_potential(df, amb, v_eff, 0.0) == 0.0

    # f == 1: V = V_eff pointwise
    flat, zk = DeformingFunction("trig_sin", {"alpha": 0.0}), AmbiguityParams.preset("zk")
    xs = np.linspace(-1, 1, 21)
    v = lambda x: np.cos(x)
    assert np.array_equal(recover_initial_potential(flat, zk, v, xs), np.cos(xs))

    # round trip: recover + vtilde returns V_eff to machine precision
    # (relative to the terms involved: the ordering term can dwarf V_eff)
    for name, entry in catalog.ENTRIES.items():
        params = dict(entry.default_params)
        df, amb = entry.deforming(params), AmbiguityParams.preset("bdd")
        v_eff = entry.v_eff(params)
        a, b = _window(entry)
        xs = np.linspace(a, b, 33)
        vt = np.asarray(v_tilde_eval(df, amb, xs))
        back = recover_initial_potential(df, amb, v_eff, xs) + vt
        ref = np.asarray(v_eff(xs))
        scale = np.maximum(1.0, np.maximum(np.abs(ref), np.abs(vt)))
        assert np.max(np.abs(back - ref) / scale) <= 1e-12, name


def _window(entry):
    dom = entry.domain
    if dom.bounded:
        return dom.x1 + 0.05 * dom.length, dom.x2 - 0.05 * dom.length
    if math.isfinite(dom.x1):
        return dom.x1 + 0.3, dom.x1 + 9.0
    return -4.0, 6.0


def test_recover_morse_reshape():
    # deformed Morse keeps the Morse shape with starred parameters
    A, B, alpha = 1.0, 1.0, 0.5
    entry = catalog.ENTRIES["morse"]
    params = {"A": A, "B": B, "alpha": alpha}
    amb = AmbiguityParams.preset("bdd")
    b_star = math.sqrt(B**2 - (amb.rho + amb.sigma) * alpha**2)
    a_star = 0.5 * ((B * (2 * A + 1) + amb.rho * alpha) / b_star - 1.0)
    assert abs(b_star - 0.901388) < 5e-7
    assert abs(a_star - 1.302776) < 5e-7
    xs = np.linspace(-2.0, 6.0, 50)
    got = recover_initial_potential(entry.deforming(params), amb, entry.v_eff(params), xs)
    want = b_star**2 * np.exp(-2 * xs) - b_star * (2 * a_star + 1) * np.exp(-xs)
    assert np.max(np.abs(got - want)) < 1e-12


def test_vonroos_apply_constant_mass():
    grid = Grid(Interval(-math.pi / 2, math.pi / 2), 2001)
    x = grid.nodes()
    k = 2.0
    psi = np.sin(k * x)
    flat = DeformingFunction("trig_sin", {"alpha": 0.0})
    out = discretize_vonroos(flat, AmbiguityParams.preset("bdd"), _zero, grid).apply(psi)
    want = k**2 * np.sin(k * x[1:-1])
    assert np.max(np.abs(out - want)) < 5e-6  # O(h^2)


def test_vonroos_apply_exponent_guard():
    # every AmbiguityParams satisfies the exponent sum; from_primed guards it
    with pytest.raises(ParameterError):
        AmbiguityParams.from_primed(0.0, 0.0, 0.0)


def test_vonroos_reproduces_ground_state_energy():
    # ordered kinetic action on the closed-form ground state plus V(a;x) psi
    # approximates E0 psi (box, alpha = 0.5, BDD exponents)
    entry = catalog.ENTRIES["box"]
    params = {"alpha": 0.5}
    df = entry.deforming(params)
    amb = AmbiguityParams.preset("bdd")
    grid = Grid(Interval(-math.pi / 2, math.pi / 2), 4001)
    x = grid.nodes()
    psi = np.cos(x) / (1.0 + 0.5 * np.sin(x) ** 2)
    v_init = recover_initial_potential(df, amb, entry.v_eff(params), x[1:-1])
    h_psi = discretize_vonroos(df, amb, _zero, grid).apply(psi) + v_init * psi[1:-1]
    e0 = 1.5
    resid = h_psi[2:-2] - e0 * psi[3:-3]
    assert np.max(np.abs(resid)) < 1e-5

    # a second preset gives the same action after shifting by the Vtilde difference
    amb2 = AmbiguityParams.preset("zk")
    v_init2 = recover_initial_potential(df, amb2, entry.v_eff(params), x[1:-1])
    h_psi2 = discretize_vonroos(df, amb2, _zero, grid).apply(psi) + v_init2 * psi[1:-1]
    assert np.max(np.abs(h_psi2[2:-2] - h_psi[2:-2])) < 1e-6


@pytest.mark.parametrize("preset", PRESETS)
def test_ordering_equivalence_identity(preset):
    # smooth test family f = 1 + 0.3 sin x on [-pi/2, pi/2], N = 4001
    df = DeformingFunction("trig_sin", {"alpha": 0.3})
    amb = AmbiguityParams.preset(preset)
    grid = Grid(Interval(-math.pi / 2, math.pi / 2), 4001)
    x = grid.nodes()
    u = x / math.pi
    battery = [np.exp(-16.0 * u**2), np.sin(2 * x) * np.cos(math.pi * u) ** 2]
    op_vr = discretize_vonroos(df, amb, _zero, grid)
    op_def = discretize_vonroos(df, DEFORMED, _zero, grid)
    for psi in battery:
        lhs = op_vr.apply(psi)
        rhs = op_def.apply(psi) + np.asarray(v_tilde_eval(df, amb, x[1:-1])) * psi[1:-1]
        assert np.max(np.abs(lhs[2:-2] - rhs[2:-2])) < 1e-6
