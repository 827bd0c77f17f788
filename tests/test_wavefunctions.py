import math

import numpy as np
import pytest

from pdem_si import catalog, verification as verif
from pdem_si.core import ChainError, Grid, Interval, PdemError, ZeroNorm
from pdem_si.oracle import quadrature
from pdem_si.wavefunctions import (
    _Assembled,
    _assemble,
    _classify_side,
    _exp_decay_certificate,
    _panels,
    _square_integrable,
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


def _square_integrable_reference(assembled, entry):
    # the probe with one log_abs call and one quadrature per panel, kept as the
    # reference for the batched probe
    base, sides = _panels(entry)
    ref_nodes = np.linspace(base[0], base[1], 513)
    ref = float(np.max(assembled.log_abs(ref_nodes)))
    ev: dict = {"log_ref": ref}

    def panel_integral(a, b):
        grid = Grid(Interval(a, b), 513)
        lg = assembled.log_abs(grid.nodes())
        if np.any(lg - ref > 350.0):
            return math.inf
        return quadrature(np.exp(2.0 * (lg - ref)), grid)

    total = panel_integral(*base)
    side_info = []
    ok = True
    for side_name, seq in zip(("left", "right"), sides):
        pre = total
        incs = []
        overflow = False
        for (a, b) in seq:
            inc = panel_integral(a, b)
            if math.isinf(inc):
                overflow = True
                break
            incs.append(inc)
            total += inc
            if len(incs) >= 2 and incs[-1] == 0.0 and incs[-2] == 0.0:
                break  # tail numerically dead
            if len(incs) >= 6:
                ratios = np.asarray(incs[-4:], dtype=float)
                ratios = ratios[1:] / np.maximum(ratios[:-1], 1e-300)
                # blatant sustained blow-up that already dwarfs the bulk
                if np.all(ratios >= 1.5) and total - pre > 1e3 * max(pre, 1e-300):
                    break
        if overflow:
            verdict, detail = "diverged", {"overflow": True}
        else:
            verdict, detail = _classify_side(incs, total)
            if verdict == "diverged":
                cert, cert_ev = _exp_decay_certificate(assembled, entry, side_name)
                if cert:
                    verdict = "converged"
                    detail = {**detail, **cert_ev, "exp_decay_certificate": True}
        side_info.append({"verdict": verdict, **detail})
        ok = ok and verdict == "converged"
    ev["sides"] = side_info
    ev["integral_rescaled"] = float(total)
    return ok, ev


def _same(a, b):
    """== that also holds between two NaNs, recursing into dicts, lists, tuples."""
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _probe_outcome(probe, entry, params, n):
    try:
        return probe(_assemble(entry, params, n), entry)
    except PdemError as exc:
        return type(exc).__name__, str(exc)


def _probed_levels(entry, params):
    # the levels that spectrum --n-levels auto and the counting check probe
    counting = entry.counting(params)
    if counting.kind == "zero":
        return 4
    return min(counting.levels(verif.AUTO_LEVELS) + (counting.kind == "finite"), verif.AUTO_LEVELS)


def _drawn_params(entry, seed, draws):
    # each default scaled by e^U, U uniform in [-1.2, 1.2], redrawn until valid
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < draws:
        p = {k: v * math.exp(rng.uniform(-1.2, 1.2)) for k, v in entry.default_params.items()}
        try:
            entry.validate(p)
        except PdemError:
            continue
        found.append(p)
    return found


_PROBE_REGIMES = {
    "coulomb": [
        {"e2": 1.0, "l": 1.0, "alpha": 0.1},
        {"e2": 1e6, "l": 0.0, "alpha": 0.1},
        {"e2": 0.669, "l": 1.0, "alpha": 0.3102},
    ],
    "eckart": [{"A": 2.0, "B": 5.0, "alpha": 0.8}, {"A": 2.1222, "B": 6.2799, "alpha": -0.9425}],
    "morse": [{"A": 2.5, "B": 7.0, "alpha": 1.0}, {"A": 1.0832, "B": 0.9487, "alpha": 1.4426}],
    "oscillator_3d": [{"omega": 1.0, "l": 1.0, "alpha": 1.0}],
}


@pytest.mark.parametrize("name", ALL)
def test_batched_probe_matches_per_panel_reference(name):
    # defaults, the regimes of test_robustness.py, known false-FAIL points and
    # seeded draws: identical verdicts and evidence, NaNs included
    entry = catalog.ENTRIES[name]
    cases = [dict(entry.default_params), *_PROBE_REGIMES.get(name, []), *_drawn_params(entry, 7, 2)]
    for params in cases:
        for n in range(_probed_levels(entry, params)):
            want = _probe_outcome(_square_integrable_reference, entry, params, n)
            got = _probe_outcome(_square_integrable, entry, params, n)
            assert _same(got, want), (params, n, got, want)


@pytest.mark.parametrize("name", ALL)
def test_probe_evaluates_each_level_once(monkeypatch, name):
    # one log_abs call covers every panel of the square-integrability probe;
    # the endpoint probes sample far fewer than one panel's 513 nodes
    sizes = []
    log_abs = _Assembled.log_abs

    def counted(self, x):
        sizes.append(np.size(x))
        return log_abs(self, x)

    monkeypatch.setattr(_Assembled, "log_abs", counted)
    entry = catalog.ENTRIES[name]
    for n in range(4):
        sizes.clear()
        admissibility_check(entry, dict(entry.default_params), n)
        assert sum(s >= 513 for s in sizes) == 1, (n, sizes)
