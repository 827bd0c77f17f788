import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from pdem_si import catalog, cli, verification as verif, wavefunctions
from pdem_si.core import ChainError, DeformingFunction, Grid, Interval, PdemError, ZeroNorm
from pdem_si.oracle import quadrature
from pdem_si.si_engine import SuperpotentialClass, solve_chain
from pdem_si.wavefunctions import (
    _antideriv,
    _descend,
    _endpoint_probes,
    _exp_decay_certificate,
    _log_abs_rows,
    _tail_test,
    LevelTable,
    admissibility_checks,
    excited_state_eval,
    normalize,
    normalized_states,
    polynomial_chain,
)

ALL = sorted(catalog.ENTRIES)


@pytest.mark.parametrize("name", ALL)
def test_ground_state_matches_printed_form(name):
    # numeric (closed-antiderivative) and printed ground states agree up to a constant
    entry = catalog.ENTRIES[name]
    assert verif.ground_ratio_spread(LevelTable(entry, dict(entry.default_params))) < 1e-8


def test_eckart_both_printed_branches():
    entry = catalog.ENTRIES["eckart"]
    assert verif.ground_ratio_spread(LevelTable(entry, {"A": 1.5, "B": 2.5, "alpha": -1.0})) < 1e-8
    assert verif.ground_ratio_spread(LevelTable(entry, {"A": 1.5, "B": 2.5, "alpha": -2.0})) < 1e-8


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


def _descend_reference(sp, chain, n):
    # the descending construction on numpy.polynomial's polyder, polymul and
    # polyadd, kept as the reference for _descend
    lam, mu = chain.lambda_seq, chain.mu_seq
    poly = np.array([1.0])
    cancels = []
    for m in range(n):
        j = n - m - 1
        dpoly = P.polyder(poly)
        lam_sum = lam[n] + lam[j]
        mu_sum = mu[n] + mu[j]
        if sp.class_id == "class1":
            ab, bb, cb = sp.barred
            poly = P.polyadd(
                -P.polymul(np.array([cb, bb, ab]), dpoly),
                P.polymul(np.array([mu_sum, lam_sum]), poly),
            )
        elif sp.class_id == "class2":
            ab, bb = sp.barred
            poly = P.polyadd(
                P.polymul(np.array([0.0, 2.0 * ab, 2.0 * bb]), dpoly),
                P.polymul(np.array([lam_sum - m * ab, mu_sum - m * bb]), poly),
            )
        else:
            A, B = sp.consts[0], sp.consts[1]
            cb, db = sp.barred[2], sp.barred[3]
            t1 = -P.polymul(np.array([B, 0.0, A]), dpoly)
            t2 = m * A * P.polymul(np.array([0.0, 1.0]), poly)
            bracket = P.polyadd(t1, t2)
            scale = max(np.max(np.abs(t1)) if len(t1) else 0.0, np.max(np.abs(t2)) if len(t2) else 0.0, 1e-300)
            top = bracket[m + 1] if len(bracket) > m + 1 else 0.0
            cancels.append((float(abs(top)), float(scale)))
            bracket = bracket[: m + 1]
            poly = P.polyadd(
                P.polymul(np.array([db, cb]), bracket),
                P.polymul(np.array([mu_sum, lam_sum]), poly),
            )
        nz = np.nonzero(poly)[0]
        poly = poly[: nz[-1] + 1] if len(nz) else poly[:1]
    return poly, tuple(cancels)


def _trim_reference(c):
    if c[-1] != 0:
        return c
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if len(nz) else c[:1]


def _mul_reference(a, b):
    return _trim_reference(np.convolve(_trim_reference(np.asarray(a, dtype=float)), _trim_reference(b)))


def _add_reference(a, b):
    a, b = sorted((_trim_reference(a), _trim_reference(b)), key=len)
    out = b.copy()
    out[: len(a)] += a
    return _trim_reference(out)


def _descend_convolve_reference(sp, chain, n):
    # the np.convolve descent as it stood before the lean _descend: every
    # product and sum trims its inputs, and the kernels are rebuilt from lists
    lam, mu = chain.lambda_seq, chain.mu_seq
    poly = np.array([1.0])
    cancels = []
    for m in range(n):
        j = n - m - 1
        dpoly = poly[:1] * 0 if len(poly) == 1 else np.arange(1, len(poly)) * poly[1:]
        lam_sum = lam[n] + lam[j]
        mu_sum = mu[n] + mu[j]
        if sp.class_id == "class1":
            ab, bb, cb = sp.barred
            poly = _add_reference(-_mul_reference([cb, bb, ab], dpoly), _mul_reference([mu_sum, lam_sum], poly))
        elif sp.class_id == "class2":
            ab, bb = sp.barred
            poly = _add_reference(
                _mul_reference([0.0, 2.0 * ab, 2.0 * bb], dpoly),
                _mul_reference([lam_sum - m * ab, mu_sum - m * bb], poly),
            )
        else:
            A, B = sp.consts[0], sp.consts[1]
            cb, db = sp.barred[2], sp.barred[3]
            t1 = -_mul_reference([B, 0.0, A], dpoly)
            t2 = m * A * _mul_reference([0.0, 1.0], poly)
            bracket = _add_reference(t1, t2)
            scale = max(np.max(np.abs(t1)), np.max(np.abs(t2)), 1e-300)
            top = bracket[m + 1] if len(bracket) > m + 1 else 0.0
            cancels.append((float(abs(top)), float(scale)))
            bracket = bracket[: m + 1]
            poly = _add_reference(_mul_reference([db, cb], bracket), _mul_reference([mu_sum, lam_sum], poly))
    return poly, tuple(cancels)


@pytest.mark.parametrize("name", ALL)
def test_descend_matches_numpy_polynomial_reference(name):
    # same coefficients bit for bit, and the same class3 cancellation record;
    # against the np.convolve descent it replaced, the same bytes, signed zeros included
    entry = catalog.ENTRIES[name]
    for params in [dict(entry.default_params), *_drawn_params(entry, 7, 40)]:
        problem = entry.chain_problem(params)
        chain = solve_chain(problem, 16)
        for n in range(17):
            got, got_cancels = _descend(problem.sp, chain, n)
            want, want_cancels = _descend_reference(problem.sp, chain, n)
            assert np.array_equal(got, want) and got_cancels == want_cancels, (params, n)
            assert bool(got_cancels) == (problem.sp.class_id == "class3" and n > 0)
            want, want_cancels = _descend_convolve_reference(problem.sp, chain, n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes() and got_cancels == want_cancels


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
    # value() and log_abs() each assemble the prefactors; they must agree,
    # the q^(-n/2) class prefactor of the excited states included
    for n in range(4):
        assembled = LevelTable(entry, params)[n]
        g0 = np.asarray(assembled.value(xs))
        e0 = np.exp(np.asarray(assembled.log_abs(xs)))
        assert np.max(np.abs(e0 - np.abs(g0))) <= 1e-12 * np.max(np.abs(g0)), n


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


# superpotential forms outside the catalog, (class, phi, consts, primed): each
# zeroes a barred coefficient and so selects an antiderivative branch of its own
_OFF_CATALOG_FORMS = [
    ("class1", "x", (0.0, 0.0, 1.0), (0.0, 0.7, 0.3)),  # ab = 0, bb != 0
    ("class1", "x", (0.0, 0.0, 1.0), (0.0, 0.0, 0.5)),  # ab = bb = 0
    ("class2", "inv_x", (-1.0, 0.0), (1.0, 0.5)),  # ab = 0
    ("class2", "inv_x", (-1.0, 0.0), (0.3, 0.0)),  # bb = 0
    ("class3", "sin", (-1.0, 1.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.5)),  # cb = 0
]


@pytest.mark.parametrize("class_id,phi,consts,primed", _OFF_CATALOG_FORMS)
def test_antiderivative_branches_off_the_catalog(class_id, phi, consts, primed):
    # F' is the ground-state integrand W / (f phi') in the class variable y,
    # where f phi' is the barred polynomial of the class
    sp = SuperpotentialClass(class_id, phi, consts, primed)
    lam, mu, h = 1.3, -0.4, 1e-6
    bar, y = sp.barred, np.linspace(0.15, 0.85, 15)
    if class_id == "class1":
        integrand = (lam * y + mu) / (bar[0] * y**2 + bar[1] * y + bar[2])
    elif class_id == "class2":
        integrand = (lam * y + mu / y) / (bar[0] * y**2 + bar[1])
    else:  # A = -1, B = 1: W and f phi' share the factor sqrt(1 - y^2)
        integrand = (lam * y + mu) / ((bar[2] * y + bar[3]) * (1.0 - y**2))
    F = _antideriv(sp, lam, mu)
    dev = np.abs((F(y + h) - F(y - h)) / (2.0 * h) - integrand)
    assert np.all(dev < 1e-8 * np.maximum(1.0, np.abs(integrand))), dev


@pytest.mark.parametrize("name", ("box", "oscillator_3d", "scarf_i"))  # class1, class2, class3
def test_deformed_polynomial_call_is_polyval(name):
    entry = catalog.ENTRIES[name]
    poly = polynomial_chain(entry, dict(entry.default_params), 3)
    t = np.linspace(-0.9, 0.9, 7)
    assert np.array_equal(poly(t), P.polyval(t, poly.coeffs))
    assert poly(0.25) == P.polyval(0.25, poly.coeffs) and np.ndim(poly(0.25)) == 0


def test_polynomial_chain_guards():
    with pytest.raises(ChainError):
        polynomial_chain(catalog.ENTRIES["box"], {"alpha": 0.5}, -1)


def test_admissibility_box_all_levels():
    entry = catalog.ENTRIES["box"]
    for v in admissibility_checks(LevelTable(entry, {"alpha": 0.5}), (0, 5, 10)):
        assert v.admissible and v.square_integrable and v.hermiticity_ok
        # f(+-pi/2) = 1.5 finite: |psi|^2 f vanishes with |psi|^2 at both ends
        assert all(e > 0.0 for side in v.evidence["hermiticity"].values() for e in side["tail_exponents"])


def test_admissibility_hyperbolic_pt():
    entry = catalog.ENTRIES["hyperbolic_poschl_teller"]
    for v in admissibility_checks(LevelTable(entry, {"A": 1.0, "alpha": 0.5}), range(4)):
        assert v.square_integrable
        assert not v.hermiticity_ok  # |psi|^2 f plateaus at a nonzero constant
        assert not v.admissible


def test_hyperbolic_pt_plateau_never_passes_hermiticity():
    # |psi|^2 f tends to a nonzero constant at both infinite ends whatever A and
    # alpha, often far below its peak; its increments there are rounding noise
    # of 2 log|psi| and log f, which the tail test reads as 0, so no end passes
    entry = catalog.ENTRIES["hyperbolic_poschl_teller"]
    rng = np.random.default_rng(3)
    passed = []
    for _ in range(500):
        params = {"A": math.exp(rng.uniform(-3.0, 3.0)), "alpha": rng.uniform(0.01, 0.99)}
        ends = [_endpoint_probes(entry, entry.chain_problem(params), side) for side in ("left", "right")]
        for n in range(6):
            assembled = LevelTable(entry, params)[n]
            for pts, finite_end in ends:
                ok, ev = _tail_test((2.0 * assembled.log_abs_at(pts)).tolist(), pts.log_f, 0.0, finite_end)
                if ok:
                    passed.append((params, n, ev))
    assert not passed, passed


def test_admissibility_coulomb_counting():
    entry = catalog.ENTRIES["coulomb"]
    p = {"e2": 1.0, "l": 0.0, "alpha": 0.1}
    verdicts = [v.admissible for v in admissibility_checks(LevelTable(entry, p), range(4))]
    assert verdicts == [True, True, True, False]


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_admissibility_morse_level_by_level(alpha):
    entry = catalog.ENTRIES["morse"]
    p = {"A": 1.0, "B": 1.0, "alpha": alpha}
    counting = entry.counting(p)
    assert counting.count == 1
    assert [v.admissible for v in admissibility_checks(LevelTable(entry, p), [0, 1])] == [True, False]


def test_admissibility_eckart_regimes():
    entry = catalog.ENTRIES["eckart"]
    assert [v.admissible for v in admissibility_checks(LevelTable(entry, {"A": 1.5, "B": 2.5, "alpha": -1.0}), [0, 1])] == [True, False]
    assert all(v.admissible for v in admissibility_checks(LevelTable(entry, {"A": 1.5, "B": 2.5, "alpha": -2.0}), range(4)))


@pytest.mark.parametrize("name", ALL)
def test_lowering_operator_annihilates_ground_state(name):
    entry = catalog.ENTRIES[name]
    assert verif.a_minus_residual(LevelTable(entry, dict(entry.default_params))) < 1e-8


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
        assert verif.eigen_residual(verif.Request(entry, p), n) < 1e-5, (name, n)


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
    G = verif.gram_matrix(LevelTable(entry, p), levels)
    assert np.max(np.abs(G - np.eye(levels))) < 1e-6, name


# The square-integrability probe that the tail exponent replaced, kept as the
# reference for its verdicts: Simpson integrals of |psi|^2 on a base panel and
# on geometric edge or tail panels, classified by their increments
_PANEL_NODES = 129  # Simpson nodes per panel
_EDGE_PANELS = 21  # edge or tail panels per open end
_PANEL_SCALE = {"eckart": 1.0}  # first tail panel length at an infinite end; 16.0 elsewhere


def _panels(entry):
    # base panel plus a geometric sequence of edge/tail panels per open end:
    # offsets from a finite end halve, distances towards an infinite end double
    dom = entry.domain
    base, sides = [], []
    for end, sign in ((dom.x1, 1.0), (dom.x2, -1.0)):
        if math.isfinite(end):
            s0, k = (0.1 * dom.length, _EDGE_PANELS) if dom.bounded else (1e-9, 8)
            pts = [end + sign * s0 * 2.0**-j for j in range(k + 1)]
        else:
            L = _PANEL_SCALE.get(entry.name, 16.0)
            pts = [-sign * L]
            while L < entry.probe_bound and len(pts) <= _EDGE_PANELS:
                L *= 2.0
                pts.append(-sign * min(L, entry.probe_bound))
        base.append(pts[0])
        sides.append([tuple(sorted(pair)) for pair in zip(pts[1:], pts)])
    return tuple(base), sides


def _classify_side(increments, total):
    # "converged" or "diverged" from the trend of one side's panel increments at the far end
    d = np.asarray(increments, dtype=float)
    if len(d) == 0:
        return "converged"
    total = max(total, 1e-300)
    last_rel = float(d[-1] / total)
    growing = len(d) >= 2 and d[-2] > 0.0 and d[-1] / d[-2] > 1.0
    if last_rel <= 1e-8 and not growing:
        return "converged"
    if len(d) >= 3 and np.all(d[-3:] > 0.0):
        ratios = d[-2:] / d[-3:-1]
        if np.all(ratios <= 0.9):
            return "converged"
        if np.all(ratios >= 1.02):
            return "diverged"
    return "converged" if last_rel < 1e-6 else "diverged"


def _square_integrable_reference(assembled, entry):
    # (square integrable, side verdicts) of the panel probe, one log_abs call
    # and one quadrature per panel
    base, sides = _panels(entry)
    ref = float(np.max(assembled.log_abs(np.linspace(base[0], base[1], _PANEL_NODES))))

    def panel_integral(a, b):
        grid = Grid(Interval(a, b), _PANEL_NODES)
        lg = assembled.log_abs(grid.nodes())
        if np.any(lg - ref > 350.0):
            return math.inf
        return quadrature(np.exp(2.0 * (lg - ref)), grid)

    total = panel_integral(*base)
    verdicts = {}
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
        verdict = "diverged" if overflow else _classify_side(incs, total)
        pts, finite_end = _endpoint_probes(entry, assembled.problem, side_name)
        if verdict == "diverged" and not overflow and not finite_end:
            u = 2.0 * np.asarray(assembled.log_abs_at(pts), dtype=float)
            if _exp_decay_certificate(u[np.isfinite(u)])[0]:
                verdict = "converged"
        verdicts[side_name] = verdict
    return all(v == "converged" for v in verdicts.values()), verdicts


def _same(a, b):
    """== that also holds between two NaNs, recursing into dicts, lists, tuples."""
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _probed_levels(entry, params):
    # the levels that spectrum --n-levels auto and the counting check probe
    counting = entry.counting(params)
    if counting.kind == "zero":
        return 4
    return min(counting.levels(verif.AUTO_LEVELS) + (counting.kind == "finite"), verif.AUTO_LEVELS)


def _drawn_params(entry, seed, draws, spread=1.2):
    # each default scaled by e^U, U uniform in [-spread, spread], redrawn until valid
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < draws:
        p = {k: v * math.exp(rng.uniform(-spread, spread)) for k, v in entry.default_params.items()}
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
        {"e2": 0.9218, "l": 0.0, "alpha": 0.1002},
    ],
    "eckart": [{"A": 2.0, "B": 5.0, "alpha": 0.8}, {"A": 2.1222, "B": 6.2799, "alpha": -0.9425}],
    "morse": [{"A": 2.5, "B": 7.0, "alpha": 1.0}, {"A": 1.0832, "B": 0.9487, "alpha": 1.4426}],
    "oscillator_3d": [{"omega": 1.0, "l": 1.0, "alpha": 1.0}],
}


def _counting_boundaries(entry, params, rel=1e-6, spread=2.5, steps=21):
    # the points rel (relative) either side of each place where the counting
    # rule changes as one parameter alone moves from params by e^U, U in
    # [-spread, spread], each place found by bisecting U
    def counting(key, u):
        p = {**params, key: params[key] * math.exp(u)}
        try:
            entry.validate(p)
        except PdemError:
            return None
        return str(entry.counting(p))

    us = np.linspace(-spread, spread, steps)
    found = []
    for key in entry.param_names:
        counts = [counting(key, u) for u in us]
        for lo, hi, c_lo, c_hi in zip(us[:-1], us[1:], counts[:-1], counts[1:]):
            if None in (c_lo, c_hi) or c_lo == c_hi:
                continue
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                c = counting(key, mid)
                if c is None:
                    break
                if c == c_lo:
                    lo = mid
                else:
                    hi = mid
            else:
                edge = params[key] * math.exp(0.5 * (lo + hi))
                found += [{**params, key: edge * (1.0 + d)} for d in (-rel, rel)]
    return found


@pytest.mark.parametrize("name", ALL)
def test_batched_probe_matches_per_panel_reference(name):
    # defaults, the regimes of test_robustness.py, known false-FAIL points and
    # seeded draws: every level of one batched call has the verdicts and the
    # full evidence, NaNs included, of a call that probes that level alone
    entry = catalog.ENTRIES[name]
    cases = [dict(entry.default_params), *_PROBE_REGIMES.get(name, []), *_drawn_params(entry, 7, 2)]
    for params in cases:
        levels = _probed_levels(entry, params)
        batched = admissibility_checks(LevelTable(entry, params), range(levels))
        assert len(batched) == levels
        for n, verdict in enumerate(batched):
            alone = admissibility_checks(LevelTable(entry, params), [n])[0]
            got, want = ((v.square_integrable, v.hermiticity_ok, v.evidence) for v in (verdict, alone))
            assert _same(got, want), (params, n, got, want)


def _end_points(entry, params):
    problem = entry.chain_problem(params)
    return [_endpoint_probes(entry, problem, side)[0].x for side in ("left", "right")]


def _count_level_work(monkeypatch):
    # the chain solves, descents and batched log |psi| evaluations made through wavefunctions
    work = {"solve_chain": [], "_descend": [], "_log_abs_rows": []}
    for attr, note in (
        ("solve_chain", lambda problem, depth: depth),
        ("_descend", lambda sp, chain, n: n),
        ("_log_abs_rows", lambda rows, pts: (len(rows), pts.x)),
    ):
        original = getattr(wavefunctions, attr)

        def counted(*args, attr=attr, note=note, original=original):
            work[attr].append(note(*args))
            return original(*args)

        monkeypatch.setattr(wavefunctions, attr, counted)
    return work


@pytest.mark.parametrize("name", ALL)
def test_probe_evaluates_each_level_once(monkeypatch, name):
    # one batched call solves the chain once, to the deepest level, descends to
    # each level once, and evaluates log |psi_n| of all levels once per end, on
    # that end's endpoint points; both tests at that end read the result
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    k = _probed_levels(entry, params)
    work = _count_level_work(monkeypatch)
    admissibility_checks(LevelTable(entry, params), range(k))
    assert work["solve_chain"] == [k - 1]
    assert work["_descend"] == list(range(k))
    ends = _end_points(entry, params)
    assert len(work["_log_abs_rows"]) == 2, [x.size for _, x in work["_log_abs_rows"]]
    assert all(rows == k and np.array_equal(x, ends[i]) for i, (rows, x) in enumerate(work["_log_abs_rows"]))


@pytest.mark.parametrize("name", ALL)
def test_spectrum_request_assembles_each_level_once(monkeypatch, name):
    # spectrum --n-levels auto, with and without --oracle: the probes, the
    # oracle's level cap and the Gram check read one level table, so the chain
    # is solved once for them, each level is descended to once, and each end's
    # probe points are evaluated once for all k levels
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    k = entry.counting(params).levels(verif.AUTO_LEVELS)
    ends = _end_points(entry, params)
    for with_oracle in (False, True):
        work = _count_level_work(monkeypatch)
        cli.build_spectrum_report(entry, params, "auto", with_oracle)
        assert work["solve_chain"] == [max(k - 1, 5)]
        assert len(work["_descend"]) == len(set(work["_descend"])) and set(range(k)) <= set(work["_descend"])
        probes = [rows for rows, x in work["_log_abs_rows"] if any(np.array_equal(x, e) for e in ends)]
        assert probes == ([k, k] if k else []), probes


@pytest.mark.parametrize("name", ALL)
def test_probe_evaluates_f_on_panel_nodes_once(monkeypatch, name):
    # one batched call evaluates f on each end's endpoint points once, however
    # many levels it probes
    calls = []
    f = DeformingFunction.f

    def counted(self, x):
        calls.append(np.asarray(x, dtype=float))
        return f(self, x)

    monkeypatch.setattr(DeformingFunction, "f", counted)
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    ends = _end_points(entry, params)
    for k in (1, _probed_levels(entry, params)):
        calls.clear()
        admissibility_checks(LevelTable(entry, params), range(k))
        for x in ends:
            assert sum(c.shape == x.shape and np.array_equal(c, x) for c in calls) == 1, (k, [c.size for c in calls])


def _reference_cases():
    # the defaults, the regimes above, wide seeded draws and both sides of
    # every counting boundary along one parameter
    cases = []
    for name in ALL:
        entry = catalog.ENTRIES[name]
        base = dict(entry.default_params)
        edges = _counting_boundaries(entry, base)
        assert all(str(entry.counting(p)) != str(entry.counting(q)) for p, q in zip(edges[::2], edges[1::2]))
        points = [base, *_PROBE_REGIMES.get(name, []), *_drawn_params(entry, 11, 4, spread=2.5), *edges]
        cases += [(entry, p) for p in points]
    return cases


def test_probe_verdicts_match_panel_reference():
    # the tail exponent against the panel probe it replaced, over the reference
    # cases. The verdicts agree except at Coulomb levels whose tail the panels
    # read as divergent while its exponent is below -1: |psi|^2 ~ x^p with p
    # just below -1 (-1.15 to -1.000001 in a scan of 2,407 points) converges
    # too slowly for the panel increments to show it
    cases = _reference_cases()
    levels = slow = 0
    differ = []
    for entry, params in cases:
        for n, verdict in enumerate(admissibility_checks(LevelTable(entry, params), range(_probed_levels(entry, params)))):
            levels += 1
            want, sides = _square_integrable_reference(LevelTable(entry, params)[n], entry)
            if verdict.square_integrable == want:
                continue
            square = verdict.evidence["square"]
            diverged = [side for side, v in sides.items() if v == "diverged"]
            if entry.name == "coulomb" and verdict.square_integrable and all(
                square[side]["tail_exponents"][-1] < -1.0 for side in diverged
            ):
                slow += 1
            else:
                differ.append((entry.name, params, n, sides, square))
    print(f"\n{len(cases)} points, {levels} levels: {slow} Coulomb level(s) pass on a tail exponent below -1"
          " where the panels diverge")
    assert not differ, differ


# the Hermiticity probe that the tail test against 0 replaced: an end passed
# when f plateaus there, when |psi|^2 f fell 1e-8 below its first probe value,
# or when its last three slopes per doubling were all <= -0.02
def _f_plateaus(fvals):
    tail = fvals[-3:]
    return bool(
        np.all(np.isfinite(tail))
        and np.min(tail) > 0.0
        and np.max(tail) / np.min(tail) < 1.0 + 1e-3
        and np.max(tail) < 1e6
    )


def _hermiticity_endpoint_reference(pts, log_abs):
    f = np.asarray(pts.f, dtype=float)
    if _f_plateaus(f):
        return True
    u = np.asarray(2.0 * log_abs + np.log(f), dtype=float)
    u = u[np.isfinite(u)]
    if len(u) == 0 or u[-1] - u[0] <= math.log(1e-8):
        return True
    return len(u) >= 4 and bool(np.all(np.diff(u)[-3:] / math.log(2.0) <= -0.02))


# Eckart near alpha = -2, where log|psi_n| is rounding noise of P_n's monomial
# coefficients at n >= 11: the tail test reads level 10 here as admissible,
# against the counting rule's finite(10)
_NOISE_LEVEL = ("eckart", {"A": 2.025252183688311, "B": 6.485726596968155, "alpha": -1.9379789594805639}, 10)
# a hyperbolic Poeschl-Teller point whose |psi|^2 f plateaus near e^-37: the
# decay threshold of the replaced probe read its four levels as admissible
_DEEP_PLATEAU = ("hyperbolic_poschl_teller", {"A": 12.950214257840315, "alpha": 0.06973132594846719})


def test_hermiticity_verdicts_match_plateau_reference():
    # the tail test against 0 against the Hermiticity probe it replaced, over the
    # reference cases, the deep plateau and the noise level's point. Each changed
    # verdict is one of: a Coulomb level next to a counting boundary turns
    # admissible, as the count says; a hyperbolic Poeschl-Teller level, whose
    # |psi|^2 f plateaus, turns inadmissible, as the zero count says; a Morse or
    # Eckart level that is not square integrable fails Hermiticity too, where
    # only the f plateau passed it. The noise level is the single exception
    extra = [(catalog.ENTRIES[name], point) for name, point, *_ in (_DEEP_PLATEAU, _NOISE_LEVEL)]
    changes = {"coulomb": 0, "hyperbolic_poschl_teller": 0, "not square integrable": 0, "noise": 0}
    differ = []
    for entry, params in [*_reference_cases(), *extra]:
        problem = entry.chain_problem(params)
        ends = [_endpoint_probes(entry, problem, side)[0] for side in ("left", "right")]
        counting = entry.counting(params)
        for n, verdict in enumerate(admissibility_checks(LevelTable(entry, params), range(_probed_levels(entry, params)))):
            assembled = LevelTable(entry, params)[n]
            want = all(_hermiticity_endpoint_reference(pts, assembled.log_abs_at(pts)) for pts in ends)
            if verdict.hermiticity_ok == want:
                continue
            counted = counting.kind == "infinite" or (counting.kind == "finite" and n < counting.count)
            if entry.name == "coulomb" and verdict.admissible and counted:
                changes["coulomb"] += 1
            elif entry.name == "hyperbolic_poschl_teller" and not verdict.hermiticity_ok and counting.kind == "zero":
                changes["hyperbolic_poschl_teller"] += 1
            elif entry.name in ("morse", "eckart") and not (verdict.hermiticity_ok or verdict.square_integrable):
                changes["not square integrable"] += 1
            elif (entry.name, params, n) == _NOISE_LEVEL and verdict.admissible:
                changes["noise"] += 1
            else:
                differ.append((entry.name, params, n, want, verdict.evidence["hermiticity"]))
    print(f"\nHermiticity verdict changes: {changes}")
    assert not differ, differ
    assert changes["noise"] == 1 and all(changes.values()), changes


def _log_abs_reference(assembled, pts):
    # log |psi_n| of one level as it was evaluated before the batched probe
    half_log_f, log_q, small, t_small, t_inv, log_t = pts.logs
    poly = assembled.poly
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dF = assembled.F(pts.parts[2]) - assembled.F_ref
        log_P = np.empty(small.shape)
        log_P[small] = np.log(np.abs(P.polyval(t_small, poly)) + 1e-300)
        log_P[~small] = (len(poly) - 1) * log_t + np.log(np.abs(P.polyval(t_inv, poly[::-1])) + 1e-300)
        return half_log_f + -0.5 * assembled.n * log_q + log_P.reshape(pts.x.shape) - dF


@pytest.mark.parametrize(
    "name, params", [(name, dict(catalog.ENTRIES[name].default_params)) for name in ALL] + [_NOISE_LEVEL[:2], _DEEP_PLATEAU]
)
def test_batched_log_abs_matches_per_level(name, params):
    # the batched log |psi_n| of levels 0..15 at each end's endpoint probes has
    # the bytes of each level evaluated alone, NaNs and signed zeros included
    entry = catalog.ENTRIES[name]
    table = LevelTable(entry, params)
    rows = table.levels(range(16))
    for side in ("left", "right"):
        pts = _endpoint_probes(entry, table.problem, side)[0]
        for level, got in zip(rows, _log_abs_rows(rows, pts), strict=True):
            for want in (_log_abs_reference(level, pts), level.log_abs_at(pts)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (side, level.n)


@pytest.mark.parametrize("name", ALL)
def test_gram_matrix_matches_per_level_states(name):
    # the Gram matrix from one level table and one set of grid points has the
    # bits of the one built from each level's normalized_state alone
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    grid = verif.oracle_grid(entry, params)
    levels = entry.counting(params).levels(4) or 1
    states = [normalized_states(LevelTable(entry, params), [n], grid)[0] for n in range(levels)]
    want = np.array([[quadrature(a * b, grid) for b in states] for a in states])
    assert verif.gram_matrix(LevelTable(entry, params), levels).tobytes() == want.tobytes()
