import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from pdem_si import catalog, cli, verification as verif, wavefunctions
from pdem_si.core import PRESET_EXPONENTS, AmbiguityParams, ChainError, DeformingFunction, Grid, Interval, PdemError, ZeroNorm
from pdem_si.oracle import quadrature
from pdem_si.si_engine import _PHI_BLOWUP, SuperpotentialClass, solve_chain
from pdem_si.wavefunctions import (
    _antideriv,
    _descend,
    _Points,
    LevelTable,
    admissibility_checks,
    excited_state_eval,
    normalize,
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
    p0 = polynomial_chain(LevelTable(box, {"alpha": 0.5}), 0)
    assert p0.coeffs == (1.0,) and p0.degree == 0

    p1 = polynomial_chain(LevelTable(box, {"alpha": 0.5}), 1)
    assert p1.degree == 1
    assert abs(p1.coeffs[0]) < 1e-15 and abs(p1.coeffs[1] - 3.0 * 1.5) < 1e-12

    osc = catalog.ENTRIES["oscillator_3d"]
    params = dict(osc.default_params)
    lam = -params["l"] - 1.0
    mu = 0.5 * (params["alpha"] + math.sqrt(params["omega"] ** 2 + params["alpha"] ** 2))
    q1 = polynomial_chain(LevelTable(osc, params), 1)
    assert abs(q1.coeffs[0] - (2 * lam - 1)) < 1e-12
    assert abs(q1.coeffs[1] - (2 * mu + params["alpha"])) < 1e-12


def test_box_second_polynomial_closed_form():
    # descending through lambda_1 = 2(1+alpha): P_2 = 5(1+alpha) [3(1+alpha) y^2 - 1]
    alpha = 0.5
    p2 = polynomial_chain(LevelTable(catalog.ENTRIES["box"], {"alpha": alpha}), 2)
    c = 5.0 * (1 + alpha)
    want = (-c, 0.0, 3.0 * (1 + alpha) * c)
    assert np.allclose(p2.coeffs, want, rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("name,nmax", [("box", 6), ("coulomb", 4), ("oscillator_3d", 5)])
def test_polynomial_degree_exact(name, nmax):
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    for n in range(nmax + 1):
        poly = polynomial_chain(LevelTable(entry, params), n)
        assert poly.degree == n
        top = abs(poly.coeffs[-1])
        assert top > 1e-12 * max(abs(c) for c in poly.coeffs)


def test_scarf_class3_degree_cancellation():
    entry = catalog.ENTRIES["scarf_i"]
    params = dict(entry.default_params)
    for n in range(1, 7):
        poly = polynomial_chain(LevelTable(entry, params), n)
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


@pytest.mark.bitpin
@pytest.mark.parametrize("name", ALL)
def test_descend_matches_numpy_polynomial_reference(name):
    # the same coefficient bytes, signed zeros included, and the same class3
    # cancellation record
    entry = catalog.ENTRIES[name]
    for params in [dict(entry.default_params), *_drawn_params(entry, 7, 40)]:
        problem = entry.chain_problem(params)
        chain = solve_chain(problem, 16)
        for n in range(17):
            got, got_cancels = _descend(problem.sp, chain, n)
            want, want_cancels = _descend_reference(problem.sp, chain, n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (params, n)
            assert got_cancels == want_cancels, (params, n)
            assert bool(got_cancels) == (problem.sp.class_id == "class3" and n > 0)


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
    poly = polynomial_chain(LevelTable(entry, dict(entry.default_params)), 3)
    t = np.linspace(-0.9, 0.9, 7)
    assert np.array_equal(poly(t), P.polyval(t, poly.coeffs))
    assert poly(0.25) == P.polyval(0.25, poly.coeffs) and np.ndim(poly(0.25)) == 0


def test_polynomial_chain_guards():
    with pytest.raises(ChainError):
        polynomial_chain(LevelTable(catalog.ENTRIES["box"], {"alpha": 0.5}), -1)


def test_admissibility_box_all_levels():
    entry = catalog.ENTRIES["box"]
    for v in admissibility_checks(LevelTable(entry, {"alpha": 0.5}), (0, 5, 10)):
        assert v.admissible and v.square_integrable and v.hermiticity_ok
        # f(+-pi/2) = 1.5 finite: |psi|^2 f vanishes with |psi|^2 at both ends
        assert [ev["y_star"] for ev in v.evidence.values()] == [-math.inf, math.inf]
        assert all(ev["herm_exponent"] > 0.0 for ev in v.evidence.values())


def test_admissibility_hyperbolic_pt():
    entry = catalog.ENTRIES["hyperbolic_poschl_teller"]
    for v in admissibility_checks(LevelTable(entry, {"A": 1.0, "alpha": 0.5}), range(4)):
        assert v.square_integrable
        assert not v.hermiticity_ok  # |psi|^2 f plateaus at a nonzero constant
        assert not v.admissible


def test_hyperbolic_pt_plateau_never_passes_hermiticity():
    # |psi|^2 f tends to a nonzero constant at both infinite ends whatever A and
    # alpha, often far below its peak: at y* = tanh(+-inf) = +-1 neither f phi'
    # nor P_n vanishes, so its exponent is exactly 0 and no end passes
    entry = catalog.ENTRIES["hyperbolic_poschl_teller"]
    rng = np.random.default_rng(3)
    passed = []
    for _ in range(500):
        params = {"A": math.exp(rng.uniform(-3.0, 3.0)), "alpha": rng.uniform(0.01, 0.99)}
        for n, v in enumerate(admissibility_checks(LevelTable(entry, params), range(6))):
            ends = [(ev["y_star"], ev["herm_exponent"]) for ev in v.evidence.values()]
            if v.hermiticity_ok or ends != [(-1.0, 0.0), (1.0, 0.0)]:
                passed.append((params, n, v.evidence))
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


@pytest.mark.parametrize(
    "name",
    [
        "box",
        "trig_poschl_teller",
        "shifted_oscillator",
        "oscillator_3d",
        "coulomb",
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
    # full evidence, NaNs included, of a call that reads that level alone
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


def _count_level_work(monkeypatch):
    # the chain solves and descents made through wavefunctions
    work = {"solve_chain": [], "_descend": []}
    for attr, note in (("solve_chain", lambda problem, depth: depth), ("_descend", lambda sp, chain, n: n)):
        original = getattr(wavefunctions, attr)

        def counted(*args, attr=attr, note=note, original=original):
            work[attr].append(note(*args))
            return original(*args)

        monkeypatch.setattr(wavefunctions, attr, counted)
    return work


@pytest.mark.parametrize("name", ALL)
def test_probe_evaluates_each_level_once(monkeypatch, name):
    # one call solves the chain once, to the deepest level, and reads every
    # level's exponents from it: no level is assembled
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    k = _probed_levels(entry, params)
    work = _count_level_work(monkeypatch)
    admissibility_checks(LevelTable(entry, params), range(k))
    assert work == {"solve_chain": [k - 1], "_descend": []}


@pytest.mark.parametrize("name", ALL)
def test_spectrum_request_assembles_each_level_once(monkeypatch, name):
    # spectrum --n-levels auto, with and without --oracle: the verdicts, the
    # oracle's level cap, the chain residuals and the Gram check read one level
    # table, so the chain is solved once for all of them and no level is
    # descended to twice
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    k = entry.counting(params).levels(verif.AUTO_LEVELS)
    for with_oracle in (False, True):
        work = _count_level_work(monkeypatch)
        cli.build_spectrum_report(entry, params, "auto", with_oracle)
        assert work["solve_chain"] == [max(k - 1, verif._CHAIN_DEPTH + 1)]
        assert len(work["_descend"]) == len(set(work["_descend"])), work["_descend"]


# the chain depths one verify battery solves at the defaults: depth 6 for the
# chain checks, then AUTO_LEVELS - 1 where the counting check reads 16 levels
_VERIFY_SOLVES = {
    "box": [6, 15], "trig_poschl_teller": [6, 15], "hyperbolic_poschl_teller": [6], "shifted_oscillator": [6, 15],
    "oscillator_3d": [6, 15], "coulomb": [6], "morse": [6], "eckart": [6], "scarf_i": [6, 15], "rosen_morse_i": [6, 15],
}


@pytest.mark.parametrize("name", ALL)
def test_verify_battery_solves_the_chain_once_per_depth(monkeypatch, name):
    # every check of the battery reads the request's level table: the chain is
    # solved to depth 6 before the first chain check and again only when the
    # counting check reads deeper
    entry = catalog.ENTRIES[name]
    work = _count_level_work(monkeypatch)
    list(verif.verify_entry(entry, dict(entry.default_params)))
    assert work["solve_chain"] == _VERIFY_SOLVES[name]


_CHAIN_CHECKS = {
    "chain_residual_max": verif.chain_residual_max,
    "printed_chain_residual_max": verif.printed_chain_residual_max,
    "chain_vs_printed_energy": verif.chain_vs_printed_energy,
    **{
        f"vtilde_agreement[{preset}]": lambda table, amb=AmbiguityParams.preset(preset): verif.vtilde_agreement(table, amb)
        for preset in PRESET_EXPONENTS
    },
}


@pytest.mark.parametrize("check", sorted(_CHAIN_CHECKS))
@pytest.mark.parametrize("name", ALL)
def test_chain_checks_read_the_same_bits_at_any_depth(name, check):
    # solve_chain is sequential, so a table whose chain was first solved to
    # depth 40 gives each chain check the bits of a fresh table
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    deep = LevelTable(entry, params)
    deep.chain_to(40)
    assert repr(_CHAIN_CHECKS[check](deep)) == repr(_CHAIN_CHECKS[check](LevelTable(entry, params)))
    assert deep.chain.depth == 40


@pytest.mark.parametrize("name", ALL)
def test_probe_evaluates_f_on_panel_nodes_once(monkeypatch, name):
    # the verdicts are closed forms in the chain and the class constants:
    # however many levels one call reads, f is evaluated nowhere
    calls = []
    f = DeformingFunction.f

    def counted(self, x):
        calls.append(np.asarray(x, dtype=float))
        return f(self, x)

    monkeypatch.setattr(DeformingFunction, "f", counted)
    entry = catalog.ENTRIES[name]
    params = dict(entry.default_params)
    for k in (1, _probed_levels(entry, params)):
        admissibility_checks(LevelTable(entry, params), range(k))
    assert calls == []


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


# Eckart near alpha = -2, where log|psi_n| is rounding noise of P_n's monomial
# coefficients at n >= 11: the tail test read level 10 here as admissible,
# against the counting rule's finite(10); P_10(1) = -0.003 against coefficients
# of about 1e13, which a root test on the coefficients reads as a triple root
_NOISE_LEVEL = ("eckart", {"A": 2.025252183688311, "B": 6.485726596968155, "alpha": -1.9379789594805639}, 10)
# a hyperbolic Poeschl-Teller point whose |psi|^2 f plateaus near e^-37, far
# below its peak: a decay threshold on sampled tails reads its levels as admissible
_DEEP_PLATEAU = ("hyperbolic_poschl_teller", {"A": 12.950214257840315, "alpha": 0.06973132594846719})


# the verdicts as they were read before the per-end pass: every order, the
# residue and the descent's step factors again for each level at each end,
# one scalar zero test per step
def _is_zero_reference(terms):
    total = scale = 0.0
    for v in terms:
        total, scale = total + v, scale + abs(v)
    return abs(total) <= wavefunctions._ROUNDING * scale


def _local_reference(c, y0, sign):
    c = list(wavefunctions._trim(np.asarray(c, dtype=float)))
    if math.isinf(y0):
        return 1 - len(c), c[-1] * sign ** (len(c) - 1)
    k = 0
    while len(c) > 1 and _is_zero_reference([v * y0**i for i, v in enumerate(c)]):
        for i in range(len(c) - 2, -1, -1):
            c[i] += y0 * c[i + 1]
        c, k = c[1:], k + 1
    return k, float(P.polyval(y0, c)) * sign**k


def _end_verdict_reference(sp, chain, n, y0, sign):
    lam, mu = chain.lambda_seq, chain.mu_seq

    def order(c, at=y0):
        return _local_reference(c, at, sign)[0]

    if sp.class_id == "class1":
        ab, bb, cb = sp.barred
        num, den = (mu[n], lam[n]), (cb, bb, ab)
        q_order, f_phi_order, t0, t_order, kernel = 0, order(den), y0, 1, den
    elif sp.class_id == "class2":
        ab, bb = sp.barred
        num, den, kernel = (mu[n], 0.0, lam[n]), (0.0, bb, 0.0, ab), (0.0, ab, bb)
        y_order = order((0.0, 1.0))
        q_order, f_phi_order = -2 * y_order, order((bb, 0.0, ab))
        t0 = (math.inf if y_order > 0 else 0.0) if y_order else y0**-2.0
        t_order = 2 * abs(y_order) or 1
    else:
        A, B = sp.consts[0], sp.consts[1]
        cb, db = sp.barred[2], sp.barred[3]
        kernel = (B, 0.0, A)
        num, den = (mu[n], lam[n]), np.convolve((db, cb), kernel)
        q_order, t0, t_order = order(kernel), y0, 1
        f_phi_order = order((db, cb)) + 0.5 * q_order
    k = -n if math.isinf(t0) else 0
    on_kernel = not math.isinf(t0) and order(kernel, t0) > 0
    for m in range(n if on_kernel else 0):
        j = n - m - 1
        if sp.class_id == "class1":
            terms = [mu[n], mu[j], lam[n] * t0, lam[j] * t0, -k * bb, -2.0 * k * ab * t0]
        elif sp.class_id == "class2":
            terms = [lam[n], lam[j], -m * ab, mu[n] * t0, mu[j] * t0, -m * bb * t0, 2.0 * k * ab, 4.0 * k * bb * t0]
        else:
            w = (m - 2 * k) * A * t0
            terms = [mu[n], mu[j], lam[n] * t0, lam[j] * t0, w * db, w * t0 * cb]
        k += _is_zero_reference(terms)
    (kn, an), (kd, ad) = _local_reference(num, y0, sign), _local_reference(den, y0, sign)
    infinite = math.isinf(y0)
    pole = kd - kn + (2 if infinite else 0)
    r = an / ad * (-sign if infinite else sign)
    if pole >= 2:
        decays = r < 0.0
        return decays, decays, {"y_star": y0, "exp_decay": decays}
    terms = {"q": -n * q_order, "P": 2 * t_order * k, "F": -2.0 * r if pole == 1 else 0.0}
    h = float(sum(terms.values()))
    square = h - f_phi_order - (2.0 if infinite else 0.0)
    return square > -1.0, h > 0.0, {"y_star": y0, "herm_exponent": h, "square_exponent": square, "terms": terms}


def _plain(x):
    # the reference's numpy scalars as the Python values they equal
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x.item() if isinstance(x, np.generic) else x


def _admissibility_reference(entry, params, levels):
    table = LevelTable(entry, params)
    sp, chain = table.problem.sp, table.chain_to(max(levels))
    y_ref, ends = float(sp.phi_val(entry.x_ref)), []
    for side, x in (("left", entry.domain.x1), ("right", entry.domain.x2)):
        y0 = float(sp.phi_val(x))
        y0 = math.copysign(math.inf, y0) if abs(y0) > _PHI_BLOWUP else y0
        ends.append((side, y0, math.copysign(1.0, y0 if math.isinf(y0) else y_ref - y0)))
    out = []
    for n in levels:
        sides = {side: _end_verdict_reference(sp, chain, n, y0, sign) for side, y0, sign in ends}
        out.append((all(v[0] for v in sides.values()), all(v[1] for v in sides.values()), _plain({s: v[2] for s, v in sides.items()})))
    return out


# the Coulomb degenerate repeat: P_2 and P_4 vanish at y* = 0 through a zero
# step factor of the descent
_DEGENERATE_REPEAT = ("coulomb", {"e2": 1.0, "l": 1.0, "alpha": 0.1})


def test_zero_tests_sum_left_to_right():
    # 1e-16 is below half an ulp of 1.0, so left to right the sum is exactly 0;
    # a compensated sum (math.fsum, or sum from Python 3.12 on) gives 1e-13,
    # over the bound of _ROUNDING times the terms' magnitude 2. The scalar test
    # of _local and the element-wise one of _descent_orders agree
    terms = [1.0, *[1e-16] * 1000, -1.0]
    assert math.fsum(terms) > wavefunctions._ROUNDING * 2.0
    assert wavefunctions._is_zero(terms) and _is_zero_reference(terms)
    assert wavefunctions._is_zero([np.full(3, v) for v in terms]).all()


@pytest.mark.bitpin
def test_admissibility_matches_per_level_reference():
    # the per-end pass and the vectorised descent orders give every verdict and
    # every evidence value of the per-level reference, NaNs included: 16 levels
    # at the reference cases, the noise level's point, the deep plateau and the
    # degenerate repeat, and 64 levels at the Scarf I and 3D oscillator defaults
    extra = [_NOISE_LEVEL[:2], _DEEP_PLATEAU, _DEGENERATE_REPEAT]
    cases = [(entry, params, 16) for entry, params in _reference_cases()]
    cases += [(catalog.ENTRIES[name], params, 16) for name, params in extra]
    cases += [(catalog.ENTRIES[name], dict(catalog.ENTRIES[name].default_params), 64) for name in ("scarf_i", "oscillator_3d")]
    for entry, params, levels in cases:
        got = [(v.square_integrable, v.hermiticity_ok, v.evidence) for v in admissibility_checks(LevelTable(entry, params), range(levels))]
        assert _same(got, _admissibility_reference(entry, params, range(levels))), (entry.name, params)
    entry, params = catalog.ENTRIES[_DEGENERATE_REPEAT[0]], _DEGENERATE_REPEAT[1]
    verdicts = admissibility_checks(LevelTable(entry, params), range(16))
    assert [n for n, v in enumerate(verdicts) if v.evidence["right"]["terms"]["P"]] == [2, 4]
    print(f"\n{len(cases)} points: verdicts and evidence equal to the per-level reference")


def test_descent_orders_match_a_sequential_loop():
    # small integer step factors vanish often, several times in one row and
    # also, after k rises, at steps before the last zero: each row's order is
    # that of testing its steps one by one, k rising after each zero factor
    def sequential(factor, n):
        k = 0
        for m in range(n):
            k += bool(wavefunctions._is_zero(factor(n, m, n - m - 1, k)))
        return k

    rng = np.random.default_rng(0)
    for a, b, c, d, e in rng.integers(-3, 4, size=(300, 5)):

        def factor(n, m, j, k, a=a, b=b, c=c, d=d, e=e):
            return [1.0 * a * m, 1.0 * b * k, 1.0 * c * j + d * n, 1.0 * e]

        levels = [0, 3, 1, 11, 3, 7]
        assert wavefunctions._descent_orders(factor, levels) == {n: sequential(factor, n) for n in levels}, (a, b, c, d, e)


def test_admissibility_evidence_is_plain():
    # every evidence value is a plain bool, int or float, ready for JSON: the
    # descent order P is an int and the residue term F a float, also where a
    # descent factor vanishes or y* is infinite
    def values(ev):
        for v in ev.values():
            yield from values(v) if isinstance(v, dict) else [v]

    cases = [(catalog.ENTRIES[name], dict(catalog.ENTRIES[name].default_params)) for name in ALL]
    cases.append((catalog.ENTRIES[_DEGENERATE_REPEAT[0]], _DEGENERATE_REPEAT[1]))
    for entry, params in cases:
        for v in admissibility_checks(LevelTable(entry, params), range(16)):
            assert type(v.square_integrable) is bool and type(v.hermiticity_ok) is bool
            assert all(type(x) in (bool, int, float) for x in values(v.evidence)), (entry.name, v.evidence)
            for side in v.evidence.values():
                if "terms" in side:
                    assert (type(side["terms"]["P"]), type(side["terms"]["F"])) == (int, float)


def test_admissibility_work_is_per_end_plus_linear(monkeypatch):
    # the orders that do not depend on the level are read once per end, and the
    # descent orders of all levels in one pass, so each level adds the same
    # work: one order and one zero test per end, for its residue
    entry = catalog.ENTRIES["scarf_i"]
    params = dict(entry.default_params)
    work = {"_local": 0, "_is_zero": 0}
    for attr in work:
        original = getattr(wavefunctions, attr)

        def counted(*args, attr=attr, original=original):
            work[attr] += 1
            return original(*args)

        monkeypatch.setattr(wavefunctions, attr, counted)
    counts = {}
    for levels in (2, 16, 64):
        work.update(dict.fromkeys(work, 0))
        admissibility_checks(LevelTable(entry, params), range(levels))
        counts[levels] = dict(work)
    for attr in work:
        assert counts[16][attr] - counts[2][attr] == 2 * 14, counts
        assert counts[64][attr] - counts[16][attr] == 2 * 48, counts
    assert counts[2]["_local"] == 2 * (4 + 2), counts


def _log_abs_reference(assembled, pts):
    # log |psi_n| of one level with the logarithms of f, q and |t| taken first,
    # as the per-level evaluation took them
    f, (q, t, y) = pts.f, pts.parts
    poly = assembled.poly
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.atleast_1d(t)
        small = np.abs(t) <= 1.0
        big = t[~small]
        half_log_f, log_q = -0.5 * np.log(f), np.log(q)
        t_small, t_inv, log_t = t[small], 1.0 / big, np.log(np.abs(big))
        dF = assembled.F(y) - assembled.F_ref
        log_P = np.empty(small.shape)
        log_P[small] = np.log(np.abs(P.polyval(t_small, poly)) + 1e-300)
        log_P[~small] = (len(poly) - 1) * log_t + np.log(np.abs(P.polyval(t_inv, poly[::-1])) + 1e-300)
        return half_log_f + -0.5 * assembled.n * log_q + log_P.reshape(pts.x.shape) - dF


@pytest.mark.bitpin
@pytest.mark.parametrize(
    "name, params", [(name, dict(catalog.ENTRIES[name].default_params)) for name in ALL] + [_NOISE_LEVEL[:2], _DEEP_PLATEAU]
)
def test_batched_log_abs_matches_per_level(name, params):
    # log |psi_n| of levels 0..15 has the bytes of the per-level evaluation,
    # NaNs and signed zeros included, at the points verification's truncation
    # test reads: 257 residual-window nodes in one call, and each point 1e-6
    # inside an oracle-window edge alone. P_n is read through 1/t where |t| > 1,
    # and such points occur wherever phi is unbounded, in class1 and class2
    entry = catalog.ENTRIES[name]
    table = LevelTable(entry, params)
    a, b = verif.residual_window(entry, params)
    edges = verif.oracle_grid(entry, params).interval
    mid = 0.5 * (edges.x1 + edges.x2)
    big_t = False
    for x in (np.linspace(a, b, 257), *(edge - math.copysign(1e-6, edge - mid) for edge in (edges.x1, edges.x2))):
        pts = _Points(table.problem, x)
        big_t |= bool(np.any(np.abs(pts.parts[1]) > 1.0))
        for level in table.levels(range(16)):
            got, want = level.sign_log_at(pts)[1], _log_abs_reference(level, pts)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (x, level.n)
    assert big_t == (table.problem.sp.phi not in ("sin", "tanh")), table.problem.sp


def _gram_points(name):
    # (params, levels, step count) of each Gram the two tests below read: the
    # defaults and the _PROBE_REGIMES points, with the counted levels (up to 4)
    # and the step at which the Gram's error bar first meets its bound. The
    # Coulomb point e2=1e6 needs 1/128; everywhere else 1/32 suffices
    entry = catalog.ENTRIES[name]
    for params in [dict(entry.default_params), *_PROBE_REGIMES.get(name, [])]:
        levels = entry.counting(params).levels(4)
        if levels:
            yield params, levels, 128 if params.get("e2") == 1e6 else 32


@pytest.mark.parametrize("name", ALL)
def test_gram_is_the_identity_to_rounding(name):
    # the Gram of the counted levels is within 1e-12 of the identity at the
    # defaults and the regimes of test_robustness.py. Coulomb e2=1e6, l=0,
    # alpha=0.1 reads 4.4e-10 at step 1/128 and 2.3e-10 at 1/256, so its error
    # is not the rule's: it gets 1e-9
    for params, levels, steps in _gram_points(name):
        G = verif.gram_matrix(LevelTable(catalog.ENTRIES[name], params), levels)
        bound = 1e-12 if steps == 32 else 1e-9
        assert np.max(np.abs(G - np.eye(levels))) <= bound, (params, G)


@pytest.mark.bitpin
@pytest.mark.parametrize("name", ALL)
def test_gram_matrix_matches_per_level_states(name, monkeypatch):
    # the Gram from one level table and one set of points has the bytes of the
    # one built from rows each read by sign_log_at on a fresh table, at the
    # step where the error bar meets its bound (hyperbolic Poschl-Teller has no
    # counted level: its level 0 alone)
    entry = catalog.ENTRIES[name]
    dom = entry.domain
    for params, levels, steps in list(_gram_points(name)) or [(dict(entry.default_params), 1, 32)]:
        x, w = verif._de_rule(dom, steps)
        rows = []
        for n in range(levels):
            table = LevelTable(entry, params)
            sp, df = table.problem.sp, table.problem.df
            with np.errstate(over="ignore", invalid="ignore"):
                f, y = df._f_unchecked(x), sp.phi_val(x)
            ends = sp.phi_val(np.array([dom.x1, dom.x2]))
            node = (x > dom.x1) & (x < dom.x2) & (y != ends[0]) & (y != ends[1]) & np.isfinite(f) & np.isfinite(y)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                sign, log = table[n].sign_log_at(_Points(table.problem, x[node]))
            rows.append(sign * np.exp(log - np.max(log)))
        rows = np.array(rows)
        want = (rows * w[node]) @ rows.T
        d = 1.0 / np.sqrt(np.diag(want))
        want = want * d[:, None] * d[None, :]
        monkeypatch.setattr(verif, "_DE_STEPS", (steps,))
        assert verif.gram_matrix(LevelTable(entry, params), levels).tobytes() == want.tobytes(), params
