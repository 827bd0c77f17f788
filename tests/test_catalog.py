import math

import numpy as np
import pytest

from pdem_si import catalog, verification as verif
from pdem_si.catalog import (
    CountingResult,
    bound_state_count,
    closed_energy,
    ground_state_closed,
    lookup,
)
from pdem_si.core import AmbiguityParams, DomainError, NotFound, RangeError
from pdem_si.wavefunctions import LevelTable, admissibility_checks
from test_wavefunctions import _DEEP_PLATEAU, _NOISE_LEVEL, _counting_boundaries, _probed_levels, _reference_cases

ALL = sorted(catalog.ENTRIES)


def test_lookup_and_listing():
    assert lookup("coulomb").domain.x1 == 0.0 and math.isinf(lookup("coulomb").domain.x2)
    assert len(catalog.ENTRIES) == 10
    assert set(catalog.EXCLUSIONS) == {"scarf_ii", "rosen_morse_ii", "gen_poschl_teller"}
    with pytest.raises(NotFound) as err:
        lookup("scarf_ii")
    assert "positive definiteness" in str(err.value)
    with pytest.raises(NotFound) as err:
        lookup("rosen_morse_ii")
    assert "bound state" in str(err.value)
    with pytest.raises(NotFound):
        lookup("not_a_potential")


def test_closed_energy_box():
    entry = lookup("box")
    got = [closed_energy(entry, {"alpha": 0.5}, n) for n in range(3)]
    assert got == [1.5, 6.0, 13.5]


def test_closed_energy_coulomb():
    entry = lookup("coulomb")
    p = {"e2": 1.0, "l": 0.0, "alpha": 0.1}
    assert abs(closed_energy(entry, p, 0) - (-0.2025)) < 1e-15
    assert abs(closed_energy(entry, p, 2) - (-1.0 / 3600.0)) < 1e-18
    assert abs(closed_energy(entry, p, 2) - (-2.7778e-4)) < 1e-8


def test_closed_energy_morse_limit():
    entry = lookup("morse")
    val = closed_energy(entry, {"A": 1.0, "B": 1.0, "alpha": 1e-12}, 0)
    assert abs(val - (-1.0)) < 1e-9


def test_closed_energy_trig_pt_undeformed_exact():
    entry = lookup("trig_poschl_teller")
    for n in range(5):
        val = entry.printed_energy({"A": 2.0, "alpha": 0.0}, n)
        assert val == (2.0 + n) ** 2


# (entry, a point outside its region, the text of the condition it fails);
# between them the points fail every condition of every entry
_OUT_OF_RANGE = [
    ("box", {"alpha": 3.0}, "-1 < alpha < 1"),
    ("box", {"alpha": -1.0}, "-1 < alpha < 1"),
    ("box", {"alpha": 0.0}, "alpha != 0"),
    ("trig_poschl_teller", {"A": 0.5, "alpha": 0.3}, "A > 1"),
    ("hyperbolic_poschl_teller", {"A": 1.0, "alpha": 1.5}, "0 < alpha < 1"),
    ("shifted_oscillator", {"omega": 1.0, "b": 0.0, "alpha": 0.01, "beta": 0.2}, "alpha > beta^2"),
    ("oscillator_3d", {"omega": 1.0, "l": 1.0, "alpha": -0.1}, "alpha > 0"),
    ("coulomb", {"e2": 1.0, "l": 0.0, "alpha": 0.0}, "alpha != 0"),
    ("morse", {"A": 1.0, "B": 1.0, "alpha": -0.5}, "alpha > 0"),
    ("eckart", {"A": 1.5, "B": 2.5, "alpha": -2.5}, "alpha >= -2"),
    ("eckart", {"A": 1.5, "B": 2.0, "alpha": -1.0}, "B > A^2"),
    ("scarf_i", {"A": 3.0, "B": 0.5, "alpha": 1.5}, "0 < |alpha| < 1"),
    ("scarf_i", {"A": 3.0, "B": 2.5, "alpha": 0.5}, "0 < B < A - 1"),
    ("rosen_morse_i", {"A": 1.5, "B": 0.5, "alpha": 2.5, "beta": 0.3}, "|alpha|/2 < sqrt(1 + beta)"),
    ("trig_poschl_teller", {"A": 2.0, "alpha": -1.0}, "alpha > -1"),
    ("hyperbolic_poschl_teller", {"A": 0.0, "alpha": 0.5}, "A > 0"),
    ("shifted_oscillator", {"omega": 0.0, "b": 0.3, "alpha": 0.1, "beta": 0.1}, "omega > 0"),
    ("shifted_oscillator", {"omega": 1.0, "b": 0.3, "alpha": 0.0, "beta": 0.0}, "alpha, beta not both 0"),
    ("oscillator_3d", {"omega": 0.0, "l": 1.0, "alpha": 0.05}, "omega > 0"),
    ("oscillator_3d", {"omega": 1.0, "l": -0.5, "alpha": 0.05}, "l >= 0"),
    ("coulomb", {"e2": 0.0, "l": 0.0, "alpha": 0.1}, "e2 > 0"),
    ("coulomb", {"e2": 1.0, "l": -0.5, "alpha": 0.1}, "l >= 0"),
    ("coulomb", {"e2": 1.0, "l": 0.0, "alpha": -0.1}, "alpha > 0"),
    ("morse", {"A": 0.0, "B": 1.0, "alpha": 0.5}, "A > 0"),
    ("morse", {"A": 1.0, "B": 0.0, "alpha": 0.5}, "B > 0"),
    ("eckart", {"A": 1.4, "B": 2.5, "alpha": -1.0}, "A >= 3/2"),
    ("scarf_i", {"A": 3.0, "B": 0.0, "alpha": 0.5}, "0 < B < A - 1"),
    ("rosen_morse_i", {"A": 1.4, "B": 0.5, "alpha": 0.4, "beta": 0.3}, "A >= 3/2"),
    ("rosen_morse_i", {"A": 1.5, "B": 0.5, "alpha": 0.4, "beta": -1.0}, "beta > -1"),
    ("rosen_morse_i", {"A": 1.5, "B": 0.5, "alpha": 0.0, "beta": 0.0}, "alpha, beta not both 0"),
]


@pytest.mark.parametrize("name,params", [(name, params) for name, params, _ in _OUT_OF_RANGE])
def test_range_enforcement(name, params):
    entry = lookup(name)
    with pytest.raises(RangeError):
        entry.validate(params)


@pytest.mark.parametrize("name,params,text", _OUT_OF_RANGE)
def test_range_error_names_the_failed_condition(name, params, text):
    # the message names the entry and the condition's text as `catalog` prints it
    assert text in lookup(name).range_text
    with pytest.raises(RangeError) as err:
        lookup(name).validate(params)
    assert str(err.value).startswith(f"{name}: ") and text in str(err.value)


@pytest.mark.parametrize(
    "name,params,text",
    [
        ("eckart", {"A": 1e200, "B": 2.5, "alpha": -1.0}, "B > A^2"),
        ("eckart", {"A": 1.35e154, "B": 1e300, "alpha": -1.0}, "B > A^2"),
        ("shifted_oscillator", {"omega": 1.0, "b": 0.3, "alpha": 0.1, "beta": 1e200}, "alpha > beta^2"),
        ("shifted_oscillator", {"omega": 1.0, "b": 0.3, "alpha": 1e300, "beta": -1.35e154}, "alpha > beta^2"),
    ],
)
def test_a_condition_past_the_float_range_fails_as_a_range_error(name, params, text):
    # the square overflows a float: the condition fails, with its own message
    # and the values, instead of escaping as an OverflowError
    with pytest.raises(RangeError) as err:
        lookup(name).validate(params)
    assert str(err.value) == f"{name}: {text} required, got {params}"


def test_every_condition_is_tested_at_a_rejected_point():
    failed = {(name, text) for name, _, text in _OUT_OF_RANGE}
    for name, entry in catalog.ENTRIES.items():
        for text, _ in entry.validity:
            assert (name, text) in failed, (name, text)


@pytest.mark.parametrize(
    "name,params",
    [
        ("eckart", {"A": 1.5, "B": 2.5, "alpha": -2.0}),
        ("rosen_morse_i", {"A": 1.5, "B": 0.5, "alpha": 0.4, "beta": 0.3}),
        ("oscillator_3d", {"omega": 1.0, "l": 0.0, "alpha": 0.05}),
        ("coulomb", {"e2": 1.0, "l": 0.0, "alpha": 0.1}),
    ],
)
def test_closed_bounds_accept_their_edge(name, params):
    lookup(name).validate(params)


def test_range_text_ends_with_the_nonzero_clause():
    for entry in catalog.ENTRIES.values():
        clause = "alpha != 0" if entry.deformation_names == ("alpha",) else "alpha, beta not both 0"
        assert entry.range_text.endswith(", " + clause), entry.name


def test_param_name_enforcement():
    entry = lookup("box")
    with pytest.raises(RangeError):
        entry.validate({"alpha": 0.5, "gamma": 1.0})
    with pytest.raises(RangeError):
        entry.validate({})


def test_level_index_enforcement():
    coulomb = lookup("coulomb")
    p = {"e2": 1.0, "l": 0.0, "alpha": 0.1}
    with pytest.raises(IndexError):
        closed_energy(coulomb, p, 3)
    morse = lookup("morse")
    with pytest.raises(IndexError):
        closed_energy(morse, {"A": 1.0, "B": 1.0, "alpha": 0.5}, 1)
    hyp = lookup("hyperbolic_poschl_teller")
    with pytest.raises(IndexError):
        closed_energy(hyp, {"A": 1.0, "alpha": 0.5}, 0)


def test_counting_rules():
    coulomb = lookup("coulomb")
    c = bound_state_count(coulomb, {"e2": 1.0, "l": 0.0, "alpha": 0.1})
    assert c.kind == "finite" and c.count == 3

    eckart = lookup("eckart")
    assert bound_state_count(eckart, {"A": 1.5, "B": 2.5, "alpha": -2.0}).kind == "infinite"
    c = bound_state_count(eckart, {"A": 1.5, "B": 2.5, "alpha": -1.0})
    assert c.kind == "finite" and c.count == 1

    hyp = lookup("hyperbolic_poschl_teller")
    assert bound_state_count(hyp, {"A": 1.0, "alpha": 0.5}).kind == "zero"

    box = lookup("box")
    assert bound_state_count(box, {"alpha": 0.5}).kind == "infinite"

    morse = lookup("morse")
    from pdem_si.catalog import _morse_alpha_max

    assert abs(_morse_alpha_max(1.0, 1.0, 0) - 8.0 / 3.0) < 1e-15
    for alpha in (0.5, 2.0):
        c = bound_state_count(morse, {"A": 1.0, "B": 1.0, "alpha": alpha})
        assert c.kind == "finite" and c.count == 1
    # above alpha_max(0) the single level disappears
    c = bound_state_count(morse, {"A": 1.0, "B": 1.0, "alpha": 2.7})
    assert c.kind == "zero"


def test_counting_levels_and_str():
    finite, infinite, zero = CountingResult.finite(3), CountingResult.infinite(), CountingResult.zero()
    assert [finite.levels(cap) for cap in (1, 3, 16)] == [1, 3, 3]
    assert [infinite.levels(cap) for cap in (1, 3, 16)] == [1, 3, 16]
    assert [zero.levels(cap) for cap in (1, 3, 16)] == [0, 0, 0]
    assert [str(c) for c in (finite, infinite, zero)] == ["finite(3)", "infinite", "zero"]


def test_ground_state_closed_values():
    box = lookup("box")
    assert ground_state_closed(box, {"alpha": 0.5}, 0.0) == 1.0

    osc = lookup("oscillator_3d")
    p = dict(osc.default_params)
    small = ground_state_closed(osc, p, 1e-4)
    assert 0 < small < 1e-7  # vanishes as x^{l+1}

    trig = lookup("trig_poschl_teller")
    xs = np.linspace(-1.2, 1.2, 41)
    vals = trig.ground_state_closed({"A": 2.0, "alpha": 0.0}, xs)
    ratio = vals / np.cos(xs) ** 2
    assert np.max(np.abs(ratio - ratio[0])) < 1e-12

    with pytest.raises(DomainError):
        ground_state_closed(box, {"alpha": 0.5}, 2.0)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("preset", ["bdd", "bastard", "zk", "lk"])
def test_printed_ordering_term(name, preset):
    entry = catalog.ENTRIES[name]
    got = verif.vtilde_agreement(LevelTable(entry, dict(entry.default_params)), AmbiguityParams.preset(preset))
    if got is None:
        assert name == "hyperbolic_poschl_teller"  # nothing printed for it
    else:
        assert got < 1e-10, (name, preset, got)


CONTINUITY_ZERO = {
    "box": lambda p, n: (n + 1) ** 2,
    "trig_poschl_teller": lambda p, n: (p["A"] + n) ** 2,
    "hyperbolic_poschl_teller": lambda p, n: -((p["A"] - n) ** 2),
    "shifted_oscillator": lambda p, n: (n + 0.5) * p["omega"] + p["b"] ** 2 - p["b"] ** 2,
    "oscillator_3d": lambda p, n: p["omega"] * (2 * n + p["l"] + 1.5),
    "coulomb": lambda p, n: -((p["e2"] / (2 * (n + p["l"] + 1))) ** 2),
    "morse": lambda p, n: -((p["A"] - n) ** 2),
    "eckart": lambda p, n: -((p["A"] + n) ** 2) - (p["B"] / (p["A"] + n)) ** 2,
    "rosen_morse_i": lambda p, n: (p["A"] + n) ** 2 - (p["B"] / (p["A"] + n)) ** 2,
}


@pytest.mark.parametrize("name", sorted(CONTINUITY_ZERO))
def test_deformation_parameter_continuity(name):
    entry = catalog.ENTRIES[name]
    p = dict(entry.default_params)
    for k in entry.deformation_names:
        p[k] = 0.0
    p[entry.deformation_names[0]] = -1e-3 if name == "eckart" else 1e-3
    # the 3D oscillator's exact slope dE_3/dalpha = 2(n+l+1)(2n+1)+1/2 ~ 70
    # already exceeds the generic 0.05 allowance at alpha = 1e-3
    tol = 0.1 if name == "oscillator_3d" else 0.05
    for n in range(4):
        formula = entry.printed_energy(p, n)
        assert abs(formula - CONTINUITY_ZERO[name](p, n)) < tol, (name, n)


def test_trig_pt_energy_alternate_form():
    # (lam+n)^2 - alpha(lam-n^2) equals [ (Delta+1)/2 + n ]^2 + alpha n(n+1) - alpha^2/4
    entry = lookup("trig_poschl_teller")
    for A, alpha in ((2.0, 0.3), (2.0, -0.3), (3.5, 0.7)):
        delta = math.sqrt((1 + alpha) ** 2 + 4 * A * (A - 1))
        for n in range(6):
            alt = (0.5 * (delta + 1) + n) ** 2 + alpha * n * (n + 1) - 0.25 * alpha**2
            got = entry.printed_energy({"A": A, "alpha": alpha}, n)
            assert abs(got - alt) < 1e-12 * max(1.0, abs(alt))


def test_hyperbolic_pt_energy_alternate_form():
    entry = lookup("hyperbolic_poschl_teller")
    for A, alpha in ((1.0, 0.5), (2.2, 0.15)):
        delta = math.sqrt((1 - alpha) ** 2 + 4 * A * (A + 1))
        for n in range(6):
            alt = -((0.5 * (delta - 1) - n) ** 2) + alpha * n * (n + 1) + 0.25 * alpha**2
            got = entry.printed_energy({"A": A, "alpha": alpha}, n)
            assert abs(got - alt) < 1e-12 * max(1.0, abs(alt))


# the points of the ROADMAP's known false FAILs, each a FAIL of the probe that
# the endpoint exponents replaced or of the oracle
_FALSE_FAIL_POINTS = [
    ("oscillator_3d", {"omega": 1.0, "l": 1.0, "alpha": 1.0}),
    ("coulomb", {"e2": 0.95, "l": 0.0, "alpha": 0.1}),
    ("eckart", {"A": 2.1222, "B": 6.2799, "alpha": -0.9425}),
    ("coulomb", {"e2": 1e6, "l": 0.0, "alpha": 0.1}),
    ("morse", {"A": 1.6712, "B": 1.0, "alpha": 0.5}),
    ("morse", {"A": 2.5, "B": 1.0, "alpha": 1.0447907068586062}),
    ("morse", {"A": 1.0, "B": 1.0, "alpha": 2.6639999999999997}),
]


def _agrees_with_counting(table, n, verdict):
    # level n exists (admissible, and above the level before it, as in the
    # counting check) exactly when the counting rule counts it
    counting = table.entry.counting(table.params)
    counted = counting.kind == "infinite" or (counting.kind == "finite" and n < counting.count)
    chain = table.chain_to(n)
    new = n == 0 or chain.energy(n) > chain.energy(n - 1) + 1e-12 * max(1.0, abs(chain.energy(n - 1)))
    return (verdict.admissible and new) == counted


def test_counting_agrees_with_admissibility():
    # the counting rule is the reference of every admissibility verdict: at the
    # reference cases of test_wavefunctions.py, both sides of every counting
    # boundary at 1e-9 and 1e-3 from the defaults, the noise level's point, the
    # deep plateau and the known false-FAIL points, the counting check passes,
    # and every level that spectrum --n-levels auto reads (and a finite count's
    # first missing level) is admissible and new exactly when the rule counts
    # it: 16 levels of an infinite count, where the check reads 4
    points = list(_reference_cases())
    for name in ALL:
        entry = catalog.ENTRIES[name]
        for rel in (1e-9, 1e-3):
            points += [(entry, p) for p in _counting_boundaries(entry, dict(entry.default_params), rel=rel)]
    points += [(catalog.ENTRIES[name], p) for name, p in [_NOISE_LEVEL[:2], _DEEP_PLATEAU, *_FALSE_FAIL_POINTS]]
    failed, differ, levels = [], [], 0
    for entry, params in points:
        table = LevelTable(entry, params)
        if not verif.counting_vs_admissibility(table)["ok"]:
            failed.append((entry.name, params))
        for n, verdict in enumerate(admissibility_checks(table, range(_probed_levels(entry, params)))):
            levels += 1
            if not _agrees_with_counting(table, n, verdict):
                differ.append((entry.name, params, n, verdict.evidence))
    print(f"\n{len(points)} points, {levels} levels: each agrees with the counting rule")
    assert not failed and not differ, (failed, differ)


@pytest.mark.parametrize(
    "name,ends",
    [
        ("box", (-math.inf, math.inf)),
        ("trig_poschl_teller", (-math.inf, math.inf)),
        ("hyperbolic_poschl_teller", (-1.0, 1.0)),
        ("shifted_oscillator", (-math.inf, math.inf)),
        ("oscillator_3d", (math.inf, 0.0)),
        ("coulomb", (math.inf, 0.0)),
        ("morse", (math.inf, 0.0)),
        ("eckart", (math.inf, 1.0)),
        ("scarf_i", (-1.0, 1.0)),
        ("rosen_morse_i", (math.inf, -math.inf)),
    ],
)
def test_admissibility_reads_the_domain_ends(name, ends):
    # y* = lim phi(x) at the left and right end of the domain, as the verdicts read it
    entry = catalog.ENTRIES[name]
    evidence = admissibility_checks(LevelTable(entry, dict(entry.default_params)), [0])[0].evidence
    assert (evidence["left"]["y_star"], evidence["right"]["y_star"]) == ends


def test_oracle_recipes_sane():
    for name in ALL:
        entry = catalog.ENTRIES[name]
        p = dict(entry.default_params)
        rec = entry.oracle_recipe(p)
        assert rec.x1 < rec.x2 and rec.n_points >= 1001
        eq = entry.equivalence_interval
        assert eq.bounded and entry.domain.x1 <= eq.x1 < eq.x2 <= entry.domain.x2
        if entry.domain.bounded:
            assert rec == catalog.OracleRecipe(entry.domain.x1, entry.domain.x2, 4001) and eq == entry.domain


@pytest.mark.parametrize(
    "name,x_ref,param_names",
    [
        ("box", 0.0, ("alpha",)),
        ("trig_poschl_teller", 0.0, ("A", "alpha")),
        ("hyperbolic_poschl_teller", 0.0, ("A", "alpha")),
        ("shifted_oscillator", 0.0, ("omega", "b", "alpha", "beta")),
        ("oscillator_3d", 1.0, ("omega", "l", "alpha")),
        ("coulomb", 1.0, ("e2", "l", "alpha")),
        ("morse", 0.0, ("A", "B", "alpha")),
        ("eckart", 1.0, ("A", "B", "alpha")),
        ("scarf_i", 0.0, ("A", "B", "alpha")),
        ("rosen_morse_i", math.pi / 2.0, ("A", "B", "alpha", "beta")),
    ],
)
def test_derived_x_ref_and_param_names(name, x_ref, param_names):
    entry = catalog.ENTRIES[name]
    assert entry.x_ref == x_ref and entry.param_names == param_names
