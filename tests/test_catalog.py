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
from pdem_si.wavefunctions import LevelTable

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


@pytest.mark.parametrize(
    "name,params",
    [
        ("box", {"alpha": 3.0}),
        ("box", {"alpha": -1.0}),
        ("box", {"alpha": 0.0}),
        ("trig_poschl_teller", {"A": 0.5, "alpha": 0.3}),
        ("hyperbolic_poschl_teller", {"A": 1.0, "alpha": 1.5}),
        ("shifted_oscillator", {"omega": 1.0, "b": 0.0, "alpha": 0.01, "beta": 0.2}),
        ("oscillator_3d", {"omega": 1.0, "l": 1.0, "alpha": -0.1}),
        ("coulomb", {"e2": 1.0, "l": 0.0, "alpha": 0.0}),
        ("morse", {"A": 1.0, "B": 1.0, "alpha": -0.5}),
        ("eckart", {"A": 1.5, "B": 2.5, "alpha": -2.5}),
        ("eckart", {"A": 1.5, "B": 2.0, "alpha": -1.0}),
        ("scarf_i", {"A": 3.0, "B": 0.5, "alpha": 1.5}),
        ("scarf_i", {"A": 3.0, "B": 2.5, "alpha": 0.5}),
        ("rosen_morse_i", {"A": 1.5, "B": 0.5, "alpha": 2.5, "beta": 0.3}),
    ],
)
def test_range_enforcement(name, params):
    entry = lookup(name)
    with pytest.raises(RangeError):
        entry.validate(params)


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
    got = verif.vtilde_agreement(entry, dict(entry.default_params), AmbiguityParams.preset(preset))
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


def test_finite_counting_agrees_with_numeric_probe():
    # the first numerically inadmissible index is exactly n_max + 1
    for name in ALL:
        entry = catalog.ENTRIES[name]
        p = dict(entry.default_params)
        if entry.counting(p).kind != "finite":
            continue
        res = verif.counting_vs_admissibility(LevelTable(entry, p))
        assert res["ok"], (name, res)


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
