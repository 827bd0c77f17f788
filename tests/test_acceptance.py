"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are fixed here; nothing is calibrated at runtime.
"""
import json

import numpy as np

from pdem_si import catalog, verification as verif
from pdem_si.catalog import bound_state_count, closed_energy, lookup, _morse_alpha_max
from pdem_si.cli import SpectrumReport, build_spectrum_report, main
from pdem_si.core import AmbiguityParams
from pdem_si.wavefunctions import LevelTable, admissibility_checks, polynomial_chain


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def test_criterion_01_box_spectrum():
    entry = lookup("box")
    for alpha in (-0.5, 0.5):
        spec = verif.deformed_spectrum(entry, {"alpha": alpha}, 6)
        for n in range(6):
            closed = (1.0 + alpha) * (n + 1) ** 2
            rel = abs(spec.eigenvalues[n] - closed) / closed
            assert rel < 1e-4, (alpha, n, rel)
    # alpha -> 0 reduction to (n+1)^2
    for n in range(6):
        val = closed_energy(entry, {"alpha": 1e-8}, n)
        assert abs(val - (n + 1) ** 2) < 1e-6
    _report(1, "box E_n = (1+alpha)(n+1)^2 vs oracle (rel < 1e-4), alpha->0 limit < 1e-6")


def test_criterion_02_trig_poschl_teller():
    entry = lookup("trig_poschl_teller")
    for alpha in (-0.3, 0.3):
        params = {"A": 2.0, "alpha": alpha}
        spec = verif.deformed_spectrum(entry, params, 5)
        for n in range(5):
            closed = closed_energy(entry, params, n)
            rel = abs(spec.eigenvalues[n] - closed) / abs(closed)
            assert rel < 1e-4, (alpha, n, rel)
    for n in range(5):
        val = entry.printed_energy({"A": 2.0, "alpha": 0.0}, n)
        assert val == (2.0 + n) ** 2
    _report(2, "trig PT printed E_n vs oracle (rel < 1e-4); alpha = 0 gives (A+n)^2 exactly")


def test_criterion_03_hyperbolic_pt_no_bound_states():
    entry = lookup("hyperbolic_poschl_teller")
    params = {"A": 1.0, "alpha": 0.5}
    assert bound_state_count(entry, params).kind == "zero"
    for n, verdict in enumerate(admissibility_checks(LevelTable(entry, params), range(4))):
        assert verdict.square_integrable, n
        assert not verdict.hermiticity_ok, n
        for side in verdict.evidence.values():
            # |psi|^2 f levels off to a constant at both ends: its exponent is exactly 0
            assert side["herm_exponent"] == 0.0, (n, side)
    _report(3, "hyperbolic PT: |psi|^2 f exponent 0 at both ends, hermiticity fails for n = 0..3, count zero")


def test_criterion_04_coulomb_counting_and_values():
    entry = lookup("coulomb")
    params = {"e2": 1.0, "l": 0.0, "alpha": 0.1}
    counting = bound_state_count(entry, params)
    assert counting.kind == "finite" and counting.count == 3
    verdicts = [v.admissible for v in admissibility_checks(LevelTable(entry, params), range(4))]
    assert verdicts == [True, True, True, False]
    assert closed_energy(entry, params, 0) == -0.2025
    assert abs(closed_energy(entry, params, 2) - (-2.7778e-4)) < 1e-8
    spec = verif.deformed_spectrum(entry, params, 2)
    for n in range(2):
        closed = closed_energy(entry, params, n)
        rel = abs(spec.eigenvalues[n] - closed) / abs(closed)
        assert rel < 5e-3, (n, rel)
    _report(4, "coulomb: exactly 3 admissible states, E_0 = -0.2025, oracle rel < 5e-3 for E_0, E_1")


def test_criterion_05_morse_counting():
    entry = lookup("morse")
    assert abs(_morse_alpha_max(1.0, 1.0, 0) - 8.0 / 3.0) < 1e-15
    for alpha in (0.5, 2.0):
        params = {"A": 1.0, "B": 1.0, "alpha": alpha}
        counting = bound_state_count(entry, params)
        assert counting.kind == "finite" and counting.count == 1
        assert [v.admissible for v in admissibility_checks(LevelTable(entry, params), [0, 1])] == [True, False]
        spec = verif.deformed_spectrum(entry, params, 1)
        closed = closed_energy(entry, params, 0)
        rel = abs(spec.eigenvalues[0] - closed) / abs(closed)
        assert rel < 1e-4, (alpha, rel)
    _report(5, "morse: alpha_max(0) = 8/3, counting matches numeric verdicts, E_0 vs oracle < 1e-4")


def test_criterion_06_eckart_regime_switch():
    entry = lookup("eckart")
    inf_params = {"A": 1.5, "B": 2.5, "alpha": -2.0}
    assert bound_state_count(entry, inf_params).kind == "infinite"
    spec = verif.deformed_spectrum(entry, inf_params, 4)
    for n in range(4):
        closed = closed_energy(entry, inf_params, n)
        rel = abs(spec.eigenvalues[n] - closed) / abs(closed)
        assert rel < 1e-3, (n, rel)
    fin_params = {"A": 1.5, "B": 2.5, "alpha": -1.0}
    counting = bound_state_count(entry, fin_params)
    assert counting.kind == "finite" and counting.count == 1
    assert not admissibility_checks(LevelTable(entry, fin_params), [1])[0].admissible
    _report(6, "eckart: alpha = -2 infinite (4 levels vs oracle < 1e-3); alpha = -1 finite(1), n = 1 inadmissible")


def test_criterion_07_chain_consistency():
    for name, entry in catalog.ENTRIES.items():
        params = dict(entry.default_params)
        table = LevelTable(entry, params)
        r1, r2, _ = verif.chain_residual_max(table)
        assert r1 < 1e-10 and r2 < 1e-10, (name, r1, r2)
        gap = verif.chain_vs_printed_energy(table)
        if entry.energy_discrepancy:
            assert name == "scarf_i"
            assert gap > 0.5  # disagreement must be visible, not hidden
            assert "sign" in entry.energy_discrepancy
        else:
            assert gap < 1e-10, (name, gap)
    _report(7, "chain residuals < 1e-10 for all entries; printed E_n match except flagged Scarf I")


def test_criterion_08_ordering_identity():
    # the pointwise identity on the trig_sin test family under all four presets
    # is tests/test_ordering.py::test_ordering_equivalence_identity
    for name, params in (("box", {"alpha": 0.5}), ("morse", {"A": 1.0, "B": 1.0, "alpha": 0.5})):
        entry = lookup(name)
        for preset in ("bdd", "zk"):
            res = verif.spectral_equivalence(verif.Request(entry, params), AmbiguityParams.preset(preset))
            assert res["max_rel_dev"] < 1e-6, (name, preset, res)
    _report(8, "ordered vs deformed spectra < 1e-6 (box, morse)")


def test_criterion_09_wavefunction_suite():
    for name, entry in catalog.ENTRIES.items():
        assert verif.a_minus_residual(LevelTable(entry, dict(entry.default_params))) < 1e-8, name
        assert verif.ground_ratio_spread(LevelTable(entry, dict(entry.default_params))) < 1e-8, name
    battery = [
        ("box", {"alpha": 0.5}),
        ("trig_poschl_teller", {"A": 2.0, "alpha": 0.3}),
        ("oscillator_3d", dict(catalog.ENTRIES["oscillator_3d"].default_params)),
        ("morse", {"A": 1.0, "B": 1.0, "alpha": 0.5}),
    ]
    for name, params in battery:
        entry = lookup(name)
        counting = entry.counting(params)
        levels = 3 if counting.kind == "infinite" else min(3, counting.count)
        for n in range(levels):
            er = verif.eigen_residual(verif.Request(entry, params), n)
            assert er < 1e-5, (name, n, er)
        gram_levels = min(4, 4 if counting.kind == "infinite" else counting.count)
        G = verif.gram_matrix(LevelTable(entry, params), gram_levels)
        assert np.max(np.abs(G - np.eye(gram_levels))) < 1e-6, name
    _report(9, "A^- psi_0 < 1e-8 and numeric/closed ratio < 1e-8 (all entries); eigen-residual < 1e-5 and Gram within 1e-6")


def test_criterion_10_class3_degree_cancellation():
    entry = lookup("scarf_i")
    params = dict(entry.default_params)
    for n in range(1, 7):
        poly = polynomial_chain(LevelTable(entry, params), n)
        assert poly.degree == n
        for resid, scale in poly.cancellations:
            assert resid < 1e-12 * scale, (n, resid, scale)
    _report(10, "Scarf I recursion: (n+1)-degree coefficient cancels below 1e-12 for n = 1..6")


def test_criterion_11_cli_contract(capsys):
    code = main(["spectrum", "--potential", "box", "--params", "alpha=0.5",
                 "--n-levels", "3", "--oracle", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert [row["e_closed"] for row in doc["levels"]] == [1.5, 6.0, 13.5]
    assert all(row["rel_err"] < 1e-4 for row in doc["levels"])

    code = main(["spectrum", "--potential", "coulomb", "--params", "e2=1,l=0,alpha=0.1",
                 "--n-levels", "auto"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["counting"] == "finite(3)"
    assert doc["levels"][0]["e_closed"] == -0.2025

    code = main(["verify", "--potential", "hyperbolic_poschl_teller", "--params", "A=1,alpha=0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "counting = zero" in out and "n=0:inadm[herm]" in out

    code = main(["spectrum", "--potential", "box", "--params", "alpha=3"])
    capsys.readouterr()
    assert code == 2

    entry = lookup("box")
    report = build_spectrum_report(entry, {"alpha": 0.5}, 3, with_oracle=True)
    assert SpectrumReport.from_dict(json.loads(report.to_json())) == report
    _report(11, "CLI example invocations return the specified exit codes and values; JSON round-trips")
