"""Off-default parameter regimes that once fooled the numeric probes, and
inputs that once failed to finish or to exit cleanly."""
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import pdem_si
from pdem_si import catalog, verification as verif
from pdem_si.si_engine import solve_chain
from pdem_si.wavefunctions import LevelTable, admissibility_checks


def test_coulomb_degenerate_chain_repeat():
    # for l=1, alpha=0.1 the chain's third state lands exactly on E_1: it is
    # normalizable but not a new level, and the counting rule must still agree
    entry = catalog.ENTRIES["coulomb"]
    p = {"e2": 1.0, "l": 1.0, "alpha": 0.1}
    counting = entry.counting(p)
    assert counting.kind == "finite" and counting.count == 2
    chain = solve_chain(entry.chain_problem(p), 2)
    assert abs(chain.energy(2) - chain.energy(1)) < 1e-15
    assert admissibility_checks(LevelTable(entry, p), [2])[0].admissible  # genuinely normalizable
    res = verif.counting_vs_admissibility(LevelTable(entry, p))
    assert res["ok"]


def test_eckart_slow_decay_certificate():
    # a slow exponential tail is integrable whatever its last power-law slope:
    # at (2, 5, 0.8) level 0's exponent is already -1.65 at x = 16
    entry = catalog.ENTRIES["eckart"]
    p = {"A": 2.0, "B": 5.0, "alpha": 0.8}
    v0, v1 = admissibility_checks(LevelTable(entry, p), [0, 1])
    assert v0.square_integrable and v0.admissible
    right = v0.evidence["square"]["right"]
    assert right["tail_exponents"][-1] < -1.0 or right["exp_decay_certificate"]
    assert not v1.square_integrable
    assert verif.counting_vs_admissibility(LevelTable(entry, p))["ok"]
    # at (2, 8, -0.3) level 1's exponent is still -0.45 at x = 16: only the
    # endpoint log-slope certificate can carry it
    p = {"A": 2.0, "B": 8.0, "alpha": -0.3}
    v1 = admissibility_checks(LevelTable(entry, p), [1])[0]
    right = v1.evidence["square"]["right"]
    assert -1.0 < right["tail_exponents"][-1] < 0.0 and right["exp_decay_certificate"]
    assert v1.square_integrable and v1.admissible
    assert verif.counting_vs_admissibility(LevelTable(entry, p))["ok"]


@pytest.mark.parametrize("params", ["e2=0.669,l=1,alpha=0.3102", "e2=0.9218,l=0,alpha=0.1002"])
def test_coulomb_slow_power_tail_counts(params, capsys):
    # |psi|^2 ~ x^-1.08 and x^-1.07 far out: integrable, though no finite panel
    # sum converges visibly; the tail exponent must agree with the counting rule
    from pdem_si.cli import main

    assert main(["verify", "--potential", "coulomb", "--params", params]) == 0
    assert "\n  [ok] counting vs numeric admissibility: " in capsys.readouterr().out


@pytest.mark.parametrize("potential,params", [
    # the last bound level's |psi|^2 f ~ x^(p+1) with p just below -1: it
    # vanishes, though slowly, and the Hermiticity test must pass it
    ("coulomb", "e2=0.9009,l=0,alpha=0.1"),
    # |psi|^2 f plateaus near e^-37 at both ends: far below its peak, yet no
    # level meets the Hermiticity condition, as the zero count says
    ("hyperbolic_poschl_teller", "A=12.950214257840315,alpha=0.06973132594846719"),
])
def test_hermiticity_tail_agrees_with_counting(potential, params, capsys):
    from pdem_si.cli import main

    assert main(["verify", "--potential", potential, "--params", params]) == 0
    assert "\n  [ok] counting vs numeric admissibility: " in capsys.readouterr().out


def test_morse_oracle_skips_unresolvable_shallow_level():
    # A=2.5, B=7, alpha=1 binds a third state with decay rate ~0.02, far beyond
    # the truncation; the oracle must compare only the two levels it resolves
    entry = catalog.ENTRIES["morse"]
    p = {"A": 2.5, "B": 7.0, "alpha": 1.0}
    assert entry.counting(p).count == 3
    res = verif.oracle_vs_chain(entry, p)
    assert res["levels"] == 2
    assert res["ok"] and res["max_rel_err"] < 1e-4


def test_morse_adaptive_left_wall():
    # large alpha pushes f = 1 + alpha e^{-x} into overflow territory fast; the
    # recipe must pull the wall in so matrix entries stay well-conditioned
    entry = catalog.ENTRIES["morse"]
    deep = entry.oracle_recipe(dict(entry.default_params))
    shallow = entry.oracle_recipe({"A": 2.5, "B": 7.0, "alpha": 1.0})
    assert deep.x1 < -8.0
    assert shallow.x1 >= -5.0


def test_coulomb_default_still_compares_two_levels():
    entry = catalog.ENTRIES["coulomb"]
    res = verif.oracle_vs_chain(entry, dict(entry.default_params))
    assert res["levels"] == 2 and res["ok"]


def _coulomb_count_loop(e2, l, a):
    # the counting loop the closed form replaced, kept as the reference
    if a >= e2 / (l + 1.0):
        return 0
    k = 0
    while k**2 + (l + 1.0) * (2 * k + 1) < e2 / a:
        k += 1
    return k


def _eckart_count_loop(A, B, a):
    bound = (2.0 * B + a * A * (A - 1.0)) / (2.0 + a)
    k = 0
    while (A + k) ** 2 < bound:
        k += 1
    return k


def test_coulomb_closed_form_count_matches_loop():
    entry = catalog.ENTRIES["coulomb"]
    # (e2, l, alpha) = (2, 0, 0.5) and (7, 1, 0.5) put k = 1 and k = 2 exactly on
    # the e2/alpha boundary, where the strict inequality excludes the level
    grid = itertools.product(
        (0.05, 0.5, 1.0, 2.0, 4.5, 7.0, 10.0, 123.0), (0.0, 0.5, 1.0, 2.0, 3.0), (0.01, 0.1, 0.25, 0.5, 1.0)
    )
    # the rounded root lands one below, then one above, the loop's count
    edges = [(171.00000000000003, 2.0, 0.3), (3.7633118454026553, 3.090445493432364, 0.1)]
    for e2, l, a in itertools.chain(grid, edges):
        p = {"e2": e2, "l": l, "alpha": a}
        assert entry.counting(p).count == _coulomb_count_loop(e2, l, a), p
    assert entry.counting({"e2": 1.0, "l": 1.0, "alpha": 0.1}).count == 2


def test_eckart_closed_form_count_matches_loop():
    entry = catalog.ENTRIES["eckart"]
    cases = [
        (A, A * A + dB, a)
        for A, dB, a in itertools.product((1.5, 2.0, 3.5), (0.1, 1.0, 6.0, 40.0), (-1.9, -1.0, -0.5, 0.5, 1.0, 3.0))
    ]
    cases.append((2.0, 12.5, 1.0))  # (A + 1)^2 equals the bound exactly
    # the rounded root lands one below, then one above, the loop's count
    cases += [(2.0, 266.25622610593086, -0.52782046737643), (5.617462882348851, 1784.5838914400915, 1.0)]
    for A, B, a in cases:
        p = {"A": A, "B": B, "alpha": a}
        assert entry.counting(p).count == _eckart_count_loop(A, B, a), p


def _morse_count_loop(A, B, a):
    # the counting loop the closed form replaced (less its 10,000-level stop),
    # kept as the reference
    k = 0
    while k < A and a < catalog._morse_alpha_max(A, B, k):
        k += 1
    return k


def test_morse_closed_form_count_matches_loop():
    entry = catalog.ENTRIES["morse"]
    values = (0.01, 0.3, 1.0, 2.5, 7.0, 40.0, 300.0)
    cases = list(itertools.product(values, values, (1e-3, 0.05, 0.5, 1.0, 3.0, 10.0)))
    # alpha exactly at, just below and just above a level's threshold
    for A, B, k in ((1.0, 1.0, 0), (2.5, 7.0, 2), (10.0, 1.0, 3)):
        am = catalog._morse_alpha_max(A, B, k)
        cases += [(A, B, am), (A, B, np.nextafter(am, 0.0)), (A, B, np.nextafter(am, np.inf))]
    cases.append((3e4, 40.0, 1e-3))  # 23,246 levels, past the old loop's stop at 10,001
    for A, B, a in cases:
        p = {"A": A, "B": B, "alpha": float(a)}
        assert entry.counting(p).count == _morse_count_loop(A, B, float(a)), p


def test_morse_count_past_old_loop_limit():
    # the loop stopped at 10,001 levels here; the count sits at the predicate's edge
    A, B, a = 1e6, 1.0, 1e-9
    count = catalog.ENTRIES["morse"].counting({"A": A, "B": B, "alpha": a}).count
    assert count == 999_501

    def pred(k):
        return k < A and a < catalog._morse_alpha_max(A, B, k)

    assert pred(count - 1) and not pred(count)


def _cli(*argv):
    src = str(pathlib.Path(pdem_si.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PDEM_GRID_N", None)
    return subprocess.run(
        [sys.executable, "-m", "pdem_si.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--potential", "morse", "--params", "A=inf"),
        ("spectrum", "--potential", "coulomb", "--params", "e2=inf,l=0,alpha=0.1"),
        ("spectrum", "--potential", "box", "--params", "alpha=nan"),
    ],
)
def test_nonfinite_parameters_exit_2(argv):
    res = _cli(*argv)
    assert res.returncode == 2, res.stderr
    assert "must be finite" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("potential,param", [("coulomb", "e2"), ("eckart", "B")])
def test_huge_finite_count_finishes(potential, param):
    # the counting loops needed ~1e10 iterations here
    res = _cli("sweep", "--potential", potential, "--param", param, "--from", "1e20", "--to", "1e20", "--steps", "2")
    assert res.returncode == 0, res.stderr
    row = res.stdout.splitlines()[1].split(",")
    assert row[1] == "finite" and int(row[2]) > 10**9


def test_verify_huge_finite_count_finishes():
    # the counting check walked all 3,162 levels here, each with a deeper chain
    res = _cli("verify", "--potential", "coulomb", "--params", "e2=1e6,l=0,alpha=0.1")
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    assert "  [note] counting boundary n=3162 not probed (only levels n < 16)\n" in res.stdout
    # every sampled ground-state value underflows: a FAIL, not a ValueError
    assert "  [FAIL] ground-state closed vs integral form: ratio spread = nan\n" in res.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--potential", "coulomb", "--params", "e2=1e300,l=0,alpha=0.1"),
        ("verify", "--potential", "coulomb", "--params", "e2=1e300,l=0,alpha=0.1"),
        ("sweep", "--potential", "coulomb", "--param", "e2", "--from", "1e300", "--to", "1e300", "--steps", "2"),
    ],
)
def test_overflow_exit_2(argv):
    res = _cli(*argv)
    assert res.returncode == 2, res.stderr
    assert "error: numeric overflow" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("spectrum", "--potential", "box", "--n-levels", "0"), "--n-levels"),
        (("spectrum", "--potential", "box", "--n-levels", "100000"), "--n-levels"),
        (("wavefunction", "--potential", "box", "--samples", "1"), "--samples"),
        (("wavefunction", "--potential", "box", "--samples", "100000000"), "--samples"),
        (("wavefunction", "--potential", "box", "--n", "-1"), "--n"),
        (("sweep", "--potential", "box", "--param", "alpha", "--from", "0.1", "--to", "0.5", "--steps", "1"), "--steps"),
        (("sweep", "--potential", "box", "--param", "alpha", "--from", "0.1", "--to", "0.5", "--steps", "100000000"), "--steps"),
        (("wavefunction", "--potential", "box", "--n", "20000"), "--n"),
        (("verify", "--potential", "box", "--tol", "nan"), "--tol"),
        (("verify", "--potential", "box", "--tol", "0"), "--tol"),
        (("verify", "--potential", "box", "--tol", "-1"), "--tol"),
        (("verify", "--potential", "box", "--tol", "inf"), "--tol"),
        (("sweep", "--potential", "box", "--param", "alpha", "--from", "nan", "--to", "0.5", "--steps", "3"), "--from"),
        (("sweep", "--potential", "box", "--param", "alpha", "--from", "0.1", "--to", "inf", "--steps", "3"), "--to"),
    ],
)
def test_flag_limits_exit_2(argv, flag, tmp_path):
    out = tmp_path / "wf.csv"
    if argv[0] == "wavefunction":
        argv += ("--out", str(out))
    res = _cli(*argv)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"error: {flag} must be") and "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["spectrum", "wavefunction"])
def test_unnormalizable_state_exits_2(cmd, tmp_path):
    # log|psi_0| spans 4.4e5 on the oracle grid: no double holds the state
    out = tmp_path / "wf.csv"
    argv = (cmd, "--potential", "coulomb", "--params", "e2=1e6,l=0,alpha=0.1")
    res = _cli(*argv, *(("--out", str(out)) if cmd == "wavefunction" else ()))
    assert res.returncode == 2, res.stderr
    assert res.stderr == "error: peak |psi| = inf cannot be normalized\n"
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing_dir/wf.csv", "."])
def test_unwritable_out_exits_2(target, tmp_path):
    # a missing directory, and a directory where the file should go
    out = tmp_path / target
    res = _cli("wavefunction", "--potential", "box", "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"error: --out {str(out)!r} cannot be written: ") and "Traceback" not in res.stderr
    assert not res.stdout


def test_flag_limits_accept_edges(tmp_path, capsys):
    from pdem_si.cli import main

    assert main(["spectrum", "--potential", "coulomb", "--n-levels", "64"]) == 0
    assert main(["wavefunction", "--potential", "box", "--samples", "3", "--out", str(tmp_path / "wf.csv")]) == 0
    assert main(["wavefunction", "--potential", "box", "--n", "63", "--out", str(tmp_path / "wf.csv")]) == 0
    assert main(["sweep", "--potential", "box", "--param", "alpha", "--from", "0.1", "--to", "0.5", "--steps", "2"]) == 0
    capsys.readouterr()
