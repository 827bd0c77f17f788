import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdem_si
from pdem_si import verification as verif
from pdem_si.cli import SpectrumReport, build_spectrum_report, main
from pdem_si.catalog import ENTRIES, lookup
from pdem_si.core import Grid, Interval, RangeError
from pdem_si.oracle import quadrature
from pdem_si.verification import AUTO_LEVELS, deformed_spectrum, oracle_vs_chain, verify_entry
from pdem_si.wavefunctions import LevelTable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reader_that_closes_the_pipe_early_gets_a_quiet_exit():
    # as under `pdem-si verify --potential all | head -1`: exit 1, no traceback
    src = str(Path(pdem_si.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PDEM_GRID_N", None)
    argv = [sys.executable, "-m", "pdem_si.cli", "verify", "--potential", "all"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
        assert proc.stdout.readline().startswith("verifying ")
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1 and err == "", err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("box", "coulomb", "scarf_i", "rosen_morse_i"):
        assert name in out
    for name in ("scarf_ii", "rosen_morse_ii", "gen_poschl_teller"):
        assert name in out
    assert "positive definiteness" in out
    assert "bound state" in out


def test_spectrum_box_json_with_oracle(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--potential", "box", "--params", "alpha=0.5",
        "--n-levels", "3", "--oracle", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["e_closed"] for row in doc["levels"]] == [1.5, 6.0, 13.5]
    for row in doc["levels"]:
        assert row["rel_err"] is not None and row["rel_err"] < 1e-4
        assert row["admissible"] and row["hermiticity_ok"]
    assert doc["counting"] == "infinite"
    assert doc["grid_meta"]["n_points"] == 4001


def test_spectrum_coulomb_auto(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--potential", "coulomb", "--params", "e2=1,l=0,alpha=0.1",
        "--n-levels", "auto",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["counting"] == "finite(3)"
    assert len(doc["levels"]) == 3
    assert abs(doc["levels"][0]["e_closed"] - (-0.2025)) < 1e-15


def test_spectrum_oracle_fills_the_trusted_levels(capsys, monkeypatch):
    # near the binding threshold coulomb level 1 misses by 8e-3 on the recipe
    # grid; verify does not compare it, so spectrum --oracle must not report it
    monkeypatch.delenv("PDEM_GRID_N", raising=False)
    code, out, _ = run(
        capsys, "spectrum", "--potential", "coulomb", "--params", "e2=0.9218,l=0,alpha=0.1002", "--oracle"
    )
    assert code == 0
    assert [row["n"] for row in json.loads(out)["levels"] if row["e_oracle"] is not None] == [0]
    for entry in ENTRIES.values():
        params = dict(entry.default_params)
        report = build_spectrum_report(entry, params, "auto", with_oracle=True)
        ovc = oracle_vs_chain(entry, params)
        filled = [row.e_oracle for row in report.levels if row.e_oracle is not None]
        assert filled == (ovc["oracle"] if ovc else []), entry.name


def test_spectrum_out_of_range_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--potential", "box", "--params", "alpha=3")
    assert code == 2
    assert "alpha" in err


def test_unknown_potential_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--potential", "nonexistent")
    assert code == 2


def test_bad_param_syntax_exit_2(capsys):
    code, _, _ = run(capsys, "spectrum", "--potential", "box", "--params", "alpha=zebra")
    assert code == 2
    code, _, _ = run(capsys, "spectrum", "--potential", "box", "--params", "gamma=1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--potential", "box"],
        ["verify", "--potential", "box"],
        ["wavefunction", "--potential", "box", "--n", "0", "--out", "unwritten.csv"],
        ["sweep", "--potential", "box", "--param", "alpha", "--from", "0.1", "--to", "0.5", "--steps", "2"],
    ],
)
def test_repeated_param_exit_2(capsys, tmp_path, monkeypatch, argv):
    # a name given twice in --params is an error, not a silent last-one-wins,
    # wherever --params is read
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--params", "alpha=0.5, alpha=0.6")
    assert (code, out) == (2, "")
    assert "'alpha'" in err and "more than once" in err
    assert not (tmp_path / "unwritten.csv").exists()


def test_verify_hyperbolic_pt(capsys):
    code, out, _ = run(
        capsys, "verify", "--potential", "hyperbolic_poschl_teller", "--params", "A=1,alpha=0.5"
    )
    assert code == 0
    assert "counting = zero" in out
    assert "n=0:inadm[herm]" in out  # hermiticity is the failing condition
    assert "all checks passed" in out


def test_verify_counting_line_lists_auto_levels(capsys):
    # an infinite count: the counting check reads the levels spectrum --n-levels auto lists
    code, out, _ = run(capsys, "verify", "--potential", "box")
    assert code == 0
    line = next(row for row in out.splitlines() if "counting vs numeric admissibility" in row)
    want = ", ".join(f"n={n}:adm" for n in range(AUTO_LEVELS))
    assert AUTO_LEVELS == 16 and line.endswith(f"counting = infinite; verdicts {want}")


def test_unresolved_gram_exits_2(capsys, monkeypatch):
    # Coulomb e2=1e6 meets the Gram's error bound at step 1/128 only; capped at
    # 1/32, spectrum exits 2 with a message that names the Gram
    monkeypatch.setattr("pdem_si.verification._DE_STEPS", (32,))
    code, out, err = run(capsys, "spectrum", "--potential", "coulomb", "--params", "e2=1e6,l=0,alpha=0.1")
    assert (code, out) == (2, "")
    assert err.startswith("error: the Gram matrix of 4 states misses its error bound 1e-09 at step 1/32 (error bar ")


def test_verify_without_levels_below_the_edge(capsys):
    # at A = 0.05 no deformed level lies below the continuum edge
    code, out, _ = run(
        capsys, "verify", "--potential", "hyperbolic_poschl_teller", "--params", "A=0.05,alpha=0.5"
    )
    assert code == 0
    assert "  [note] no levels below the continuum edge for the spectral comparison\n" in out
    assert "  [note] oracle energy comparison skipped (no resolvable levels)\n" in out
    assert "  [ok] ordering-identity operator check" in out


def test_verify_scarf_reports_discrepancy(capsys):
    code, out, _ = run(capsys, "verify", "--potential", "scarf_i")
    assert code == 0
    assert "printed energy formula flagged" in out


def test_json_roundtrip():
    entry = lookup("box")
    report = build_spectrum_report(entry, {"alpha": 0.5}, 3, with_oracle=True)
    doc = json.loads(report.to_json())
    again = SpectrumReport.from_dict(doc)
    assert again == report


def test_csv_roundtrip_bit_identical():
    entry = lookup("trig_poschl_teller")
    report = build_spectrum_report(entry, {"A": 2.0, "alpha": 0.3}, 4, with_oracle=True)
    text = report.to_csv()
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    for row, line in zip(report.levels, lines[1:]):
        fields = dict(zip(header, line.split(",")))
        for col in ("e_closed", "e_chain", "e_oracle", "abs_err", "rel_err"):
            orig = getattr(row, col)
            if orig is None:
                assert fields[col] == ""
            else:
                assert float(fields[col]) == orig  # 17 significant digits round-trip


def test_spectrum_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--potential", "box", "--params", "alpha=0.5",
        "--n-levels", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,e_closed,e_chain")
    assert len(lines) == 3


def test_levels_clamped_to_counting(capsys):
    code, out, err = run(
        capsys,
        "spectrum", "--potential", "morse", "--params", "A=1,B=1,alpha=0.5",
        "--n-levels", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["levels"]) == 1
    assert "clamping" in err


def test_wavefunction_csv(tmp_path, capsys):
    out_path = tmp_path / "wf.csv"
    code, out, _ = run(
        capsys,
        "wavefunction", "--potential", "box", "--params", "alpha=0.5",
        "--n", "1", "--samples", "801", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "x,psi,f,v_eff"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    x, psi = data[:, 0], data[:, 1]
    # normalized: Simpson integral of psi^2 (including the implicit zero endpoints)
    h = x[1] - x[0]
    approx = np.trapezoid(psi**2, dx=h)
    assert abs(approx - 1.0) < 1e-3
    # f column matches the deforming function
    assert np.max(np.abs(data[:, 2] - (1 + 0.5 * np.sin(x) ** 2))) < 1e-12


def test_wavefunction_large_state_is_normalized(tmp_path, capsys):
    # max |psi| is ~1e270 here, so its square overflows unless rescaled first
    out_path = tmp_path / "wf.csv"
    params = {"A": 1.5, "B": 2.5, "alpha": -2.0}
    code, _, _ = run(
        capsys,
        "wavefunction", "--potential", "eckart", "--params", "A=1.5,B=2.5,alpha=-2",
        "--n", "63", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    psi = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.max(np.abs(psi)) > 0.0
    rec = lookup("eckart").oracle_recipe(params)
    grid = Grid(Interval(rec.x1, rec.x2), len(psi) + 2)
    assert abs(quadrature(np.concatenate([[0.0], psi, [0.0]]) ** 2, grid) - 1.0) < 1e-12


def test_wavefunction_rejects_missing_level(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "wavefunction", "--potential", "morse", "--params", "A=1,B=1,alpha=0.5",
        "--n", "3", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_wavefunction_without_bound_states_exit_2(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "wavefunction", "--potential", "hyperbolic_poschl_teller", "--out", str(out))
    assert code == 2
    assert "no level 0" in err and "counting = zero" in err
    assert not out.exists()


def test_sweep_box(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--potential", "box", "--param", "alpha",
        "--from", "-0.5", "--to", "0.5", "--steps", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("alpha,counting,count,e_0")
    assert len(lines) == 6
    mid = lines[3].split(",")  # alpha = 0 is out of the validity range
    assert mid[1] == "out_of_range"
    first = lines[1].split(",")
    assert first[1] == "infinite"
    assert abs(float(first[3]) - 0.5) < 1e-15  # (1 - 0.5) * 1


def test_sweep_eckart_counts_change(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--potential", "eckart", "--param", "alpha",
        "--from", "-2", "--to", "-0.5", "--steps", "4",
        "--params", "A=1.5,B=2.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    kinds = [line.split(",")[1] for line in lines[1:]]
    assert kinds[0] == "infinite"
    assert all(k == "finite" for k in kinds[1:])


def test_sweep_bad_param(capsys):
    code, _, _ = run(
        capsys,
        "sweep", "--potential", "box", "--param", "gamma",
        "--from", "0", "--to", "1", "--steps", "3",
    )
    assert code == 2


def test_grid_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PDEM_GRID_N", "1001")
    code, out, _ = run(
        capsys,
        "spectrum", "--potential", "box", "--params", "alpha=0.5",
        "--n-levels", "1", "--oracle",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["grid_meta"]["n_points"] == 1001
    assert doc["levels"][0]["rel_err"] < 2e-6  # coarser grid, but the level is easy


@pytest.mark.parametrize("name", ("box", "morse"))
def test_grid_env_oracle_is_one_grid(capsys, monkeypatch, name):
    # PDEM_GRID_N means one grid of that size, with no extrapolation
    monkeypatch.setenv("PDEM_GRID_N", "2001")
    code, out, _ = run(capsys, "spectrum", "--potential", name, "--oracle")
    assert code == 0
    doc = json.loads(out)
    filled = [row["e_oracle"] for row in doc["levels"] if row["e_oracle"] is not None]
    entry = ENTRIES[name]
    spec = deformed_spectrum(entry, dict(entry.default_params), len(filled), n_override=2001)
    assert filled and filled == spec.eigenvalues.tolist()
    assert doc["grid_meta"]["oracle_grids"] == [2001]


def test_spectrum_oracle_grids_default(capsys, monkeypatch):
    monkeypatch.delenv("PDEM_GRID_N", raising=False)
    code, out, _ = run(capsys, "spectrum", "--potential", "box", "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["grid_meta"]["oracle_grids"] == [251, 501, 1001]
    assert doc["grid_meta"]["n_points"] == 4001  # the recipe grid the triple divides
    assert SpectrumReport.from_dict(doc).to_dict() == doc


@pytest.mark.parametrize("grid_n", [3, 4, 5])
def test_grid_env_smallest_grids(capsys, monkeypatch, grid_n):
    # N points hold N - 2 interior levels; the rows beyond carry no oracle value
    monkeypatch.setenv("PDEM_GRID_N", str(grid_n))
    code, out, err = run(capsys, "spectrum", "--potential", "box", "--oracle", "--n-levels", "4")
    assert code == 0, err
    oracle = [row["e_oracle"] for row in json.loads(out)["levels"]]
    assert len(oracle) == 4 and oracle[grid_n - 2 :] == [None] * (6 - grid_n)
    assert all(isinstance(e, float) for e in oracle[: grid_n - 2])


@pytest.mark.parametrize("value", ["abc", "2", "-5", "1e3", "1000002"])
def test_grid_env_invalid_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("PDEM_GRID_N", value)
    code, _, err = run(capsys, "spectrum", "--potential", "box", "--n-levels", "1", "--oracle")
    assert code == 2
    assert "PDEM_GRID_N" in err


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--potential", "all")
    assert code == 0
    assert out.count("all checks passed") == 10
    assert out.count("skipping") == 3


def test_verify_all_rejects_params(capsys):
    code, out, err = run(capsys, "verify", "--potential", "all", "--params", "bogus=1")
    assert code == 2 and out == ""
    assert err.startswith("error: --params cannot be combined with --potential all")


def test_verify_fail_path(capsys):
    code, out, _ = run(capsys, "verify", "--potential", "box", "--tol", "1e-12")
    assert code == 1
    assert "\n  [FAIL] oracle vs chain energies: 4 level(s), max rel err = " in out
    assert out.endswith("\nbox: 1 check(s) FAILED: ['oracle vs chain energies']\n")


def test_verify_entry_records_are_the_report(capsys):
    entry = lookup("scarf_i")
    checks = list(verify_entry(entry, dict(entry.default_params), tol=1e-12))
    code, out, _ = run(capsys, "verify", "--potential", "scarf_i", "--tol", "1e-12")
    assert code == 1
    assert [str(c) for c in checks] == out.splitlines()[1:-1]
    notes = [c for c in checks if c.ok is None]
    assert len(notes) == 2 and all(str(c).startswith("  [note] ") for c in notes)
    assert [c.name for c in checks if c.ok is not None and not c.ok] == ["oracle vs chain energies"]


def test_check_records_hold_python_bools():
    # the oracle comparison at coulomb e2 = 0.95 FAILs on numpy floats; its
    # record must read ok is False, and every record must encode as JSON
    entry = lookup("coulomb")
    checks = list(verify_entry(entry, dict(entry.default_params, e2=0.95)))
    assert all(c.ok is None or type(c.ok) is bool for c in checks)
    assert [c.name for c in checks if c.ok is False] == ["oracle vs chain energies"]
    for c in checks:
        json.dumps(dataclasses.asdict(c))


def test_gram_near_a_zero_of_f_takes_the_predicted_step(capsys):
    # min f = 1 - beta^2/alpha = 0.0079: the Gram's error bar reads 0.98,
    # 0.14, 6.8e-4 and 7.3e-9 at steps 1/32 to 1/256, above 1e-9 at every
    # step, while the predictor bar(h)^2/bar(2h) reads 7.8e-14 at 1/256
    params = dict(omega=1.2037875251976424, b=-0.8434678080890761, alpha=0.13070324888753673, beta=0.3601011261829825)
    argv = ",".join(f"{k}={v!r}" for k, v in params.items())
    code, out, err = run(capsys, "spectrum", "--potential", "shifted_oscillator", "--params", argv)
    assert code == 0 and err == ""
    assert json.loads(out)["checks"]["orthonormality_max_offdiag"] <= 1e-12
    G = verif.gram_matrix(LevelTable(lookup("shifted_oscillator"), params), 4)
    assert np.max(np.abs(G - np.eye(4))) <= 1e-12


def test_verify_entry_validates_on_call():
    with pytest.raises(RangeError):
        verify_entry(lookup("box"), {"alpha": 3.0})
