import json

import numpy as np
import pytest

from pdem_si.cli import SpectrumReport, build_spectrum_report, main
from pdem_si.catalog import ENTRIES, lookup
from pdem_si.core import Grid, Interval, RangeError
from pdem_si.oracle import quadrature
from pdem_si.verification import oracle_vs_chain, verify_entry


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_verify_hyperbolic_pt(capsys):
    code, out, _ = run(
        capsys, "verify", "--potential", "hyperbolic_poschl_teller", "--params", "A=1,alpha=0.5"
    )
    assert code == 0
    assert "counting = zero" in out
    assert "n=0:inadm[herm]" in out  # hermiticity is the failing condition
    assert "all checks passed" in out


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


@pytest.mark.parametrize("value", ["abc", "2", "-5", "1e3"])
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


def test_verify_entry_validates_on_call():
    with pytest.raises(RangeError):
        verify_entry(lookup("box"), {"alpha": 3.0})
