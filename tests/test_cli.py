import json

import pytest

from equifuse.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_contains_worked_products(capsys):
    code, out, _ = run_cli(capsys, "table", "--m", "2")
    assert code == 0
    lines = out.splitlines()
    assert "X2 x X3 = X1 + 2 X3" in lines
    assert "X2 x X+ = X2 + X-" in lines
    assert "X1 x X3 = X2 + X+ + X-" in lines


def test_table_d_ring(capsys):
    code, out, _ = run_cli(capsys, "table", "--m", "2", "--ring", "d")
    assert code == 0
    assert "V2 x V3 = V1 + V3 + V5" in out.splitlines()


def test_table_json_schema(capsys):
    code, out, _ = run_cli(capsys, "table", "--m", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["kappa", "m", "results", "tolerance"]
    assert payload["m"] == 2 and payload["kappa"] == 10
    assert {"x": "X2", "y": "X3", "z": "X3", "mult": 2} in payload["results"]


def test_table_rejects_odd_m(capsys):
    code, _, err = run_cli(capsys, "table", "--m", "3")
    assert code == 2
    assert "even" in err


def test_smatrix_c_ee_values(capsys):
    code, out, _ = run_cli(capsys, "smatrix", "--m", "2", "--which", "c-ee", "--json")
    assert code == 0
    entries = {(r["row"], r["col"]): r["value"] for r in json.loads(out)["results"]}
    assert entries[("l:+", "l:+")] == pytest.approx([-0.276393, 0.0], abs=1e-6)
    assert entries[("l:+", "l:-")] == pytest.approx([0.723607, 0.0], abs=1e-6)
    assert entries[("l:0", "l:0")] == pytest.approx([0.276393, 0.0], abs=1e-6)


def test_smatrix_d_values(capsys):
    code, out, _ = run_cli(capsys, "smatrix", "--m", "2", "--which", "d", "--json")
    assert code == 0
    entries = {(r["row"], r["col"]): r["value"] for r in json.loads(out)["results"]}
    assert entries[("V0", "V0")] == pytest.approx([0.138197, 0.0], abs=1e-6)


def test_smatrix_c_ea_values(capsys):
    code, out, _ = run_cli(capsys, "smatrix", "--m", "2", "--which", "c-ea", "--json")
    assert code == 0
    entries = {(r["row"], r["col"]): r["value"] for r in json.loads(out)["results"]}
    # twice the sl2 entries; (l:3, al:2) doubles a negative sine
    assert entries[("l:3", "al:2")] == pytest.approx([-0.525731, 0.0], abs=1e-6)
    assert entries[("l:3", "al:0")] == pytest.approx([0.850651, 0.0], abs=1e-6)


def test_smatrix_bad_block(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["smatrix", "--m", "2", "--which", "c-aa"])
    assert excinfo.value.code == 2


def test_coeff_formulas_agree(capsys):
    for formula in ("oracle", "ext-e"):
        code, out, _ = run_cli(
            capsys, "coeff", "--m", "2", "--i", "2", "--j", "3", "--k", "3",
            "--formula", formula, "--json",
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["nearest"] == 2
        assert abs(result["value"] - 2) < 1e-9


def test_coeff_verlinde(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--m", "2", "--i", "2", "--j", "3", "--k", "5",
        "--formula", "verlinde", "--json",
    )
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["nearest"] == 1


def test_coeff_split_pair_labels(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--m", "2", "--i", "1", "--j", "3", "--k", "+",
        "--formula", "ext-a", "--json",
    )
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["nearest"] == 1


def test_coeff_bad_label(capsys):
    code, _, err = run_cli(capsys, "coeff", "--m", "2", "--i", "9", "--j", "0", "--k", "0")
    assert code == 2
    assert "label" in err


@pytest.mark.parametrize("token", ["99", "-1", "x"])
def test_coeff_verlinde_bad_index(capsys, token):
    code, out, err = run_cli(capsys, "coeff", "--m", "2", "--formula", "verlinde",
                             "--i", token, "--j", "0", "--k", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "2")
    assert code == 0
    assert "0 failed" in out
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--tol", "1e-300")
    assert code == 1


def test_verify_rejects_bad_tolerance(capsys):
    code, _, err = run_cli(capsys, "verify", "--m", "2", "--tol", "-1")
    assert code == 2
    assert "tolerance" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
@pytest.mark.parametrize(
    "command",
    [
        ("verify",),
        ("table",),
        ("smatrix", "--which", "d"),
        ("coeff", "--i", "0", "--j", "0", "--k", "0"),
    ],
    ids=["verify", "table", "smatrix", "coeff"],
)
def test_rejects_non_finite_tolerance(capsys, command, tol):
    # an infinite tolerance would pass every check, a NaN one fail every check;
    # the "=" form keeps argparse from reading "-inf" as an option
    code, out, err = run_cli(capsys, *command, "--m", "2", f"--tol={tol}", "--json")
    assert code == 2
    assert out == ""
    assert "finite positive" in err


def test_verify_json_has_no_negative_zero(capsys):
    _, out, _ = run_cli(capsys, "verify", "--m", "2", "--json")
    assert "-0.0" not in out


def test_verify_json_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--m", "4", "--json")
    _, out2, _ = run_cli(capsys, "verify", "--m", "4", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert sorted(payload) == ["kappa", "m", "results", "tolerance"]
    assert all(r["passed"] for r in payload["results"])
    names = [(r["name"], r["params"]) for r in payload["results"]]
    assert names == sorted(names)


def test_verify_text_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "2")
    assert code == 0
    pass_lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
    assert len(pass_lines) == 27
    assert any("c-folded-sum" in ln for ln in pass_lines)
