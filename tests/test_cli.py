import json
import math

import pytest

from equifuse import cli
from equifuse.cli import _json_column, main
from equifuse.extended import ExtData


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


EVERY_COMMAND = [
    ("verify",),
    ("table",),
    ("table", "--ring", "d"),
    *(("smatrix", "--which", which) for which in ("d", "c-ee", "c-ea")),
    *(("coeff", "--formula", formula, "--i", "0", "--j", "1", "--k", "1")
      for formula in ("oracle", "verlinde", "ext-e", "ext-a")),
]


@pytest.mark.parametrize("m", ["3", "0"])
@pytest.mark.parametrize("command", EVERY_COMMAND, ids=" ".join)
def test_rejects_odd_m(capsys, command, m):
    # every command, whichever layer it builds, rejects m with the ring's message
    for json_flag in ((), ("--json",)):
        code, out, err = run_cli(capsys, *command, "--m", m, *json_flag)
        assert code == 2
        assert out == ""
        assert err == f"error: only even m >= 2 is supported, got {m}\n"


def _refuse(*_args, **_kwargs):
    raise AssertionError("this command must not build this layer")


@pytest.mark.parametrize(
    "argv, unused",
    [
        (("smatrix", "--which", "d"), ("TypeDRing", "ExtData")),
        (("coeff", "--formula", "verlinde", "--i", "2", "--j", "3", "--k", "5"),
         ("TypeDRing", "ExtData")),
        (("coeff", "--formula", "oracle", "--i", "2", "--j", "3", "--k", "3"),
         ("Sl2Data", "ExtData")),
    ],
    ids=["smatrix-d", "coeff-verlinde", "coeff-oracle"],
)
def test_command_builds_only_the_layer_it_reads(capsys, monkeypatch, argv, unused):
    expected = run_cli(capsys, *argv, "--m", "4", "--json")
    assert expected[0] == 0
    for name in unused:
        monkeypatch.setattr(cli, name, _refuse)
    assert run_cli(capsys, *argv, "--m", "4", "--json") == expected


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


@pytest.mark.parametrize(
    "which, rows, cols",
    [
        ("c-ee", ["l:0", "l:2", "l:+", "l:-"], ["l:0", "l:2", "l:+", "l:-"]),
        ("c-ea", ["l:1", "l:3"], ["al:0", "al:2"]),
    ],
)
def test_smatrix_labels(capsys, which, rows, cols):
    code, out, _ = run_cli(capsys, "smatrix", "--m", "2", "--which", which, "--json")
    assert code == 0
    entries = json.loads(out)["results"]
    assert [(r["row"], r["col"]) for r in entries] == [(r, c) for r in rows for c in cols]


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
    # the "=" form keeps argparse from reading "-inf" as an option.  Only
    # verify takes --tol; the other commands reject the option itself.
    argv = [*command, "--m", "2", f"--tol={tol}", "--json"]
    if command[0] == "verify":
        code, out, err = run_cli(capsys, *argv)
        assert "finite positive" in err
    else:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code, (out, err) = excinfo.value.code, capsys.readouterr()
        assert "unrecognized arguments: --tol" in err
    assert code == 2
    assert out == ""


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


def test_verify_tol_2_fails_a_corrupted_table(capsys, monkeypatch):
    # a wrong multiplicity must FAIL the oracle check whatever the tolerance
    ext = ExtData.build(4)
    ext.ring.l[2, 4, 6] += 1
    monkeypatch.setattr(ExtData, "build", classmethod(lambda cls, m: ext))
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--tol", "2")
    assert code == 1
    assert any(line.startswith("FAIL  c-ee-verlinde ") for line in out.splitlines())
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--tol", "2", "--json")
    assert code == 1
    (record,) = [r for r in json.loads(out)["results"] if r["name"] == "c-ee-verlinde"]
    assert record["passed"] is False


@pytest.mark.parametrize(
    "values",
    [
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 1 / 3, 0.1 + 0.2],
        [complex(math.nan, 1.0), complex(-0.0, math.inf), 1j, 0.5 - 2e-300j],
        [0, -1, 2**70, 7],
        ["V0", 'a "quoted" \\ backslash', "\u0663", "\x00\n\t", "V0"],
    ],
    ids=["float", "complex", "int", "str"],
)
def test_json_column_of_one_type_equals_value_by_value(values):
    # a trailing bool sends the column down the value-by-value path
    assert _json_column(values, {}) == _json_column([*values, True], {})[:-1]
