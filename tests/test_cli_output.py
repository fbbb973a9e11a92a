"""`--json` rendering against the json.dumps reference, parser reuse and closed pipes.

`cli._emit_json` writes the envelope from per-key columns through one record
template.  These tests rebuild every payload from the library, render it the
way the command line did before that renderer (`_json_value` below, then
`json.dumps(indent=2, sort_keys=True)`), and require the same bytes.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equifuse.arith import EPS, integer_residual
from equifuse.cli import _build_parser, _emit_json, main
from equifuse.extended import ExtData, GradedLabel
from equifuse.formulas import ext_coeff_a, ext_coeff_e, verify_all
from equifuse.ring import TypeDRing
from equifuse.sl2 import Sl2Data

SRC = str(Path(__file__).resolve().parents[1] / "src")
MS = [2, 4, 6, 8]
COEFF_LABELS = {"oracle": ("1", "1", "2"), "verlinde": ("2", "3", "5"),
                "ext-e": ("2", "3", "3"), "ext-a": ("1", "3", "+")}


def _json_value(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, complex):
        return [_json_value(x.real), _json_value(x.imag)]
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    return x


def reference(m, kappa, tolerance, results) -> str:
    payload = {"m": m, "kappa": kappa, "tolerance": tolerance, "results": results}
    return json.dumps(_json_value(payload), indent=2, sort_keys=True) + "\n"


def assert_same_text(got: str, want: str) -> None:
    # names the first differing line; pytest's own diff of two outputs of
    # half a megabyte would take minutes
    if got != want:
        pairs = enumerate(zip(got.splitlines(), want.splitlines()), 1)
        first = next(((n, g, w) for n, (g, w) in pairs if g != w), None)
        pytest.fail(f"first differing line (number, got, want): {first}" if first
                    else f"one output extends the other: {len(got)} != {len(want)} characters")


def table_reference(m, ring_name):
    ring = TypeDRing(m)
    if ring_name == "d":
        d = Sl2Data(ring.kappa)
        labels, tensor = [f"V{i}" for i in range(d.delta + 1)], d.n
    else:
        labels, tensor = ring.labels, ring.l
    rows = [{"x": labels[x], "y": labels[y], "z": labels[z], "mult": int(tensor[x, y, z])}
            for x, y, z in zip(*np.nonzero(tensor))]
    return reference(m, ring.kappa, EPS, rows)


def smatrix_reference(m, which):
    ext = ExtData.build(m)
    if which == "d":
        rows = cols = [f"V{i}" for i in range(ext.d.delta + 1)]
        block = ext.d.s
    elif which == "c-ee":
        rows = cols = [GradedLabel(lab).token() for lab in ext.e_labels]
        block = ext.s_ee
    else:
        rows = [GradedLabel(ext.ring.labels[j]).token() for j in ext.odd_classes]
        cols = [GradedLabel(ext.ring.labels[p], True).token() for p in ext.fixed_classes]
        block = ext.s_ea
    results = [{"row": r, "col": c, "value": complex(block[a, b])}
               for a, r in enumerate(rows) for b, c in enumerate(cols)]
    return reference(m, ext.kappa, EPS, results)


def coeff_reference(m, formula, i, j, k):
    ext = ExtData.build(m)
    value = {
        "oracle": lambda: float(ext.ring.coeff(i, j, k)),
        "verlinde": lambda: ext.d.verlinde_coeff(int(i), int(j), int(k)),
        "ext-e": lambda: ext_coeff_e(ext, i, j, k),
        "ext-a": lambda: ext_coeff_a(ext, i, j, k),
    }[formula]()
    nearest, residual = integer_residual(value)
    result = {"formula": formula, "i": i, "j": j, "k": k,
              "value": value, "nearest": nearest, "residual": residual}
    return reference(m, ext.kappa, EPS, [result])


def verify_reference(m):
    report = verify_all(m)
    results = [{"name": c.name, "params": c.params, "max_residual": c.max_residual,
                "passed": c.passed} for c in report.checks]
    return reference(report.m, report.kappa, report.tolerance, results)


def cases():
    for m in MS:
        base = ["--m", str(m), "--json"]
        for ring_name in "cd":
            yield f"table-{ring_name}-m{m}", ["table", *base, "--ring", ring_name], \
                lambda m=m, r=ring_name: table_reference(m, r)
        for which in ("d", "c-ee", "c-ea"):
            yield f"smatrix-{which}-m{m}", ["smatrix", *base, "--which", which], \
                lambda m=m, w=which: smatrix_reference(m, w)
        for formula, (i, j, k) in COEFF_LABELS.items():
            argv = ["coeff", *base, "--formula", formula, "--i", i, "--j", j, "--k", k]
            yield f"coeff-{formula}-m{m}", argv, \
                lambda m=m, f=formula, t=(i, j, k): coeff_reference(m, f, *t)
        yield f"verify-m{m}", ["verify", *base], lambda m=m: verify_reference(m)


CASES = list(cases())


@pytest.mark.parametrize("argv, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_json_matches_json_dumps_reference(capsys, argv, expected):
    code = main(argv)
    assert_same_text(capsys.readouterr().out, expected())
    assert code == 0


EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 1 / 3, 0.1 + 0.2,
               2**70, 0, -1, 7, complex(math.nan, 1.0), complex(-0.0, math.inf), 1j,
               0.5 - 2e-300j, True, False, "V0", 'a "quoted" \\ backslash', "٣", "\x00\n\t",
               "V0"]


def test_emit_json_edge_values(capsys):
    _emit_json(2, 10, EPS, {"v": EDGE_VALUES, "a": list(range(len(EDGE_VALUES)))})
    results = [{"v": v, "a": a} for a, v in enumerate(EDGE_VALUES)]
    assert capsys.readouterr().out == reference(2, 10, EPS, results)


def test_emit_json_empty_results(capsys):
    _emit_json(4, 18, 0.5, {"name": [], "passed": []})
    out = capsys.readouterr().out
    assert out == reference(4, 18, 0.5, [])
    assert '"results": [],' in out


@pytest.mark.parametrize("value", [np.int64(1), np.float64(0.5), np.str_("X1")],
                         ids=["int64", "float64", "str_"])
def test_emit_json_rejects_numpy_integers(capsys, value):
    # only the exact types have a writer; json.dumps takes the float64 and str_
    # subclasses but rejects int64 too
    if isinstance(value, np.integer):
        with pytest.raises(TypeError):
            json.dumps(value)
    with pytest.raises(TypeError, match=f"Object of type {type(value).__name__} is not"):
        _emit_json(2, 10, EPS, {"mult": [value]})


def test_non_ascii_label_is_escaped(capsys):
    argv = ["coeff", "--m", "2", "--formula", "verlinde", "--i", "٣", "--j", "3", "--k", "5",
            "--json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert '"i": "\\u0663"' in out
    assert out == coeff_reference(2, "verlinde", "٣", "3", "5")


def run_fresh(argv) -> subprocess.Popen:
    """`python -m equifuse argv` with the default block-buffered standard output."""
    env = {key: v for key, v in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-W", "error", "-m", "equifuse", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def run_here(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


REUSE_SEQUENCE = [
    ["verify", "--m", "2", "--tol", "0.5"],
    ["verify", "--m", "2", "--json"],
    ["smatrix", "--m", "2", "--which", "c-aa"],
    ["smatrix", "--m", "2", "--which", "c-ee", "--json"],
    ["coeff", "--m", "2", "--i", "2", "--j", "3", "--k", "3", "--json"],
    ["table", "--m", "2", "--json"],
]


def test_reused_parser_prints_what_a_fresh_process_prints(capsys):
    fresh = [run_fresh(argv) for argv in REUSE_SEQUENCE]
    here = [run_here(capsys, argv) for argv in REUSE_SEQUENCE]
    assert _build_parser() is _build_parser()
    for argv, proc, (code, out, err) in zip(REUSE_SEQUENCE, fresh, here):
        fresh_out, fresh_err = proc.communicate(timeout=120)
        assert (code, out, err) == (proc.returncode, fresh_out, fresh_err), argv
    assert '"tolerance": 1e-09' in here[1][1]  # --tol 0.5 of the call before does not stick
    assert [code for code, _, _ in here] == [0, 0, 2, 0, 0, 0]


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # about 540 kB overflow the pipe buffer: EPIPE inside the print
        (["table", "--m", "8", "--ring", "d", "--json"], 1),
        # a few kB fit the stdout buffer: EPIPE on the flush after the command
        (["smatrix", "--m", "2", "--which", "c-ee", "--json"], 0),
    ],
    ids=["while-printing", "on-flush"],
)
def test_closed_pipe_exits_141_quietly(argv, lines_read):
    with run_fresh(argv) as proc:
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert err == ""
