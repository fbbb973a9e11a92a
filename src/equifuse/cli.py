"""Command-line front end.

Subcommands
-----------
table    print a full fusion table (the quotient ring or the sl2 one)
smatrix  print an s-matrix block with row/column labels
coeff    evaluate one fusion coefficient by a chosen formula
verify   run the identity battery at --tol; exit 0 iff everything passes

A command builds only the data it reads: the sl2 layer for ``--ring d``,
``--which d`` and ``--formula verlinde``, the quotient ring for the c table
and ``--formula oracle``, and the extended algebra for everything else.

--json output is laid out as ``json.dumps(indent=2, sort_keys=True)`` lays it
out, with every float first cut to 12 significant digits, so repeated runs are
byte-identical.  Exit codes: 0 success, 1 at least one verification failure,
2 invalid invocation, 141 standard output closed early (a pipe into ``head``).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .arith import EPS, integer_residual
from .extended import ExtData, GradedLabel
from .formulas import ext_coeff_a, ext_coeff_e, verify_all
from .ring import TypeDRing, require_even_m
from .sl2 import Sl2Data

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_PAIR = "[\n        %s,\n        %s\n      ]"  # a complex value inside a record


def _json_float(x: float) -> str:
    """A float as json.dumps writes it after cutting it to 12 significant digits."""
    text = f"{x:.12g}"
    return _NON_FINITE.get(text) or float.__repr__(float(text))


def _emit_json(m: int, kappa: int, tolerance: float, columns: dict[str, list]) -> None:
    """Print the envelope, one record per row of `columns` (key -> list), in the bytes of
    json.dumps(payload, indent=2, sort_keys=True).  Each value is written by the entry for
    its exact type; a value of any other type, a numpy scalar say, raises TypeError."""
    strings: dict[str, str] = {}  # a label repeats once per record it sits in
    encode = {
        str: lambda v: strings.get(v) or strings.setdefault(v, encode_basestring_ascii(v)),
        float: _json_float,
        int: int.__repr__,
        bool: lambda v: "true" if v else "false",
        complex: lambda v: _JSON_PAIR % (_json_float(v.real), _json_float(v.imag)),
    }
    keys = sorted(columns)
    try:
        encoded = [[encode[type(v)](v) for v in columns[k]] for k in keys]
        kappa_text, m_text, tolerance_text = (encode[type(v)](v) for v in (kappa, m, tolerance))
    except KeyError as exc:
        raise TypeError(f"Object of type {exc.args[0].__name__} "
                        "is not JSON serializable") from None
    fields = ",\n".join(f"      {encode_basestring_ascii(k)}: %s" for k in keys)
    template = f"    {{\n{fields}\n    }}"
    records = ",\n".join(template % row for row in zip(*encoded, strict=True))
    results = f"[\n{records}\n  ]" if records else "[]"
    print(f'{{\n  "kappa": {kappa_text},\n  "m": {m_text},\n'
          f'  "results": {results},\n  "tolerance": {tolerance_text}\n}}')


def _d_labels(delta: int) -> list[str]:
    return [f"V{i}" for i in range(delta + 1)]


def _sl2_data(m: int) -> Sl2Data:
    """The sl2 layer alone, behind the same guard, and message, as TypeDRing's."""
    require_even_m(m)
    return Sl2Data(4 * m + 2)


def _cmd_table(args) -> int:
    if args.ring == "d":
        table = _sl2_data(args.m)
        labels, tensor = _d_labels(table.delta), table.n
    else:
        table = TypeDRing(args.m)
        labels, tensor = table.labels, table.l

    # nonzero entries in lexicographic (x, y, z) order
    nonzero = np.nonzero(tensor)
    xs, ys, zs = ([labels[t] for t in axis.tolist()] for axis in nonzero)
    mults = tensor[nonzero].tolist()
    if args.json:
        _emit_json(args.m, table.kappa, EPS, {"x": xs, "y": ys, "z": zs, "mult": mults})
        return 0
    # no product of simples is zero, so every (x, y) pair has entries
    for (lx, ly), terms in itertools.groupby(zip(xs, ys, zs, mults), key=lambda e: e[:2]):
        parts = [lz if mult == 1 else f"{mult} {lz}" for _, _, lz, mult in terms]
        print(f"{lx} x {ly} = " + " + ".join(parts))
    return 0


def _cmd_smatrix(args) -> int:
    if args.which == "d":
        d = _sl2_data(args.m)
        kappa, block = d.kappa, d.s
        row_labels = col_labels = _d_labels(d.delta)
    else:
        ext = ExtData.build(args.m)
        kappa = ext.kappa
        if args.which == "c-ee":
            row_labels = col_labels = [GradedLabel(lab).token() for lab in ext.e_labels]
            block = ext.s_ee
        else:  # c-ea
            row_labels = [GradedLabel(ext.ring.labels[j]).token() for j in ext.odd_classes]
            col_labels = [GradedLabel(ext.ring.labels[p], True).token()
                          for p in ext.fixed_classes]
            block = ext.s_ea

    if args.json:
        columns = {
            "row": [rl for rl in row_labels for _ in col_labels],
            "col": col_labels * len(row_labels),
            "value": [complex(v) for row in block.tolist() for v in row],
        }
        _emit_json(args.m, kappa, EPS, columns)
        return 0
    width = max(len(lab) for lab in row_labels + col_labels) + 1
    print(" " * width + "  ".join(f"{lab:>10}" for lab in col_labels))
    for rl, row in zip(row_labels, block.tolist()):
        print(f"{rl:<{width}}" + "  ".join(f"{value:10.6f}" for value in row))
    return 0


def _cmd_coeff(args) -> int:
    data, value = _evaluate_coeff(args.m, args.formula, args.i, args.j, args.k)
    nearest, residual = integer_residual(value)
    if args.json:
        columns = {"formula": [args.formula], "i": [args.i], "j": [args.j], "k": [args.k],
                   "value": [value], "nearest": [nearest], "residual": [residual]}
        _emit_json(args.m, data.kappa, EPS, columns)
        return 0
    print(f"{args.formula}({args.i}, {args.j}, {args.k}) = {value:.12g}"
          f"  [nearest {nearest}, residual {residual:.3e}]")
    return 0


def _evaluate_coeff(m: int, formula: str, i: str, j: str,
                    k: str) -> tuple[Sl2Data | TypeDRing | ExtData, float]:
    """(the data built, the coefficient): only the layer the formula reads is built."""
    if formula == "verlinde":
        d = _sl2_data(m)
        di, dj, dk = (_parse_d_index(t, d.delta) for t in (i, j, k))
        return d, d.verlinde_coeff(di, dj, dk)
    if formula == "oracle":
        ring = TypeDRing(m)
        return ring, float(ring.coeff(i, j, k))
    ext = ExtData.build(m)
    return ext, (ext_coeff_e if formula == "ext-e" else ext_coeff_a)(ext, i, j, k)


def _parse_d_index(token: str, delta: int) -> int:
    try:
        return int(token)  # Sl2Data.verlinde_coeff checks the range
    except ValueError:
        raise ValueError(f"sl2 labels are integers 0..{delta}, got {token!r}") from None


def _cmd_verify(args) -> int:
    report = verify_all(args.m, tol=args.tol)
    if args.json:
        columns = {key: [getattr(c, key) for c in report.checks]
                   for key in ("name", "params", "max_residual", "passed")}
        _emit_json(report.m, report.kappa, report.tolerance, columns)
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status}  {c.name:<28} {c.params:<18} max_residual={c.max_residual:.3e}")
        n_fail = len(report.failures())
        print(f"{len(report.checks)} checks, {n_fail} failed (tolerance {report.tolerance:g})")
    return 0 if report.all_passed else 1


@functools.cache  # built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equifuse",
        description="Fusion rules and modular data for quantum sl2 and its type-D quotient.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--m", type=int, required=True, help="half the middle index; must be even")
        p.add_argument("--json", action="store_true", help="emit deterministic JSON")

    p_table = sub.add_parser("table", help="print a fusion table")
    add_common(p_table)
    p_table.add_argument("--ring", choices=["d", "c"], default="c",
                         help="sl2 table (d) or quotient table (c)")
    p_table.set_defaults(func=_cmd_table)

    p_smat = sub.add_parser("smatrix", help="print an s-matrix block")
    add_common(p_smat)
    p_smat.add_argument("--which", choices=["d", "c-ee", "c-ea"], required=True)
    p_smat.set_defaults(func=_cmd_smatrix)

    p_coeff = sub.add_parser("coeff", help="evaluate one fusion coefficient")
    add_common(p_coeff)
    p_coeff.add_argument("--i", required=True)
    p_coeff.add_argument("--j", required=True)
    p_coeff.add_argument("--k", required=True)
    p_coeff.add_argument("--formula", choices=["verlinde", "ext-e", "ext-a", "oracle"],
                         default="oracle")
    p_coeff.set_defaults(func=_cmd_coeff)

    p_verify = sub.add_parser("verify", help="run the identity battery")
    add_common(p_verify)
    p_verify.add_argument("--tol", type=float, default=EPS, help="tolerance of every check")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must raise here, not at interpreter exit
        return code
    except BrokenPipeError:  # e.g. `equifuse table --m 8 --json | head -1`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the exit-time flush must not raise again
        os.close(devnull)
        return 141
    except ValueError as exc:  # includes UnsupportedCaseError: odd m, labels out of scope
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
