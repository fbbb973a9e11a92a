"""Command-line front end.

Subcommands
-----------
table    print a full fusion table (the quotient ring or the sl2 one)
smatrix  print an s-matrix block with row/column labels
coeff    evaluate one fusion coefficient by a chosen formula
verify   run the whole identity battery; exit 0 iff everything passes

All numeric JSON output is rendered with 12 significant digits and sorted
keys, so repeated runs are byte-identical.  Exit codes: 0 success, 1 at
least one verification failure, 2 invalid invocation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from .arith import EPS, integer_residual, require_tolerance
from .extended import ExtData
from .formulas import ext_coeff_a, ext_coeff_e, verify_all
from .ring import TypeDRing
from .sl2 import Sl2Data


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


def _emit_json(m: int, kappa: int, tolerance: float, results) -> None:
    payload = {"m": m, "kappa": kappa, "tolerance": tolerance, "results": results}
    print(json.dumps(_json_value(payload), indent=2, sort_keys=True))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _d_labels(delta: int) -> list[str]:
    return [f"V{i}" for i in range(delta + 1)]


def _cmd_table(args) -> int:
    ring = TypeDRing(args.m)
    if args.ring == "d":
        d = Sl2Data(ring.kappa)
        labels, tensor = _d_labels(d.delta), d.n
    else:
        labels, tensor = ring.labels, ring.l

    # nonzero entries in lexicographic (x, y, z) order
    nonzero = np.nonzero(tensor)
    names = ([labels[t] for t in axis.tolist()] for axis in nonzero)
    entries = list(zip(*names, tensor[nonzero].tolist()))
    if args.json:
        rows = [{"x": lx, "y": ly, "z": lz, "mult": mult} for lx, ly, lz, mult in entries]
        _emit_json(args.m, ring.kappa, args.tol, rows)
        return 0
    # no product of simples is zero, so every (x, y) pair has entries
    for (lx, ly), terms in itertools.groupby(entries, key=lambda e: e[:2]):
        parts = [lz if mult == 1 else f"{mult} {lz}" for _, _, lz, mult in terms]
        print(f"{lx} x {ly} = " + " + ".join(parts))
    return 0


def _cmd_smatrix(args) -> int:
    ext = ExtData.build(args.m)
    if args.which == "d":
        row_labels = col_labels = _d_labels(ext.d.delta)
        block = ext.d.s
    elif args.which == "c-ee":
        row_labels = col_labels = [f"l:{lab.removeprefix('X')}" for lab in ext.e_labels]
        block = ext.s_ee
    else:  # c-ea
        row_labels = [f"l:{j}" for j in ext.odd_classes]
        col_labels = [f"al:{p}" for p in ext.fixed_classes]
        block = ext.s_ea

    if args.json:
        rows = [
            {"row": rl, "col": cl, "value": complex(block[a, b])}
            for a, rl in enumerate(row_labels)
            for b, cl in enumerate(col_labels)
        ]
        _emit_json(args.m, ext.kappa, args.tol, rows)
        return 0
    width = max(len(lab) for lab in row_labels + col_labels) + 1
    print(" " * width + "  ".join(f"{lab:>10}" for lab in col_labels))
    for rl, row in zip(row_labels, block.tolist()):
        print(f"{rl:<{width}}" + "  ".join(f"{value:10.6f}" for value in row))
    return 0


def _cmd_coeff(args) -> int:
    ext = ExtData.build(args.m)
    value = _evaluate_coeff(ext, args.formula, args.i, args.j, args.k)
    nearest, residual = integer_residual(value)
    if args.json:
        result = {
            "formula": args.formula,
            "i": args.i,
            "j": args.j,
            "k": args.k,
            "value": value,
            "nearest": nearest,
            "residual": residual,
        }
        _emit_json(args.m, ext.kappa, args.tol, [result])
        return 0
    print(f"{args.formula}({args.i}, {args.j}, {args.k}) = {value:.12g}"
          f"  [nearest {nearest}, residual {residual:.3e}]")
    return 0


def _evaluate_coeff(ext: ExtData, formula: str, i: str, j: str, k: str) -> float:
    if formula == "verlinde":
        di, dj, dk = (_parse_d_index(t, ext.d.delta) for t in (i, j, k))
        return ext.d.verlinde_coeff(di, dj, dk)
    li, lj, lk = (ext.ring.labels[ext.ring.index(t)] for t in (i, j, k))
    if formula == "oracle":
        return float(ext.ring.coeff(li, lj, lk))
    if formula == "ext-e":
        return ext_coeff_e(ext, li, lj, lk)
    return ext_coeff_a(ext, li, lj, lk)


def _parse_d_index(token: str, delta: int) -> int:
    try:
        return int(token)  # Sl2Data.verlinde_coeff checks the range
    except ValueError:
        raise ValueError(f"sl2 labels are integers 0..{delta}, got {token!r}") from None


def _cmd_verify(args) -> int:
    report = verify_all(args.m, tol=args.tol)
    if args.json:
        results = [
            {
                "name": c.name,
                "params": c.params,
                "max_residual": c.max_residual,
                "passed": c.passed,
            }
            for c in report.checks
        ]
        _emit_json(report.m, report.kappa, report.tolerance, results)
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status}  {c.name:<28} {c.params:<18} max_residual={c.max_residual:.3e}")
        n_fail = len(report.failures())
        print(f"{len(report.checks)} checks, {n_fail} failed (tolerance {report.tolerance:g})")
    return 0 if report.all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equifuse",
        description="Fusion rules and modular data for quantum sl2 and its type-D quotient.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--m", type=int, required=True, help="half the middle index; must be even")
        p.add_argument("--tol", type=float, default=EPS, help="numerical tolerance")
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
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        require_tolerance(args.tol)
        return args.func(args)
    except ValueError as exc:  # includes UnsupportedCaseError: odd m, labels out of scope
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
