"""Acceptance gate: nine end-to-end criteria, each printed as one pass/fail
line.  Run with `pytest -s tests/test_acceptance.py` to see every line."""

import math

import numpy as np
import pytest

from equifuse.cli import main as cli_main
from equifuse.extended import (
    ExtData,
    exceptional_cross,
    exceptional_diag,
    exceptional_diag_via_gauss,
    exceptional_diag_via_twists,
)
from equifuse.formulas import (
    check_conv_eigenbasis,
    check_folded_sum,
    diagonalization_matrices,
    ee_verlinde_coeff,
    ext_coeff_a,
    ext_coeff_a_terms,
    ext_coeff_e,
    ext_coeff_e_terms,
)
from equifuse.ring import TypeDRing
from equifuse.sl2 import Sl2Data, verlinde_block

TOL = 1e-9
MS = (2, 4, 6)
KAPPAS = (10, 18, 26)


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num} [{status}] {name}  {detail}".rstrip())
    assert passed, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_classical_verlinde():
    worst = 0.0
    for kappa in KAPPAS:
        d = Sl2Data(kappa)
        worst = max(worst, float(np.max(np.abs(verlinde_block((d.s, d.s, d.s, d.s[0])) - d.n))))
    _report(1, "classical Verlinde reproduction", worst < TOL, f"max residual {worst:.3e}")


def test_criterion_2_worked_products_in_table(capsys):
    code = cli_main(["table", "--m", "2"])
    lines = capsys.readouterr().out.splitlines()
    wanted = ["X2 x X3 = X1 + 2 X3", "X2 x X+ = X2 + X-", "X2 x X- = X2 + X+"]
    ok = code == 0 and all(w in lines for w in wanted)
    _report(2, "worked products verbatim in the m=2 table", ok, "; ".join(wanted))


def test_criterion_3_coefficient_folding():
    worst = 0
    for m in MS:
        ring, d = TypeDRing(m), Sl2Data(4 * m + 2)
        merged = ring.combined_tensor()
        sub = d.n[: 2 * m + 1, : 2 * m + 1]
        expected = sub[:, :, : 2 * m] + sub[:, :, d.delta : d.delta - 2 * m : -1]
        worst = max(worst, int(np.max(np.abs(merged[:, :, : 2 * m] - expected))))
        worst = max(worst, int(np.max(np.abs(merged[:, :, 2 * m] - sub[:, :, 2 * m]))))
    _report(3, "coefficient folding, exact integers", worst == 0, f"max deviation {worst}")


def test_criterion_4_exceptional_entry_routes():
    worst = 0.0
    for m in MS:
        ext = ExtData.build(m)
        closed = exceptional_diag(m)
        worst = max(worst, abs(exceptional_diag_via_twists(ext) - closed))
        worst = max(worst, abs(exceptional_diag_via_gauss(m) - closed))
    reference = math.sqrt(2.0 / 10.0) * (1.0 - 2.0 * math.sin(3.0 * math.pi / 10.0))
    m2_ok = (
        abs(exceptional_diag(2) - reference) < TOL
        and abs(exceptional_diag(2) + 0.276393) < 1e-6
    )
    _report(
        4,
        "exceptional entry: closed form, twist route, Gauss route agree",
        worst < TOL and m2_ok,
        f"max spread {worst:.3e}, m=2 value {exceptional_diag(2):+.6f}",
    )


def test_criterion_5_block_unitarity():
    worst = 0.0
    for m in MS:
        ext = ExtData.build(m)
        eye = np.eye(m + 2)
        worst = max(worst, float(np.max(np.abs(ext.s_ee @ ext.s_ee.T - eye))))
        worst = max(worst, float(np.max(np.abs(ext.s_ee - ext.s_ee.T))))
    e2 = ExtData.build(2)
    row = e2.s_ee[0]
    row_ok = (
        np.max(np.abs(row - [0.276393, 0.723607, 0.447214, 0.447214])) < 1e-6
        and abs(np.linalg.norm(row) - 1.0) < TOL
    )
    _report(
        5,
        "assembled untwisted block is symmetric unitary",
        worst < TOL and row_ok,
        f"max residual {worst:.3e}",
    )


def test_criterion_6_extended_verlinde_formulas():
    worst = 0.0
    for m in MS:
        ext = ExtData.build(m)
        odd = [f"X{j}" for j in ext.odd_classes]
        for i in ext.e_labels:
            for j in odd:
                for k in odd:
                    value = ext_coeff_e(ext, i, j, k)
                    worst = max(worst, abs(value - ext.ring.coeff(i, j, k)))
        for i in odd:
            for j in odd:
                for k in ext.e_labels:
                    value = ext_coeff_a(ext, i, j, k)
                    worst = max(worst, abs(value - ext.ring.coeff(i, j, k)))
    e2 = ExtData.build(2)
    spots_ok = (
        np.max(np.abs(ext_coeff_e_terms(e2, 2, 3, 3) - [1.894427, 0.105573])) < 1e-6
        and np.max(np.abs(ext_coeff_a_terms(e2, 1, 3, "+") - [0.723607, 0.276393])) < 1e-6
    )
    _report(
        6,
        "extended Verlinde formulas reproduce every oracle coefficient",
        worst < TOL and spots_ok,
        f"max residual {worst:.3e}",
    )


def test_criterion_7_diagonalization():
    worst = 0.0
    exact = 0.0
    for m in MS:
        ext = ExtData.build(m)
        for i in ext.odd_classes:
            lhs, rhs = diagonalization_matrices(ext, i)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        exact = max(exact, check_conv_eigenbasis(ext, TOL).max_residual)
    _report(
        7,
        "diagonalized multiplication identity; eigenbasis convolution exact",
        worst < TOL and exact == 0.0,
        f"matrix residual {worst:.3e}, convolution residual {exact:.1e}",
    )


def test_criterion_8_folded_sum_identity():
    worst = 0.0
    for m in MS:
        ext = ExtData.build(m)
        worst = max(worst, check_folded_sum(ext, TOL).max_residual)
    _report(8, "sum-transfer identity, both branches", worst < TOL, f"max residual {worst:.3e}")


def test_criterion_9_structural_properties():
    worst = 0.0
    exact = 0
    for m in MS:
        ring = TypeDRing(m)
        lhs = np.einsum("xyr,rzw->xyzw", ring.l, ring.l)
        rhs = np.einsum("yzr,xrw->xyzw", ring.l, ring.l)
        exact = max(exact, int(np.max(np.abs(lhs - rhs))))
        a = ring.action
        exact = max(exact, int(np.max(np.abs(ring.l[np.ix_(a, a, a)] - ring.l))))
        worst = max(
            worst,
            float(np.max(np.abs(np.outer(ring.dims, ring.dims) - ring.l @ ring.dims))),
        )
        d = Sl2Data(ring.kappa)
        st = d.s.astype(complex) * d.twists[None, :]
        modular = np.max(np.abs(st @ st @ st - (d.p_plus / d.big_d) * (d.s @ d.s)))
        worst = max(worst, float(modular))
    _report(
        9,
        "ring associativity, dimension homomorphism, flip invariance, modular relation",
        exact == 0 and worst < TOL,
        f"max residual {worst:.3e}",
    )


def test_block_formula_covers_split_pair_rows():
    """Companion to criterion 6: the block formula also reproduces the
    split-pair rows of the table."""
    for m in MS:
        ext = ExtData.build(m)
        for x in ("X+", "X-"):
            for z in ext.e_labels:
                assert abs(ee_verlinde_coeff(ext, x, x, z) - ext.ring.coeff(x, x, z)) < TOL
