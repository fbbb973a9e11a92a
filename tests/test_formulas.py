import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from equifuse.arith import integer_residual
from equifuse import extended, formulas
from equifuse.errors import UnsupportedCaseError
from equifuse.extended import CHANGE_OF_BASIS, ExtData
from equifuse.ring import TypeDRing
from equifuse.sl2 import Sl2Data
from equifuse.formulas import (
    Check,
    _check,
    _diagonals,
    _operator_ladder,
    check_coefficient_folding,
    check_conv_eigenbasis,
    check_d_n_associative,
    check_d_s_from_twists,
    check_d_verlinde,
    check_diagonalization,
    check_ee_verlinde,
    check_ext_even,
    check_ext_odd,
    check_folded_sum,
    check_ring_associative,
    check_ring_flip_invariant,
    check_ring_unit_dual,
    diagonalization_matrices,
    ee_verlinde_coeff,
    ext_coeff_a,
    ext_coeff_a_terms,
    ext_coeff_e,
    ext_coeff_e_terms,
    folded_sum_sides,
    run_battery,
    verify_all,
)

TOL = 1e-9
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module", params=[2, 4, 6])
def ext(request):
    return ExtData.build(request.param)


@pytest.fixture(scope="module")
def e2():
    return ExtData.build(2)


# -- transfer formula, identity-block left factor -----------------------------


def test_ext_coeff_e_spot_values(e2):
    terms = ext_coeff_e_terms(e2, 2, 3, 3)
    assert np.max(np.abs(terms - [1.894427, 0.105573])) < 1e-6
    assert abs(ext_coeff_e(e2, 2, 3, 3) - 2.0) < TOL

    terms = ext_coeff_e_terms(e2, 2, 3, 1)
    assert np.max(np.abs(terms - [1.170820, -0.170820])) < 1e-6
    assert abs(ext_coeff_e(e2, 2, 3, 1) - 1.0) < TOL


def test_ext_coeff_e_unit_row(e2):
    for j in (1, 3):
        for k in (1, 3):
            want = 1.0 if j == k else 0.0
            assert abs(ext_coeff_e(e2, 0, j, k) - want) < TOL


def test_ext_coeff_e_even_branch_routes_to_block_formula(e2):
    assert ext_coeff_e(e2, 2, 2, "+") == ee_verlinde_coeff(e2, 2, 2, "+")


def test_ext_coeff_e_exhaustive(ext):
    """Every coefficient with an identity-block left factor and odd pair."""
    ring = ext.ring
    odd = [f"X{j}" for j in ext.odd_classes]
    for i in ext.e_labels:
        for j in odd:
            for k in odd:
                value = ext_coeff_e(ext, i, j, k)
                assert abs(value - ring.coeff(i, j, k)) < TOL


# -- transfer formula, two odd factors ----------------------------------------


def test_ext_coeff_a_spot_values(e2):
    terms = ext_coeff_a_terms(e2, 1, 1, 0)
    assert np.max(np.abs(terms - [0.276393, 0.723607])) < 1e-6
    assert abs(ext_coeff_a(e2, 1, 1, 0) - 1.0) < TOL

    for k in ("+", "-"):
        terms = ext_coeff_a_terms(e2, 1, 3, k)
        assert np.max(np.abs(terms - [0.723607, 0.276393])) < 1e-6
        assert abs(ext_coeff_a(e2, 1, 3, k) - 1.0) < TOL

    assert abs(ext_coeff_a(e2, 1, 1, "+")) < TOL


def test_ext_coeff_a_exhaustive(ext):
    ring = ext.ring
    odd = [f"X{j}" for j in ext.odd_classes]
    for i in odd:
        for j in odd:
            for k in ext.e_labels:
                value = ext_coeff_a(ext, i, j, k)
                assert abs(value - ring.coeff(i, j, k)) < TOL


IDENTITY_BLOCK = "not an untwisted identity-block label"
ODD_SECTOR = "not an odd-sector label"


@pytest.mark.parametrize(
    "evaluator, args, message",
    [
        (ee_verlinde_coeff, (1, 2, "+"), IDENTITY_BLOCK),
        (ee_verlinde_coeff, (2, 1, "+"), IDENTITY_BLOCK),
        (ee_verlinde_coeff, (2, "+", 1), IDENTITY_BLOCK),
        (ext_coeff_e, (1, 1, 3), IDENTITY_BLOCK),
        # j and k are compared with each other before either row is read
        (ext_coeff_e, (0, 2, 3), "share a sector"),
        (ext_coeff_e, (0, 1, 2), "share a sector"),
        (ext_coeff_a, (2, 1, 0), ODD_SECTOR),
        (ext_coeff_a, (1, "+", 0), ODD_SECTOR),
        (ext_coeff_a, (1, 3, 3), IDENTITY_BLOCK),
    ],
    ids=[f"{f}-slot{n}" for f in ("ee_verlinde_coeff", "ext_coeff_e", "ext_coeff_a")
         for n in (1, 2, 3)],
)
def test_evaluators_reject_wrong_sector_in_each_slot(e2, evaluator, args, message):
    with pytest.raises(ValueError, match=message):
        evaluator(e2, *args)


# -- block Verlinde formula ----------------------------------------------------


def test_ee_verlinde_split_pair_rows(ext):
    """The block formula reproduces the split-pair products exactly."""
    ring = ext.ring
    for x in ("X+", "X-"):
        for y in ("X+", "X-"):
            for z in ext.e_labels:
                value = ee_verlinde_coeff(ext, x, y, z)
                assert abs(value - ring.coeff(x, y, z)) < TOL


def test_ee_verlinde_check(ext):
    assert check_ee_verlinde(ext, TOL).passed


# -- folding of coefficients ----------------------------------------------------


def test_coefficient_folding_spots(e2):
    d, merged = e2.d, e2.ring.combined_tensor()
    assert merged[2, 3, 1] == 1 == d.n[2, 3, 1] + d.n[2, 3, 7]
    assert merged[2, 3, 3] == 2 == d.n[2, 3, 3] + d.n[2, 3, 5]
    assert merged[1, 3, 4] == 1 == d.n[1, 3, 4]


def test_coefficient_folding_check(ext):
    check = check_coefficient_folding(ext, TOL)
    assert check.passed and check.max_residual == 0.0


# -- diagonalized multiplication -------------------------------------------------


def test_diagonalization_identity(ext):
    for i in ext.odd_classes:
        lhs, rhs = diagonalization_matrices(ext, i)
        assert np.max(np.abs(lhs - rhs)) < TOL


def test_diagonalization_eigenvalue_signs(e2):
    """The two slots of each pair carry opposite eigenvalues."""
    _, rhs = diagonalization_matrices(e2, 1)
    for a in range(e2.m):
        assert np.max(np.abs(rhs[2 * a] + rhs[2 * a + 1])) < TOL
    assert np.any(np.abs(rhs) > 0.1)  # the identity is not vacuous


def test_diagonalization_checks_pass(ext):
    for check in check_diagonalization(ext, TOL):
        assert check.passed, check


# -- sum-transfer identity --------------------------------------------------------


def test_folded_sum_spots(e2):
    lhs, rhs = folded_sum_sides(e2, 2, 3, 3)
    assert abs(lhs - 2.0) < TOL and abs(rhs - 2.0) < TOL
    lhs, rhs = folded_sum_sides(e2, 2, 3, 4)  # middle-slot branch, parity kills it
    assert abs(lhs) < TOL and abs(rhs) < TOL
    lhs, rhs = folded_sum_sides(e2, 2, 2, 4)  # middle-slot branch, even pair
    assert abs(lhs - rhs) < TOL
    assert abs(lhs - 1.0) < TOL


def test_folded_sum_all_triples(ext):
    check = check_folded_sum(ext, TOL)
    assert check.passed, check


def test_folded_sum_rejects_odd_first_index(e2):
    with pytest.raises(ValueError):
        folded_sum_sides(e2, 1, 1, 0)
    with pytest.raises(ValueError):
        folded_sum_sides(e2, 2, 9, 0)


# -- the full battery --------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 4, 6, 8, 12, 16, 32])
def test_verify_all_passes(m):
    report = verify_all(m, tol=TOL)
    assert report.all_passed, report.failures()
    assert report.kappa == 4 * m + 2
    assert report.tolerance == TOL


def test_verify_all_deterministic():
    a = verify_all(2)
    b = verify_all(2)
    assert [(c.name, c.params, c.max_residual, c.passed) for c in a.checks] == [
        (c.name, c.params, c.max_residual, c.passed) for c in b.checks
    ]
    names = [(c.name, c.params) for c in a.checks]
    assert names == sorted(names)


def test_verify_all_rejects_odd_m():
    with pytest.raises(UnsupportedCaseError):
        verify_all(3)


def test_verify_all_over_tight_tolerance():
    # residuals of the trigonometric checks are tiny but not zero
    report = verify_all(2, tol=1e-300)
    assert not report.all_passed


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
def test_verify_all_rejects_bad_tolerance(tol):
    # an infinite tolerance would pass every check, a NaN one fail every check
    with pytest.raises(ValueError, match="finite positive"):
        verify_all(2, tol=tol)


def test_residual_headroom_at_m16():
    # the worst residual at m=16 is about 1.7e-13 (ring-dimension-hom), so the
    # default 1e-9 needs no size-dependent scaling here
    for c in verify_all(16).checks:
        assert c.max_residual < 1e-11, c


def test_verify_all_reports_plain_types():
    for c in verify_all(2, tol=np.float64(1e-9)).checks:
        assert type(c.passed) is bool, c
        assert type(c.max_residual) is float, c


# -- the residual rule: a NaN anywhere fails, no residual is negative ----------


@pytest.mark.parametrize("position", [0, 1, 2])
def test_check_propagates_nan_from_any_part(position):
    parts = [np.array([0.0, 1e-12]), np.array(2e-12), np.array([[0.0], [3e-12]])]
    assert _check("x", "", 1e-9, parts) == Check("x", "", 3e-12, True)
    parts[position] = np.full_like(parts[position], np.nan)
    c = _check("x", "", 1e-9, parts)
    assert np.isnan(c.max_residual)
    assert c.passed is False


def test_check_reports_largest_magnitude():
    # a real part is reduced through its max and min, a complex one through abs
    assert _check("x", "", 1e-9, [np.array([-3.0, 1.0])]).max_residual == 3.0
    assert _check("x", "", 1e-9, [np.array([1.0]), np.array([-4j, 2.0])]).max_residual == 4.0


def test_check_reduces_an_object_part_through_abs():
    # mpmath values have no ordering on the complex plane; |3+4j| is 5
    part = np.array([mpmath.mpc(3, 4), mpmath.mpc(0, -1)])
    assert part.dtype == object
    assert _check("x", "", 1e-9, [part]).max_residual == 5.0
    # a maximum over objects compares pairwise, and a NaN compares false
    c = _check("x", "", 1e-9, [np.array([mpmath.mpf("nan"), mpmath.mpf(1e-12)])])
    assert np.isnan(c.max_residual) and c.passed is False


def test_check_reads_an_empty_part_as_zero():
    for empty in (np.zeros(0), np.zeros((0, 3), complex), np.zeros(0, np.int8)):
        assert _check("x", "", 1e-9, [empty]) == Check("x", "", 0.0, True)
    assert _check("x", "", 1e-9, [np.zeros(0), np.array([-2e-12])]).max_residual == 2e-12
    assert _check("x", "", 1e-9, [np.array([-128], np.int8)]).max_residual == 128.0


def _tracked(refs: list, value: float) -> np.ndarray:
    """A fresh part, with a weak reference to it appended to refs."""
    part = np.full(3, value)
    refs.append(weakref.ref(part))
    return part


def test_check_drops_each_part_once_reduced():
    # a check may stream its parts from a generator; each must be freed
    # before the next is built, or the parts' peak is two parts, not one
    refs = []

    def parts():
        for k in range(4):
            assert all(ref() is None for ref in refs), f"a part before part {k} is alive"
            yield _tracked(refs, -k)

    assert _check("x", "", 1e-9, parts()) == Check("x", "", 3.0, False)
    assert len(refs) == 4


def test_check_reads_no_parts_as_zero():
    assert _check("x", "", 1e-9, iter(())) == Check("x", "", 0.0, True)


def test_check_residuals_are_never_negative_zero():
    # the golden test compares within 1e-14, so it cannot see a sign flip
    for c in verify_all(4).checks:
        assert math.copysign(1.0, c.max_residual) == 1.0, c


def test_folded_sum_fails_on_nan():
    ext = ExtData.build(4)
    ext.s_ea[1, 1] = np.nan
    c = check_folded_sum(ext, TOL)
    assert np.isnan(c.max_residual)
    assert not c.passed


def test_conv_eigenbasis_fails_on_nan():
    ext = ExtData.build(4)
    ext.ring.dims[4] = np.nan
    c = check_conv_eigenbasis(ext, TOL)
    assert np.isnan(c.max_residual)
    assert not c.passed


# One corrupted ingredient per row at m=4; the check that reads it must FAIL
# with the residual pinned here.
CORRUPTIONS = [
    ("c-ee-verlinde", "ring.l", (2, 4, 6), 1, check_ee_verlinde, "m=4", 1.0000000000000004),
    ("c-even-formula", "ring.l", (2, 3, 5), 1, check_ext_even, "m=4", 0.9999999999999998),
    ("c-odd-formula", "ring.l", (3, 5, 2), 1, check_ext_odd, "m=4", 1.0),
    ("c-diagonalization", "ring.l", (1, 3, 2), 1,
     lambda ext, tol: check_diagonalization(ext, tol)[0], "m=4 i=1", 0.3333333333333333),
    ("c-folded-sum", "s_folded", (3, 2), 1e-6, check_folded_sum, "m=4", 6.666666696797591e-07),
]


@pytest.mark.parametrize("name, table, entry, delta, check, params, residual", CORRUPTIONS,
                         ids=[row[0] for row in CORRUPTIONS])
def test_check_fails_on_corrupted_ingredient(name, table, entry, delta, check, params, residual):
    ext = ExtData.build(4)
    (ext.ring.l if table == "ring.l" else ext.s_folded)[entry] += delta
    c = check(ext, TOL)
    assert (c.name, c.params, c.passed) == (name, params, False)
    # the residual sums through a GEMM, whose order depends on the BLAS kernel
    assert abs(c.max_residual - residual) <= 8 * np.finfo(float).eps


# One-entry corruptions of an integer table at m=4 (X+ is class 8).  An integer
# identity passes only at residual 0 and an oracle value only if it rounds to
# the table's integer, so each row FAILs even at a tolerance above 1.
INTEGER_CORRUPTIONS = [
    ("c-ee-verlinde", "ring.l", (2, 4, 6), check_ee_verlinde, "m=4", 1.0000000000000004),
    ("c-even-formula", "ring.l", (2, 3, 5), check_ext_even, "m=4", 0.9999999999999998),
    ("c-odd-formula", "ring.l", (3, 5, 2), check_ext_odd, "m=4", 1.0),
    ("ring-coefficient-folding", "d.n", (1, 1, 2), check_coefficient_folding, "m=4", 1.0),
    ("d-n-associative", "d.n", (1, 1, 2), check_d_n_associative, "kappa=18", 1.0),
    ("d-verlinde-closed-form", "d.n", (1, 1, 2), check_d_verlinde, "kappa=18", 1.0),
    ("ring-associative", "ring.l", (1, 1, 2), check_ring_associative, "m=4", 2.0),
    ("ring-flip-invariant", "ring.l", (8, 8, 0), check_ring_flip_invariant, "m=4", 1.0),
    ("ring-unit-dual", "ring.l", (0, 1, 1), check_ring_unit_dual, "m=4", 1.0),
]


@pytest.mark.parametrize("tol", [2.0, TOL])
@pytest.mark.parametrize("name, table, entry, check, params, residual", INTEGER_CORRUPTIONS,
                         ids=[row[0] for row in INTEGER_CORRUPTIONS])
def test_integer_check_fails_at_any_tolerance(name, table, entry, check, params, residual, tol):
    ext = ExtData.build(4)
    (ext.ring.l if table == "ring.l" else ext.d.n)[entry] += 1
    c = check(ext, tol)
    assert (c.name, c.params, c.max_residual, c.passed) == (name, params, residual, False)


@pytest.mark.parametrize("m", [2, 4])
def test_d_verlinde_fails_on_each_corrupted_s_entry(m):
    # the check reads d.s only through s / s[0], the rows it sums against; a
    # corruption of any one entry, the unit row included, must still reach it
    ext = ExtData.build(m)
    s = ext.d.s.copy()
    for entry in np.ndindex(s.shape):
        ext.d.s[entry] += 1e-6
        passed = check_d_verlinde(ext, TOL).passed
        ext.d.s[...] = s
        assert not passed, entry


@pytest.mark.parametrize("m", [2, 4])
def test_d_verlinde_fails_on_corrupted_n_entries(m):
    # the residual subtracts the stored table, so a +1 on an entry of 0 or 1
    # shows as a residual of 1
    ext = ExtData.build(m)
    last = ext.d.delta
    for entry in [(0, 0, 0), (0, 0, 1), (1, 1, 2), (2, 3, 1), (last, last, 0), (0, last, last)]:
        ext.d.n[entry] += 1
        c = check_d_verlinde(ext, TOL)
        ext.d.n[entry] -= 1
        assert not c.passed and abs(c.max_residual - 1) < 1e-12, (entry, c)


def _add(table, delta, *entries):
    """Add delta to entries of one table of the built object, named by its
    path from it, e.g. "d.s" or "ring.l"."""
    def corrupt(ext, monkeypatch):
        for entry in entries:
            attrgetter(table)(ext)[entry] += delta
    return corrupt


def _scale(table, factor, entry=...):
    def corrupt(ext, monkeypatch):
        attrgetter(table)(ext)[entry] *= factor
    return corrupt


def _move_x1_x1_unit(ext, monkeypatch):
    ext.ring.l[1, 1, 0] = 0  # X1 X1 = X0 + X2 becomes 2 X2
    ext.ring.l[1, 1, 2] = 2


def _swap_x2_x4_flip(ext, monkeypatch):
    ext.ring.action[[2, 4]] = ext.ring.action[[4, 2]]


def _fix_every_class(ext, monkeypatch):
    ext.ring.action[:] = np.arange(ext.ring.size)


def _swap_split_pair_rows(ext, monkeypatch):
    pair = [ext.ring.plus, ext.ring.minus]
    ext.ring.l[np.ix_(pair, pair)] = ext.ring.l[np.ix_(pair, pair[::-1])]


def _cross_for_diag(ext, monkeypatch):
    monkeypatch.setattr(formulas, "exceptional_diag", extended.exceptional_cross)


def _scale_gauss_route(ext, monkeypatch):
    reciprocal = extended.gauss_sum_reciprocal
    monkeypatch.setattr(extended, "gauss_sum_reciprocal", lambda *a: 1.01 * reciprocal(*a))


def _complex_gauss_route(ext, monkeypatch):
    reciprocal = extended.gauss_sum_reciprocal
    monkeypatch.setattr(extended, "gauss_sum_reciprocal",
                        lambda *a: reciprocal(*a) * (1 + 0.01j))


# Corruptions of a built m=4 object (X+ is class 8) that the constructors
# would reject, each with every check it FAILs when the whole battery runs;
# all other checks must pass.  The rows together trip every check name.
BATTERY_CORRUPTIONS = [
    ("unit", _add("ring.l", 1, (0, 1, 1)),
     {"ring-unit-dual", "ring-associative", "ring-coefficient-folding", "ring-dimension-hom",
      "c-even-formula"}),
    ("flip-x0-column", _add("ring.l", 1, (8, 8, 0)),
     {"ring-flip-invariant", "exc-twist-route", "ring-associative", "ring-coefficient-folding",
      "ring-dimension-hom", "ring-unit-dual", "c-ee-verlinde"}),
    ("flip-split-output", _add("ring.l", 1, (2, 8, 8), (8, 2, 8)),
     {"ring-flip-invariant", "ring-coefficient-folding", "ring-associative",
      "ring-dimension-hom", "c-ee-verlinde"}),
    ("unbalanced-split-pair", _add("ring.l", 1, (1, 3, 8)),
     {"ring-coefficient-folding", "ring-flip-invariant", "ring-associative",
      "ring-dimension-hom", "c-odd-formula", "c-diagonalization"}),
    # a common phase survives the twist route's ratio
    ("complex-twist-route", _scale("thetas", np.exp(0.1j)), {"exc-twist-route"}),
    ("non-unitary-s-ee", _add("s_ee", 1e-6, (0, 0)),
     {"c-see-unitary", "c-ee-verlinde", "c-even-formula", "c-odd-formula",
      "c-diagonalization", "c-folded-sum"}),
    ("non-symmetric-s", _add("d.s", 1e-6, (1, 2)),
     {"d-s-symmetric", "d-fold-even-columns", "d-s-unitary", "d-modular-relation",
      "d-s-via-twists", "d-verlinde-closed-form", "c-folded-sum"}),
    ("s-odd-column", _add("d.s", 1e-6, (8, 1)),
     {"d-fold-odd-columns", "d-fold-middle-row", "d-s-symmetric", "d-s-unitary",
      "d-modular-relation", "d-s-via-twists", "d-verlinde-closed-form"}),
    ("s-middle-entry", _add("d.s", 1e-6, (8, 8)),
     {"exc-pair-sum", "d-s-unitary", "d-modular-relation", "d-s-via-twists",
      "d-verlinde-closed-form", "c-folded-sum"}),
    ("sl2-table", _add("d.n", 1, (1, 1, 2)),
     {"d-n-associative", "d-verlinde-closed-form", "ring-coefficient-folding"}),
    ("sl2-twist-sign", _scale("d.twists", -1, 3), {"d-modular-relation", "d-s-via-twists"}),
    ("ring-table", _move_x1_x1_unit,
     {"ring-associative", "ring-dimension-hom", "c-odd-formula", "c-diagonalization",
      "ring-coefficient-folding", "ring-unit-dual"}),
    ("non-symmetric-s-ee", _add("s_ee", 1e-6, (1, 2)),
     {"c-see-symmetric", "c-ee-verlinde", "c-even-formula", "c-see-unitary", "c-odd-formula",
      "c-diagonalization", "c-folded-sum"}),
    ("s-ea-scale", _scale("s_ea", 1.01, (0, 0)),
     {"c-sea-unitary", "c-even-formula", "c-odd-formula", "c-diagonalization",
      "c-folded-sum"}),
    ("flip-swaps-x2-x4", _swap_x2_x4_flip, {"c-conv-eigenbasis", "ring-flip-invariant"}),
    ("flip-moves-no-class", _fix_every_class, {"ring-flip-invariant"}),
    ("gauss-route", _scale_gauss_route, {"exc-gauss-route"}),
    ("complex-gauss-route", _complex_gauss_route, {"exc-gauss-route"}),
    # X+ X+ and X+ X- trade rows, as do X- X- and X- X+
    ("split-pair-products", _swap_split_pair_rows,
     {"c-ee-verlinde", "exc-twist-route", "ring-associative", "ring-unit-dual"}),
    # the factor 2 of the odd-sector pairings
    ("s-ea-half", _scale("s_ea", 0.5),
     {"c-diagonalization", "c-even-formula", "c-folded-sum", "c-odd-formula", "c-sea-unitary"}),
    # the (-1)^(m/2) sign that tells the split pair's diagonal from its cross entry
    ("split-pair-sign", _cross_for_diag, {"exc-gauss-route", "exc-pair-sum", "exc-twist-route"}),
]


@pytest.mark.parametrize("corrupt, names", [row[1:] for row in BATTERY_CORRUPTIONS],
                         ids=[row[0] for row in BATTERY_CORRUPTIONS])
def test_battery_reports_a_corrupted_build_as_failures(monkeypatch, corrupt, names):
    ext = ExtData.build(4)
    corrupt(ext, monkeypatch)
    assert {c.name for c in run_battery(ext).failures()} == names


def test_battery_corruptions_trip_every_check():
    every_name = {c.name for c in run_battery(ExtData.build(4)).checks}
    assert len(every_name) == 26
    assert set().union(*(row[2] for row in BATTERY_CORRUPTIONS)) == every_name


def test_battery_reports_a_flip_that_moves_no_class():
    # the table slabs are then empty and read as 0; the action part FAILs
    ext = ExtData.build(4)
    _fix_every_class(ext, None)
    report = run_battery(ext)
    assert len(report.checks) == len(verify_all(4).checks)
    assert [(c.name, c.max_residual) for c in report.failures()] == [("ring-flip-invariant", 1.0)]


def test_battery_calls_the_module_attributes_when_it_runs(monkeypatch):
    # the tracer wraps the module attributes; a check list bound at import
    # would call the originals and leave the per-check spans empty
    calls = []
    original = formulas.check_folded_sum
    monkeypatch.setattr(formulas, "check_folded_sum",
                        lambda ext, tol: calls.append(tol) or original(ext, tol))
    run_battery(ExtData.build(2), TOL)
    assert calls == [TOL]


def test_checks_expose_even_and_odd_formulas(ext):
    assert check_ext_even(ext, TOL).passed
    assert check_ext_odd(ext, TOL).passed


# -- whole-block checks against per-triple loops of the point evaluators -------
#
# The loops below are the reference the block checks replaced.  A block check
# sums each coefficient in one matrix product, in another order than the point
# evaluator's np.sum, and that order depends on the OpenBLAS kernel.  Measured
# at m = 2..12 under six kernels (default, SkylakeX, Haswell, Zen, Sandybridge,
# Prescott), the worst gap is 3.0 eps for the folded sum and 2.0 eps for the
# oracle checks.  Both are compared within 4 eps: 2 ulps of the largest
# multiplicity, 2, whose ulp is 2 eps.


def _scalar_oracle_residual(value: float, oracle: int) -> float:
    nearest, _ = integer_residual(value)
    residual = abs(value - oracle)
    return max(residual, 0.5) if nearest != oracle else residual


@pytest.fixture(scope="module", params=[2, 4, 6, 8])
def ext_to_8(request):
    return ExtData.build(request.param)


@pytest.mark.parametrize(
    "check, point, blocks",
    [
        (check_ee_verlinde, ee_verlinde_coeff, ("e", "e", "e")),
        (check_ext_even, ext_coeff_e, ("e", "odd", "odd")),
        (check_ext_odd, ext_coeff_a, ("odd", "odd", "e")),
    ],
)
def test_block_check_equals_point_loop(ext_to_8, check, point, blocks):
    ext = ext_to_8
    labels = {"e": ext.e_labels, "odd": [f"X{j}" for j in ext.odd_classes]}
    xs, ys, zs = (labels[b] for b in blocks)
    want = max(
        _scalar_oracle_residual(point(ext, x, y, z), ext.ring.coeff(x, y, z))
        for x in xs
        for y in ys
        for z in zs
    )
    assert abs(check(ext, TOL).max_residual - want) <= 4 * np.finfo(float).eps


def test_folded_sum_check_equals_point_loop(ext_to_8):
    ext, span = ext_to_8, range(2 * ext_to_8.m + 1)
    want = max(
        abs(lhs - rhs)
        for i in span[::2]
        for j in span
        for k in span
        for lhs, rhs in [folded_sum_sides(ext, i, j, k)]
    )
    assert abs(check_folded_sum(ext, TOL).max_residual - want) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("slot", range(4), ids=["x", "y", "z", "unit"])
def test_block_check_fails_on_each_corrupted_row_block(monkeypatch, slot):
    """Doubling one row block of the transfer formula (halving the unit row)
    doubles every coefficient, so the check must FAIL; a block sum that read
    that block, or the unit row, from another block would still pass."""
    ext = ExtData.build(4)
    rows = list(formulas._e_rows(ext))
    rows[slot] = rows[slot] * (0.5 if slot == 3 else 2.0)
    monkeypatch.setattr(formulas, "_e_rows", lambda ext: tuple(rows))
    c = check_ext_even(ext, TOL)
    assert c.passed is False and c.max_residual >= 1


def _passed_and_peak(check, ext) -> tuple[bool, int]:
    """Whether the check passes, and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return check(ext, TOL).passed, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_checks_stay_small_at_m32():
    """The folded-sum and oracle checks sum whole blocks through one matrix
    product each; at m=32 each peaks near 2.3 MB (folded sum) and 0.7 MB
    (oracle checks), where a rank-4 summand array would take 146 MB."""
    ext = ExtData.build(32)
    for check in (check_folded_sum, check_ee_verlinde, check_ext_even, check_ext_odd):
        passed, peak = _passed_and_peak(check, ext)
        assert passed and peak < 4e6, f"{check.__name__} peaked at {peak} bytes"


def test_s_via_twists_check_equals_point_loop(ext_to_8):
    d = ext_to_8.d
    span = range(d.delta + 1)
    want = max(abs(d.s_from_twists(i, j) - d.s[i, j]) for i in span for j in span)
    # numpy divides complex scalars and complex arrays with different
    # roundings, so the two routes may differ by a few units in the last place
    assert abs(check_d_s_from_twists(ext_to_8, TOL).max_residual - want) <= 4 * np.finfo(float).eps


def test_s_from_twists_broadcasts(e2):
    d = e2.d
    idx = np.arange(d.delta + 1)
    block = d.s_from_twists(idx[:, None], idx)
    assert block.shape == (d.delta + 1, d.delta + 1)
    assert block[2, 5] == d.s_from_twists(2, 5)
    with pytest.raises(ValueError):
        d.s_from_twists(idx + 1, 0)


def test_s_via_twists_check_stays_small_at_m64():
    """The twist route fuses delta+3 twist sums, so the check holds (a, a)
    arrays only: about 3 MB at m=64, where a rank-3 array of n rows times the
    weights would take about 290 MB."""
    passed, peak = _passed_and_peak(check_d_s_from_twists, ExtData.build(64))
    assert passed and peak < 16e6, f"check_d_s_from_twists peaked at {peak} bytes"


def test_d_verlinde_check_stays_small_at_m64():
    """The Verlinde check fuses delta+3 row sums and hands `_check` one
    (a, a) slab per i, about 2 MiB at m=64, where the whole (a, a, a)
    residual and its gathers took 260 MiB."""
    ext = ExtData.build(64)
    ext.d.n  # built on first read; its 17 MB are not the check's
    passed, peak = _passed_and_peak(check_d_verlinde, ext)
    assert passed and peak < 16 * 2**20, f"check_d_verlinde peaked at {peak} bytes"


def test_diagonalization_images_match_per_image_products(ext_to_8):
    """The left side equals the construction with one s_ee @ image per odd
    basis element, the image read off the ring table coefficient by
    coefficient."""
    ext = ext_to_8
    m, ring = ext.m, ext.ring
    mix = np.eye(2 * m + 2)
    mix[: 2 * m, : 2 * m] = np.kron(np.eye(m), CHANGE_OF_BASIS)
    for i in ext.odd_classes:
        cols = np.zeros((2 * m + 2, m))
        for b, j in enumerate(ext.odd_classes):
            image = np.array([ring.coeff(i, j, lab) for lab in ext.e_labels])
            s_image = ext.s_ee @ image
            cols[0 : 2 * m : 2, b] = s_image[:m]
            cols[2 * m :, b] = s_image[m:]
        lhs, _ = diagonalization_matrices(ext, i)
        assert np.array_equal(lhs, mix @ cols)


# -- associativity: the recursion on whole operators against the int64 einsum --


def _einsum_associativity(t: np.ndarray) -> np.ndarray:
    t = t.astype(np.int64)  # d.n is int8; the oracle sums in int64
    return np.einsum("ijr,rkl->ijkl", t, t) - np.einsum("jkr,irl->ijkl", t, t)


def _associativity_case(ext, table):
    """The table, the classes of its top parent, and its check."""
    if table == "d.n":
        return ext.d.n, [len(ext.d.n) - 1], check_d_n_associative
    return ext.ring.l, [ext.ring.plus, ext.ring.minus], check_ring_associative


@pytest.mark.parametrize("corrupt", [False, True], ids=["exact", "corrupted"])
@pytest.mark.parametrize("table", ["d.n", "ring.l"])
def test_associativity_equals_int64_einsum(ext_to_8, table, corrupt):
    """As built, every part of `_operator_ladder` is zero and so is the
    einsum; with X1 X2 gaining an X3, which also breaks commutativity, the
    einsum is nonzero, so is some part, and the check FAILs with the largest
    part entry as its residual."""
    ext = ext_to_8
    t, top, check = _associativity_case(ext, table)
    original = t.copy()
    if corrupt:
        t[1, 2, 3] += 1
    try:
        want = _einsum_associativity(t)
        parts = list(_operator_ladder(t, top))
        c = check(ext, TOL)
    finally:
        t[...] = original
    assert all(part.dtype == np.int32 for part in parts)
    assert corrupt == bool(want.any()) == any(part.any() for part in parts)
    assert c.passed is not corrupt
    assert c.max_residual == max(int(np.abs(part).max()) for part in parts)


@pytest.mark.parametrize("table", ["d.n", "ring.l"])
def test_associativity_check_equals_int64_einsum(ext_to_8, table):
    """The table as built and seeded +-1 single-entry mutations: the check
    passes exactly when the table is associative, by the dense oracle, and
    commutative."""
    ext = ext_to_8
    t, _, check = _associativity_case(ext, table)
    rng = np.random.default_rng([ext.m, len(t)])
    mutations = [(None, 0)] + [(tuple(rng.integers(len(t), size=3)), int(rng.choice([-1, 1])))
                               for _ in range(12)]
    for entry, delta in mutations:
        original = t.copy()
        if entry is not None:
            t[entry] += delta
        try:
            want = not _einsum_associativity(t).any() and np.array_equal(t, t.transpose(1, 0, 2))
            passed = check(ext, TOL).passed
        finally:
            t[...] = original
        assert passed == want, (entry, delta)
        assert passed == (entry is None), (entry, delta)  # so both outcomes are reached


@pytest.mark.parametrize("table", ["d.n", "ring.l"])
def test_associativity_check_equals_int64_einsum_on_commuting_mutations(ext_to_8, table):
    """Seeded +-1 mutations of an entry t[x, y, z] together with its mirror
    t[y, x, z] keep the table commutative, so the check must read
    associativity alone: it passes exactly when the dense oracle is zero."""
    ext = ext_to_8
    t, _, check = _associativity_case(ext, table)
    rng = np.random.default_rng([ext.m, len(t), 3])
    outcomes = set()
    for _ in range(12):
        (x, y, z), delta = rng.integers(len(t), size=3), int(rng.choice([-1, 1]))
        original = t.copy()
        t[x, y, z] += delta
        if x != y:
            t[y, x, z] += delta
        try:
            assert np.array_equal(t, t.transpose(1, 0, 2))
            want = not _einsum_associativity(t).any()
            passed = check(ext, TOL).passed
        finally:
            t[...] = original
        assert passed == want, (x, y, z, delta)
        outcomes.add(passed)
    assert check(ext, TOL).passed
    assert False in outcomes


def test_diagonals_lists_each_nonzero_offset_once():
    rows = np.zeros((5, 5), dtype=np.int8)
    rows[0, 4] = rows[1, 0] = rows[3, 2] = rows[2, 2] = rows[4, 4] = 1
    assert _diagonals(rows).tolist() == [-1, 0, 4]
    assert _diagonals(np.zeros((3, 3), dtype=np.int8)).tolist() == []


@pytest.mark.parametrize("top", [[5], [4, 5]], ids=["sl2", "ring"])
def test_operator_ladder_parts_equal_int64_formulas(top):
    """Every part on seeded int8 tables, whose X1 rows hold nonzero entries
    on the diagonals -1 and 2 only, so not on a symmetric set of them,
    against its formula in int64."""
    rng = np.random.default_rng(len(top))
    offset = np.arange(6) - np.arange(6)[:, None]
    for _ in range(5):
        t = rng.integers(-128, 128, size=(6, 6, 6)).astype(np.int8)
        t[1][(offset != -1) & (offset != 2)] = 0
        w = t.astype(np.int64)
        p = top[0]  # steps i = 2..p, one block
        want = [w[0] - np.eye(6), w[:, 0] - np.eye(6),
                np.einsum("yw,iwz->iyz", w[1], w[1:p]) - w[: p - 1] - w[2 : p + 1]]
        if len(top) > 1:
            want[-1][-1] -= w[5]
            want.append(w[1] @ w[4] - w[4] @ w[1])
        got = list(_operator_ladder(t, top))
        assert len(got) == len(want)
        for part, formula in zip(got, want):
            assert part.dtype == np.int32 and np.array_equal(part, formula)


def test_span_certificate_fails_on_a_table_whose_x1_row_does_not_span():
    # X1 X3 = X2 + X4 loses X4, so the recursion no longer reaches X4
    ext = ExtData.build(2)
    ext.d.n[1, 3, 4] = 0
    assert check_d_n_associative(ext, TOL).passed is False


def _unreached_pair() -> np.ndarray:
    """X0 a unit, X2 X3 = X2 and X3 X2 = X3, every other product 0: not
    associative, (X2 X3) X2 = 0 but X2 (X3 X2) = X2."""
    t = np.zeros((6, 6, 6), dtype=np.int8)
    t[0] = t[:, 0] = np.eye(6, dtype=np.int8)
    t[2, 3, 2] = t[3, 2, 3] = 1
    return t


def _x0_not_a_unit() -> np.ndarray:
    """sl2 at kappa=4 with X0 X0 = X2 X2 = 0 and X0 X2 = X2 X0 = X0 + X2."""
    n = Sl2Data(4).n.copy()
    n[0, 0] = n[2, 2] = 0
    n[0, 2] = n[2, 0] = [1, 0, 1]
    return n


def _x_plus_self_dual_lost() -> np.ndarray:
    """The m=2 quotient with X0 moved from X+ X+ and X- X- to X+ X- and X- X+."""
    l = TypeDRing(2).l.copy()
    l[4, 4, 0] = l[5, 5, 0] = 0
    l[4, 5, 0] = l[5, 4, 0] = 1
    return l


# Non-associative tables that all parts of `_operator_ladder` but one kind
# pass: (table, check, classes of the top parent, the kinds of part that
# FAIL).  X+ is class 4 in both ring-shaped tables.
NEEDED_PARTS = [
    ("sl2-recursion", _unreached_pair, check_d_n_associative, [5], {"recursion"}),
    ("ring-recursion", _unreached_pair, check_ring_associative, [4, 5], {"recursion"}),
    ("sl2-unit", _x0_not_a_unit, check_d_n_associative, [2], {"left-unit", "right-unit"}),
    ("ring-x+-commutator", _x_plus_self_dual_lost, check_ring_associative, [4, 5],
     {"commutator"}),
]


@pytest.mark.parametrize("table, check, top, needed", [row[1:] for row in NEEDED_PARTS],
                         ids=[row[0] for row in NEEDED_PARTS])
def test_each_part_of_the_associativity_check_is_needed(table, check, top, needed):
    t = table()
    table_only = SimpleNamespace(d=SimpleNamespace(n=t), kappa=0, m=0,
                                 ring=SimpleNamespace(l=t, plus=top[0], minus=top[-1]))
    assert _einsum_associativity(t).any()
    assert check(table_only, TOL).passed is False
    parts = list(_operator_ladder(t, top))
    split = len(top) > 1
    kinds = ["left-unit", "right-unit"] + ["recursion"] * (len(parts) - 2 - split)
    kinds += ["commutator"] * split
    assert {kind for kind, part in zip(kinds, parts) if part.any()} == needed


def test_associativity_checks_fail_on_corrupt_entry():
    ext = ExtData.build(2)
    ext.d.n[1, 1, 2] += 1  # V1 V1 gains a second V2
    ext.ring.l[1, 1, 2] += 1  # X1 X1 gains a second X2
    for check, t in [(check_d_n_associative(ext, TOL), ext.d.n),
                     (check_ring_associative(ext, TOL), ext.ring.l)]:
        assert check.passed is False
        assert check.max_residual == np.max(np.abs(_einsum_associativity(t))) > 0


@pytest.fixture(scope="module")
def ext_64():
    ext = ExtData.build(64)
    ext.d.n  # built on first read; its 17 MB are not a check's
    return ext


@pytest.mark.parametrize("check", [check_d_n_associative, check_ring_associative],
                         ids=["d-n-associative", "ring-associative"])
def test_associativity_checks_stay_small_at_m64(ext_64, check):
    """Each part of `_operator_ladder` is one block of about 8 MB, and
    `_check` drops it once reduced: about 16 MiB at m=64 for either check,
    where one (a, a, a) residual per generator peaked at 194 MiB (sl2) and
    84 MiB (the quotient)."""
    passed, peak = _passed_and_peak(check, ext_64)
    assert passed and peak < 32 * 2**20, f"{check.__name__} peaked at {peak} bytes"


def test_battery_does_not_import_numpy_ma():
    """numpy.ma adds about 1.3 MB of resident memory on import (np.unique
    imports it); verify_all must not pull it in where numpy alone does not."""
    code = ("import sys, numpy; before = 'numpy.ma' in sys.modules\n"
            "from equifuse import verify_all; assert verify_all(8).all_passed\n"
            "print(before, 'numpy.ma' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout.split()
    assert out != ["False", "True"], out
