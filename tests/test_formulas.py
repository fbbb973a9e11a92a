import math

import numpy as np
import pytest

from equifuse.arith import integer_residual
from equifuse.errors import UnsupportedCaseError
from equifuse.extended import CHANGE_OF_BASIS, ExtData
from equifuse.formulas import (
    Check,
    _associativity,
    _check,
    check_coefficient_folding,
    check_conv_eigenbasis,
    check_d_n_associative,
    check_d_s_from_twists,
    check_diagonalization,
    check_ee_verlinde,
    check_ext_even,
    check_ext_odd,
    check_folded_sum,
    check_ring_associative,
    diagonalization_matrices,
    ee_verlinde_coeff,
    ext_coeff_a,
    ext_coeff_a_terms,
    ext_coeff_e,
    ext_coeff_e_terms,
    folded_sum_sides,
    verify_all,
)
from equifuse.ring import TypeDRing
from equifuse.sl2 import Sl2Data

TOL = 1e-9


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
    check = check_coefficient_folding(ext.ring, ext.d, TOL)
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


@pytest.mark.parametrize("m", [2, 4, 6, 8, 12, 16])
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


def test_verify_all_reports_plain_types():
    for c in verify_all(2, tol=np.float64(1e-9)).checks:
        assert type(c.passed) is bool, c
        assert type(c.max_residual) is float, c


# -- the residual rule: a NaN anywhere fails, no residual is negative ----------


@pytest.mark.parametrize("position", [0, 1, 2])
def test_check_propagates_nan_from_any_part(position):
    parts = [np.array([0.0, 1e-12]), np.array(2e-12), np.array([[0.0], [3e-12]])]
    assert _check("x", "", 1e-9, *parts) == Check("x", "", 3e-12, True)
    parts[position] = np.full_like(parts[position], np.nan)
    c = _check("x", "", 1e-9, *parts)
    assert np.isnan(c.max_residual)
    assert c.passed is False


def test_check_reports_largest_magnitude():
    # a real part is reduced through its max and min, a complex one through abs
    assert _check("x", "", 1e-9, np.array([-3.0, 1.0])).max_residual == 3.0
    assert _check("x", "", 1e-9, np.array([1.0]), np.array([-4j, 2.0])).max_residual == 4.0


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


def test_checks_expose_even_and_odd_formulas(ext):
    assert check_ext_even(ext, TOL).passed
    assert check_ext_odd(ext, TOL).passed


# -- whole-block checks against per-triple loops of the point evaluators -------
#
# The loops below are the reference the block checks replaced; they must give
# the same residual.


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
    assert check(ext, TOL).max_residual == want


def test_folded_sum_check_equals_point_loop(ext_to_8):
    ext, span = ext_to_8, range(2 * ext_to_8.m + 1)
    want = max(
        abs(lhs - rhs)
        for i in span[::2]
        for j in span
        for k in span
        for lhs, rhs in [folded_sum_sides(ext, i, j, k)]
    )
    assert check_folded_sum(ext, TOL).max_residual == want


def test_s_via_twists_check_equals_point_loop(ext_to_8):
    d = ext_to_8.d
    span = range(d.delta + 1)
    want = max(abs(d.s_from_twists(i, j) - d.s[i, j]) for i in span for j in span)
    # numpy divides complex scalars and complex arrays with different
    # roundings, so the two routes may differ by a few units in the last place
    assert abs(check_d_s_from_twists(d, TOL).max_residual - want) <= 4 * np.finfo(float).eps


def test_s_from_twists_broadcasts(e2):
    d = e2.d
    idx = np.arange(d.delta + 1)
    block = d.s_from_twists(idx[:, None], idx)
    assert block.shape == (d.delta + 1, d.delta + 1)
    assert block[2, 5] == d.s_from_twists(2, 5)
    with pytest.raises(ValueError):
        d.s_from_twists(idx + 1, 0)


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


# -- associativity: two float64 matrix products against the int64 einsum ---------


def _einsum_associativity(t: np.ndarray) -> np.ndarray:
    t = t.astype(np.int64)  # d.n is int8; the oracle sums in int64
    return np.einsum("ijr,rkl->ijkl", t, t) - np.einsum("jkr,irl->ijkl", t, t)


@pytest.mark.parametrize("corrupt", [False, True], ids=["exact", "corrupted"])
@pytest.mark.parametrize("table", ["d.n", "ring.l"])
def test_associativity_equals_int64_einsum(ext_to_8, table, corrupt):
    t = (ext_to_8.d.n if table == "d.n" else ext_to_8.ring.l).copy()
    if corrupt:  # also breaks commutativity, so a swapped axis shows
        t[1, 2, 3] += 1
    got, want = _associativity(t), _einsum_associativity(t)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)


def test_associativity_checks_fail_on_corrupt_entry():
    d, ring = Sl2Data(10), TypeDRing(2)
    d.n[1, 1, 2] += 1  # V1 V1 gains a second V2
    ring.l[1, 1, 2] += 1  # X1 X1 gains a second X2
    for check, t in [(check_d_n_associative(d, TOL), d.n),
                     (check_ring_associative(ring, TOL), ring.l)]:
        assert check.passed is False
        assert check.max_residual == np.max(np.abs(_einsum_associativity(t))) > 0


def test_associativity_refuses_inexact_sizes():
    # 2 * (2^26)^2 = 2^53: partial sums could leave the exact float64 range
    with pytest.raises(ValueError, match="exact"):
        _associativity(np.full((2, 2, 2), 2**26, dtype=np.int64))
    assert not _associativity(np.full((2, 2, 2), 2**26 - 1, dtype=np.int64)).any()
