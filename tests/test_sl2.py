import math

import numpy as np
import pytest

from equifuse.sl2 import Sl2Data, verlinde_block, verlinde_summands

TOL = 1e-9


@pytest.fixture(scope="module")
def d10():
    return Sl2Data(10)


def test_fusion_coeff_examples(d10):
    # 2 (x) 3 decomposes into 1, 3, 5 at delta = 8
    assert [k for k in range(9) if d10.n[2, 3, k]] == [1, 3, 5]
    for j in range(9):
        for k in range(9):
            assert d10.n[0, j, k] == (1 if j == k else 0)
    assert d10.n[1, 1, 0] == 1
    assert d10.n[1, 1, 2] == 1
    assert d10.n[1, 1, 1] == 0


def test_fusion_coeff_truncation():
    d = Sl2Data(6)  # delta = 4
    # ordinary rule would give 4 in 3 (x) 3; the level cuts it at 2*delta-(i+j)
    assert d.n[3, 3, 4] == 0
    assert d.n[3, 3, 2] == 1
    assert d.n[3, 3, 0] == 1


def test_fusion_coeff_range_error(d10):
    with pytest.raises(ValueError, match="outside 0..8"):
        d10.verlinde_coeff(0, 0, 9)
    with pytest.raises(ValueError, match="outside 0..8"):
        d10.verlinde_coeff(-1, 0, 0)


@pytest.mark.parametrize("index", [True, np.True_, np.array([False, True])],
                         ids=["bool", "numpy-bool", "bool-array"])
def test_bool_index_is_rejected(d10, index):
    # numpy would read a bool as a mask: verlinde_coeff(True, 1, 2) gave 2.0
    # where V1 (x) V1 holds V2 once, and s_from_twists(True, 2) a whole row
    with pytest.raises(ValueError, match="bool"):
        d10.verlinde_coeff(index, 1, 2)
    with pytest.raises(ValueError, match="bool"):
        d10.s_from_twists(2, index)


def test_rejects_small_kappa():
    with pytest.raises(ValueError, match="kappa must be at least 3"):
        Sl2Data(2)


def test_s_matrix_values(d10):
    assert abs(d10.s[0, 0] - math.sqrt(0.2) * math.sin(math.pi / 10)) < TOL
    assert abs(d10.s[0, 0] - 0.138197) < 1e-6
    assert abs(d10.s[4, 1]) < TOL  # sin(pi) = 0
    assert np.max(np.abs(d10.s - d10.s.T)) < TOL


def test_qdim_values(d10):
    assert abs(d10.dims[0] - 1.0) < TOL
    assert abs(d10.dims[8] - 1.0) < TOL
    assert abs(d10.dims[4] - 1.0 / math.sin(math.pi / 10)) < TOL
    assert abs(d10.dims[4] - 3.236068) < 1e-6
    # d_i = s[0, i]/s[0, 0]
    assert np.max(np.abs(d10.dims - d10.s[0] / d10.s[0, 0])) < TOL


def test_normalization(d10):
    prod = d10.p_plus * d10.p_minus
    assert prod.imag == pytest.approx(0.0, abs=TOL)
    assert prod.real > 0
    assert abs(d10.big_d - math.sqrt(5) / math.sin(math.pi / 10)) < TOL
    assert abs(d10.big_d - 7.236068) < 1e-6
    # the unnormalized matrix pairs the unit row with the dimensions
    assert np.max(np.abs(d10.big_d * d10.s[0] - d10.dims)) < TOL


@pytest.mark.parametrize("kappa", [10, 18, 26])
def test_s_unitary_and_symmetric(kappa):
    d = Sl2Data(kappa)
    eye = np.eye(d.delta + 1)
    assert np.max(np.abs(d.s @ d.s.T - eye)) < TOL
    assert np.max(np.abs(d.s - d.s.T)) < TOL


def test_verlinde_block_equals_summand_loop():
    # row blocks of four different sizes, so a swapped or dropped block shows
    rng = np.random.default_rng(7)
    rows = (*(rng.uniform(-1.0, 1.0, (n, 5)) for n in (2, 3, 4)), rng.uniform(0.5, 2.0, 5))
    block = verlinde_block(rows)
    loop = [np.sum(verlinde_summands(rows, i, j, k)) for i, j, k in np.ndindex(2, 3, 4)]
    assert block.shape == (2, 3, 4)
    np.testing.assert_allclose(block.ravel(), loop, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kappa", [10, 18, 26])
def test_verlinde_matches_fusion_tensor(kappa):
    d = Sl2Data(kappa)
    assert np.max(np.abs(verlinde_block((d.s, d.s, d.s, d.s[0])) - d.n)) < TOL


def test_verlinde_examples(d10):
    assert abs(d10.verlinde_coeff(2, 3, 5) - 1.0) < TOL
    assert abs(d10.verlinde_coeff(1, 1, 1)) < TOL
    for j in range(9):
        for k in range(9):
            assert abs(d10.verlinde_coeff(0, j, k) - (1.0 if j == k else 0.0)) < TOL


@pytest.mark.parametrize("kappa", [10, 18, 26])
def test_modular_relation(kappa):
    """(s t)^3 = (p+/D) s^2 with t the diagonal matrix of twists."""
    d = Sl2Data(kappa)
    st = d.s.astype(complex) * d.twists[None, :]
    lhs = st @ st @ st
    rhs = (d.p_plus / d.big_d) * (d.s @ d.s)
    assert np.max(np.abs(lhs - rhs)) < TOL


@pytest.mark.parametrize("kappa", [10, 18])
def test_s_from_twists_full_matrix(kappa):
    d = Sl2Data(kappa)
    for i in range(d.delta + 1):
        for j in range(d.delta + 1):
            assert abs(d.s_from_twists(i, j) - d.s[i, j]) < TOL


def test_s_from_twists_unit_entry(d10):
    assert abs(d10.s_from_twists(0, 0) - 1.0 / d10.big_d) < TOL


@pytest.mark.parametrize("kappa", [10, 18, 26])
def test_fold_symmetries(kappa):
    """Row k against row delta-k: opposite on odd columns, equal on even
    ones; the middle row vanishes on odd columns."""
    d = Sl2Data(kappa)
    s, delta = d.s, d.delta
    for k in range(delta + 1):
        for p in range(delta + 1):
            if p % 2:
                assert abs(s[k, p] + s[delta - k, p]) < TOL
            else:
                assert abs(s[k, p] - s[delta - k, p]) < TOL
    for p in range(1, delta + 1, 2):
        assert abs(s[delta // 2, p]) < TOL


@pytest.mark.parametrize("kappa", [10, 18, 26])
def test_n_tensor_associative(kappa):
    n = Sl2Data(kappa).n.astype(np.int64)
    lhs = np.einsum("ijr,rkl->ijkl", n, n)
    rhs = np.einsum("jkr,irl->ijkl", n, n)
    assert np.array_equal(lhs, rhs)


def test_n_tensor_is_int8():
    # n is all 0 and 1: int8 stores it in an eighth of int64's memory, and as a
    # signed type, d.n - x cannot wrap around
    assert Sl2Data(18).n.dtype == np.int8


def test_n_tensor_is_zero_one_and_symmetric(d10):
    assert set(np.unique(d10.n)) <= {0, 1}
    assert np.array_equal(d10.n, d10.n.transpose(1, 0, 2))


def test_n_tensor_is_built_on_first_read_and_kept():
    d = Sl2Data(18)
    assert "n" not in vars(d)  # construction and s_from_twists leave it unbuilt
    d.s_from_twists(3, 5)
    assert "n" not in vars(d)
    d.n[1, 1, 2] += 1  # a write into the table persists
    assert d.n[1, 1, 2] == 2


def test_s_from_twists_equals_formula_on_n_at_m64():
    # the fused twist sums against the ribbon formula read on the full fusion
    # table: they sum in another order, and the gap measured at m = 2..64 is
    # below 1 eps
    d, eps = Sl2Data(258), np.finfo(float).eps
    rng = np.random.default_rng(64)
    for i, j in rng.integers(0, d.delta + 1, size=(200, 2)).tolist():
        total = np.sum(d.n[i, j] * d.twists * d.dims, axis=-1)
        want = complex(total / (d.twists[i] * d.twists[j]) / d.big_d)
        assert abs(d.s_from_twists(i, j) - want) <= 2 * eps, (i, j)
    i, j = rng.integers(0, d.delta + 1, size=(2, 16))
    total = np.sum(d.n[i[:, None], j] * d.twists * d.dims, axis=-1)
    want = total / (d.twists[i[:, None]] * d.twists[j]) / d.big_d
    assert np.max(np.abs(d.s_from_twists(i[:, None], j) - want)) <= 2 * eps
