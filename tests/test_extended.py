import cmath
import math

import numpy as np
import pytest

from equifuse.arith import quantum_integer
from equifuse.errors import UnsupportedCaseError
from equifuse.extended import (
    ExtData,
    ExtVector,
    GradedLabel,
    alam,
    exceptional_cross,
    exceptional_diag,
    exceptional_diag_via_gauss,
    exceptional_diag_via_twists,
    lam,
)

TOL = 1e-9


@pytest.fixture(scope="module", params=[2, 4, 6])
def ext(request):
    return ExtData.build(request.param)


@pytest.fixture(scope="module")
def e2():
    return ExtData.build(2)


# -- s-matrix blocks ----------------------------------------------------------


def test_see_values_m2(e2):
    s = e2.s_ee
    root = math.sqrt(0.2)
    assert abs(s[0, 0] - 2 * root * math.sin(math.pi / 10)) < TOL
    assert abs(s[0, 0] - 0.276393) < 1e-6
    assert abs(s[0, 2] - 0.447214) < 1e-6  # (s l0, l+) = sl2 middle-row entry
    expected_row = [0.276393, 0.723607, 0.447214, 0.447214]
    assert np.max(np.abs(s[0] - expected_row)) < 1e-6
    assert abs(np.linalg.norm(s[0]) - 1.0) < TOL


def test_sea_values_m2(e2):
    root = math.sqrt(0.2)
    assert abs(e2.s_ea[0, 0] - 2 * root * math.sin(2 * math.pi / 10)) < TOL
    # (s l3, al:2) doubles the sl2 (3,2) entry, which is negative
    assert abs(e2.s_ea[1, 1] - 2 * root * math.sin(12 * math.pi / 10)) < TOL
    assert abs(e2.s_ea[1, 1] + 0.525731) < 1e-6
    assert abs(e2.s_ea[1, 0] - 0.850651) < 1e-6


def test_blocks_unitary(ext):
    m = ext.m
    assert np.max(np.abs(ext.s_ee @ ext.s_ee.T - np.eye(m + 2))) < TOL
    assert np.max(np.abs(ext.s_ee - ext.s_ee.T)) < TOL
    assert np.max(np.abs(ext.s_ea @ ext.s_ea.T - np.eye(m))) < TOL


def test_big_d_relation(ext):
    assert abs(2 * ext.big_d_c - ext.d.big_d) < TOL


def test_kappa_mismatch_rejected():
    from equifuse.ring import TypeDRing
    from equifuse.sl2 import Sl2Data

    with pytest.raises(ValueError):
        ExtData(TypeDRing(2), Sl2Data(18))


# -- exceptional entries ------------------------------------------------------


def test_exceptional_closed_values():
    assert abs(exceptional_diag(2) + 0.276393) < 1e-6
    assert abs(exceptional_diag(2) - math.sqrt(0.2) * (1 - 2 * math.sin(3 * math.pi / 10))) < TOL
    assert abs(exceptional_diag(4) - 2.0 / 3.0) < TOL
    assert abs(exceptional_cross(2) - 0.723607) < 1e-6
    assert abs(exceptional_cross(2) - math.sqrt(0.2) * 2 * math.sin(3 * math.pi / 10)) < TOL
    assert abs(exceptional_cross(4) + 1.0 / 3.0) < TOL


@pytest.mark.parametrize("m", [1, 3])
def test_exceptional_rejects_odd_m(m):
    with pytest.raises(UnsupportedCaseError):
        exceptional_diag(m)
    with pytest.raises(UnsupportedCaseError):
        exceptional_diag_via_gauss(m)


def test_exceptional_pair_sum(ext):
    m = ext.m
    assert abs(
        exceptional_diag(m) + exceptional_cross(m) - ext.d.s[2 * m, 2 * m]
    ) < TOL


def test_exceptional_route_agreement(ext):
    closed = exceptional_diag(ext.m)
    assert abs(exceptional_diag_via_twists(ext) - closed) < TOL
    assert abs(exceptional_diag_via_gauss(ext.m) - closed) < TOL


def test_twist_route_unnormalized_m2(e2):
    """At m=2 the ribbon sum is (2 q^-4 + q^8 [5])/2 = -1 before normalizing."""
    q = cmath.exp(1j * math.pi / 10)
    tilde = 0.5 * (2 * q**-4 + q**8 * quantum_integer(5, 10))
    assert abs(tilde - (-1.0)) < TOL
    assert abs(exceptional_diag_via_twists(e2) - tilde.real / e2.big_d_c) < TOL


# -- products and operators ---------------------------------------------------


def test_tensor_worked_product(e2):
    out = e2.tensor(lam(2), lam(3))
    assert out.isclose(lam(1) + 2.0 * lam(3))


def test_tensor_unit(e2):
    for x in ("X0", "X1", "X2", "X3", "+", "-"):
        assert e2.tensor(lam(0), lam(x)).isclose(lam(x))


def test_tensor_mixed_flip_is_zero(e2):
    assert len(e2.tensor(alam(2), lam(1))) == 0
    assert len(e2.tensor(lam(1), alam(0))) == 0


def test_tensor_double_flip_unsupported(e2):
    with pytest.raises(UnsupportedCaseError):
        e2.tensor(alam(2), alam(2))


def test_convolution_rules(e2):
    d2 = e2.ring.dims[e2.ring.index("X2")]
    assert e2.convolve(alam(2), alam(2)).isclose((1.0 / d2) * lam(2))
    assert len(e2.convolve(lam(0), lam(2))) == 0
    assert e2.convolve(lam(2), lam(2)).isclose((1.0 / d2) * lam(2))
    assert e2.convolve(lam(2), alam(2)).isclose((1.0 / d2) * alam(2))
    assert e2.convolve(alam(2), lam(2)).isclose((1.0 / d2) * alam(2))
    dp = e2.ring.dims[e2.ring.index("X+")]
    assert e2.convolve(lam("+"), lam("+")).isclose((1.0 / dp) * lam("+"))
    assert len(e2.convolve(lam("+"), lam("-"))) == 0


def test_convolution_rejects_odd_sector(e2):
    with pytest.raises(UnsupportedCaseError):
        e2.convolve(lam(1), lam(1))


def test_change_basis_blocks(e2):
    alpha = e2.change_basis(lam(2))
    beta = e2.change_basis(alam(2))
    assert alpha.isclose(0.5 * (alam(2) - lam(2)))
    assert beta.isclose(0.5 * (alam(2) + lam(2)))
    assert e2.change_basis(lam("+")).isclose(lam("+"))


def test_change_basis_squares_to_half(e2):
    x = 3.0 * lam(0) + 2.0 * alam(2) - 1.0 * lam(2)
    assert e2.change_basis(e2.change_basis(x)).isclose(0.5 * x)


def test_change_basis_inverse_roundtrip(e2):
    x = 1.5 * lam(0) - 2.5 * alam(0) + 4.0 * lam("-") + 1.0 * lam(2)
    assert e2.change_basis_inverse(e2.change_basis(x)).isclose(x)
    assert e2.change_basis(e2.change_basis_inverse(x)).isclose(x)


def test_conv_eigenbasis_relations(ext):
    for cls in ext.fixed_classes:
        inv_dim = 1.0 / ext.ring.dims[cls]
        alpha = ext.change_basis(lam(cls))
        beta = ext.change_basis(alam(cls))
        assert ext.convolve(alpha, alpha).isclose(-inv_dim * alpha, tol=1e-15)
        assert ext.convolve(beta, beta).isclose(inv_dim * beta, tol=1e-15)
        assert len(ext.convolve(alpha, beta)) == 0
        assert len(ext.convolve(beta, alpha)) == 0


def test_twist_operator(e2):
    assert e2.twist_op(lam(0)).isclose(lam(0))
    theta2 = cmath.exp(4j * math.pi / 10)
    assert e2.twist_op(lam(2)).isclose(theta2 * lam(2))
    assert e2.twist_op(alam(2)).isclose(theta2 * alam(2))
    theta_mid = e2.thetas[e2.ring.index("X+")]
    assert e2.twist_op(lam("+")).isclose(theta_mid * lam("+"))
    with pytest.raises(UnsupportedCaseError):
        e2.twist_op(lam(1))


def test_twist_matches_sl2_diagonal(ext):
    # on the identity block the operator is the sl2 twist of the class
    for cls in ext.fixed_classes:
        out = ext.twist_op(lam(cls))
        assert abs(out.coeff(GradedLabel(f"X{cls}")) - ext.d.twists[cls]) < TOL


def test_bilinear_form(e2):
    assert e2.pair(lam(2), lam(2)) == 1.0
    assert e2.pair(lam(0), lam(2)) == 0.0
    assert e2.pair(alam(2), lam(2)) == 0.0
    assert e2.pair(alam(2), alam(2)) == 1.0
    x = 2.0 * lam(0) + 3.0 * alam(2)
    y = 1.0 * lam(0) - 1.0 * alam(2)
    assert e2.pair(x, y) == e2.pair(y, x) == -1.0


def test_flipped_split_pair_rejected(e2):
    with pytest.raises(UnsupportedCaseError):
        e2.tensor(alam("+"), alam("+"))


def test_graded_label_tokens():
    assert GradedLabel("X3").token() == "l:3"
    assert GradedLabel("X2", flipped=True).token() == "al:2"
    assert GradedLabel("X+").token() == "l:+"


def test_ext_vector_arithmetic():
    v = 2.0 * lam(0) - lam(0)
    assert v.coeff(GradedLabel("X0")) == 1.0
    assert len(lam(0) - lam(0)) == 0
    w = lam(0) + 1j * alam(2)
    assert w.coeff(GradedLabel("X2", flipped=True)) == 1j


def test_tensor_full_support_matches_dense_einsum():
    ext = ExtData.build(8)
    labels = ext.ring.labels
    rng = np.random.default_rng(8)
    coeffs = rng.uniform(-1, 1, len(labels)) + 1j * rng.uniform(-1, 1, len(labels))
    f = ExtVector({GradedLabel(lab): c for lab, c in zip(labels, coeffs)})
    want = np.einsum("a,b,abz->z", coeffs, coeffs, ext.ring.l)
    got = ext.tensor(f, f)
    assert all(not label.flipped for label in got.labels())
    assert [got.coeff(GradedLabel(lab)) for lab in labels] == want.tolist()
    # flipped terms on one side only annihilate
    assert ext.tensor(f + alam(2), f).isclose(got)
