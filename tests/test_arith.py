import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifuse.arith import (
    gauss_sum,
    gauss_sum_reciprocal,
    integer_residual,
    q_power,
    quantum_integer,
    twist,
)

TOL = 1e-9


def test_q_power_rejects_small_kappa():
    with pytest.raises(ValueError):
        q_power(1, 2)
    with pytest.raises(ValueError):
        q_power(1, 0)


def test_q_power_one_values():
    q = q_power(1, 10)
    assert abs(q - complex(math.cos(math.pi / 10), math.sin(math.pi / 10))) < TOL
    assert abs(q_power(1, 4) - (math.sqrt(2) / 2) * (1 + 1j)) < TOL


@pytest.mark.parametrize("kappa", range(3, 40))
def test_q_power_one_is_unimodular(kappa):
    assert abs(abs(q_power(1, kappa)) - 1.0) < TOL


def test_quantum_integer_rejects_small_kappa():
    with pytest.raises(ValueError, match="kappa must be at least 3"):
        quantum_integer(1, 2)


def test_quantum_integer_values():
    assert abs(quantum_integer(1, 10) - 1.0) < TOL
    # sin(9 pi/10) = sin(pi/10)
    assert abs(quantum_integer(9, 10) - 1.0) < TOL
    # [5] at kappa=10 is 1/sin(pi/10)
    assert abs(quantum_integer(5, 10) - 1.0 / math.sin(math.pi / 10)) < TOL
    assert abs(quantum_integer(5, 10) - 3.236068) < 1e-6


@given(kappa=st.integers(3, 60), n=st.data())
def test_quantum_integer_reflection(kappa, n):
    k = n.draw(st.integers(1, kappa - 1))
    assert abs(quantum_integer(k, kappa) - quantum_integer(kappa - k, kappa)) < TOL


def test_twist_values():
    assert abs(twist(0, 10) - 1.0) < TOL
    # exponent delta(delta+2)/2 is a multiple of 2*kappa when delta = 4m
    for m in (2, 4, 6):
        assert abs(twist(4 * m, 4 * m + 2) - 1.0) < TOL
    assert abs(twist(4, 10) - cmath.exp(6j * math.pi / 5)) < TOL


@pytest.mark.parametrize("kappa", [10, 18, 26])
def test_twist_is_unimodular(kappa):
    for i in range(kappa - 1):
        assert abs(abs(twist(i, kappa)) - 1.0) < TOL


def test_twist_range_errors():
    with pytest.raises(ValueError):
        twist(-1, 10)
    with pytest.raises(ValueError):
        twist(9, 10)


def test_gauss_sum_small_cases():
    assert abs(gauss_sum(1, 2) - (1 + 1j)) < TOL
    # direct evaluations quoted against their closed forms
    assert abs(gauss_sum(10, 8) - (-2 * math.sqrt(2) * (1 + 1j))) < TOL
    assert abs(gauss_sum(8, 10) - (-math.sqrt(20))) < TOL
    with pytest.raises(ValueError):
        gauss_sum(1, 0)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_gauss_sum_closed_forms(m):
    kappa = 4 * m + 2
    assert abs(gauss_sum(kappa, 8) - 2 * math.sqrt(2) * (1 + 1j) * 1j**m) < TOL
    assert abs(gauss_sum(8, kappa) - math.sqrt(2 * kappa) * (-1j) ** m) < TOL


@settings(max_examples=200)
@given(a=st.integers(1, 64), b=st.integers(1, 64))
def test_gauss_reciprocity(a, b):
    """S(a,b) = sqrt(b/a) (1+i)/sqrt(2) conj(S(b,a)) whenever a*b is even;
    both sides by direct summation."""
    if (a * b) % 2:
        a = 2 * a
    lhs = gauss_sum(a, b)
    rhs = math.sqrt(b / a) * ((1 + 1j) / math.sqrt(2)) * gauss_sum(b, a).conjugate()
    assert abs(lhs - rhs) < TOL
    assert abs(lhs - gauss_sum_reciprocal(a, b)) < TOL


def test_gauss_reciprocal_preconditions():
    with pytest.raises(ValueError):
        gauss_sum_reciprocal(3, 5)  # odd product
    with pytest.raises(ValueError):
        gauss_sum_reciprocal(0, 2)


def test_integer_recovery():
    n, res = integer_residual(2.0000000001 + 1e-12j)
    assert n == 2 and res < 1e-9
    assert integer_residual(3.0) == (3, 0.0)
    n, res = integer_residual(-1.9999999999)
    assert n == -2 and res < TOL
    assert integer_residual(2.5)[1] >= TOL
    assert integer_residual(1 + 0.1j)[1] >= TOL


def test_q_power_is_phase():
    # half-integer exponents must still be unimodular
    assert abs(abs(q_power(1.5, 10)) - 1.0) < TOL
    assert abs(q_power(10, 10) + 1.0) < TOL  # q^kappa = -1
