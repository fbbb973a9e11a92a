"""Complex arithmetic at roots of unity.

Evaluates powers of q = exp(i*pi/kappa), quantum integers, ribbon twists
and quadratic Gauss sums in double precision.  Fractional q-powers (the
exponent i(i+2)/2 can be a half-integer) are always computed as
exp(i*pi*x/kappa) with a rational exponent x, never through complex square
roots, so no branch choice ever enters.
"""

from __future__ import annotations

import cmath
import math

EPS = 1e-9
"""Tolerance of every numerical guard; `verify_all` alone accepts another."""


def require_tolerance(tol: float) -> None:
    """Raise ValueError unless tol is a finite positive number: an infinite
    tolerance would pass every check and a NaN one fail every check."""
    if not 0 < tol < math.inf:  # also false for NaN
        raise ValueError("tolerance must be a finite positive number")


def q_power(x: float, kappa: int) -> complex:
    """q**x = exp(i*pi*x/kappa) for any rational exponent x."""
    if kappa < 3:
        raise ValueError(f"kappa must be at least 3, got {kappa}")
    return cmath.exp(1j * math.pi * x / kappa)


def quantum_integer(n: int, kappa: int) -> float:
    """[n] = (q^n - q^-n)/(q - q^-1) = sin(n*pi/kappa)/sin(pi/kappa)."""
    if kappa < 3:
        raise ValueError(f"kappa must be at least 3, got {kappa}")
    return math.sin(n * math.pi / kappa) / math.sin(math.pi / kappa)


def twist(i: int, kappa: int) -> complex:
    """Ribbon twist theta_i = q^(i(i+2)/2) of the i-th simple object."""
    if not 0 <= i <= kappa - 2:
        raise ValueError(f"object index {i} outside 0..{kappa - 2}")
    return q_power(i * (i + 2) / 2, kappa)


def gauss_sum(a: int, b: int) -> complex:
    """Quadratic Gauss sum S(a, b) = sum_{p=1}^{b} exp(i*pi*a*p^2/b).

    The exponent a*p^2 is reduced mod 2b before evaluation so large
    arguments do not degrade the phase.
    """
    if b < 1:
        raise ValueError(f"modulus b must be at least 1, got {b}")
    total = 0j
    for p in range(1, b + 1):
        t = (a * p * p) % (2 * b)
        total += cmath.exp(1j * math.pi * t / b)
    return total


def gauss_sum_reciprocal(a: int, b: int) -> complex:
    """S(a, b) evaluated through the reciprocity law

        S(a, b) = sqrt(b/a) * (1+i)/sqrt(2) * conj(S(b, a)),

    valid whenever a*b is even.  The right-hand side sums only a terms,
    which is how an a-term sum evaluates a b-term one.
    """
    if a < 1 or b < 1:
        raise ValueError(f"reciprocity needs positive arguments, got ({a}, {b})")
    if (a * b) % 2:
        raise ValueError(f"reciprocity needs a*b even, got ({a}, {b})")
    return math.sqrt(b / a) * ((1 + 1j) / math.sqrt(2)) * gauss_sum(b, a).conjugate()


def integer_residual(value: complex) -> tuple[int, float]:
    """Nearest integer to a (complex) value and the distance to it."""
    c = complex(value)
    n = round(c.real)
    return n, abs(c - n)
