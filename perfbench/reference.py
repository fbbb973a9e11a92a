"""Reference values computed without the program under test.

Fusion multiplicities come from the truncated Clebsch-Gordan rule in exact
integers, and the quotient table from folding that rule onto X0..X{2m-1}.
Analytic quantities (sine s-entries, the split-pair entry, Gauss sums,
quantum dimensions, twists) are evaluated by mpmath at 50 digits.  Nothing
here imports equifuse.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 50


def sl2_fusion(delta: int) -> np.ndarray:
    """N[i, j, k] for sl2 at level delta: 1 for k = |i-j|, |i-j|+2, ...,
    min(i+j, 2*delta-i-j), else 0."""
    n = np.zeros((delta + 1,) * 3, dtype=np.int8)
    for i in range(delta + 1):
        for j in range(delta + 1):
            top = min(i + j, 2 * delta - i - j)
            n[i, j, abs(i - j) : top + 1 : 2] = 1
    return n


def quotient_labels(m: int) -> list[str]:
    return [f"X{i}" for i in range(2 * m)] + ["X+", "X-"]


def quotient_fusion(m: int, n: np.ndarray | None = None) -> np.ndarray:
    """Multiplication table of the type-D quotient at even m, indexed like
    `quotient_labels(m)`.

    Plain classes fold the sl2 rule: L[i,j,k] = N[i,j,k] + N[i,j,delta-k],
    and each half of the split pair receives N[i,j,2m].  Entries with a
    split-pair input follow from Frobenius symmetry (every object is
    self-dual, so L is symmetric in all three slots).  The split pair
    squares to X0 + X4 + ... + X+ and X+ X- = X2 + X6 + ...; these seed
    products are the only input not derived from the sl2 rule.
    """
    if m < 2 or m % 2:
        raise ValueError(f"only even m >= 2, got {m}")
    delta = 4 * m
    if n is None:
        n = sl2_fusion(delta)
    size, plus, minus = 2 * m + 2, 2 * m, 2 * m + 1
    lt = np.zeros((size,) * 3, dtype=np.int8)
    k = np.arange(2 * m)
    sub = n[: 2 * m, : 2 * m].astype(np.int16)
    lt[: 2 * m, : 2 * m, : 2 * m] = sub[:, :, k] + sub[:, :, delta - k]
    lt[: 2 * m, : 2 * m, plus] = lt[: 2 * m, : 2 * m, minus] = n[: 2 * m, : 2 * m, 2 * m]
    for p in (plus, minus):
        lt[: 2 * m, p, : 2 * m] = lt[: 2 * m, : 2 * m, p]
        lt[p, : 2 * m, : 2 * m] = lt[: 2 * m, : 2 * m, p]
    even = np.arange(0, 2 * m, 2)
    same, cross = even[even % 4 == 0], even[even % 4 == 2]
    for a, b, outs in ((plus, plus, same), (minus, minus, same), (plus, minus, cross),
                       (minus, plus, cross)):
        lt[a, b, outs] = 1
        lt[outs, a, b] = lt[a, outs, b] = 1
    lt[plus, plus, plus] = lt[minus, minus, minus] = 1
    return lt


def s_entry(kappa: int, i: int, j: int) -> mpmath.mpf:
    """sqrt(2/kappa) * sin((i+1)(j+1) pi / kappa)."""
    with mpmath.workdps(DIGITS):
        angle = (i + 1) * (j + 1) * mpmath.pi / kappa
        return mpmath.sqrt(mpmath.mpf(2) / kappa) * mpmath.sin(angle)


def split_pair_diag(m: int) -> mpmath.mpf:
    """(sqrt(2/kappa) + (-1)^(m/2)) / 2 with kappa = 4m + 2."""
    with mpmath.workdps(DIGITS):
        return (mpmath.sqrt(mpmath.mpf(2) / (4 * m + 2)) + (-1) ** (m // 2)) / 2


def split_pair_cross(m: int) -> mpmath.mpf:
    """(sqrt(2/kappa) - (-1)^(m/2)) / 2 with kappa = 4m + 2."""
    with mpmath.workdps(DIGITS):
        return (mpmath.sqrt(mpmath.mpf(2) / (4 * m + 2)) - (-1) ** (m // 2)) / 2


def gauss_sum(a: int, b: int) -> mpmath.mpc:
    """Direct sum S(a, b) = sum_{p=1}^{b} exp(i pi a p^2 / b)."""
    with mpmath.workdps(DIGITS):
        return mpmath.fsum(mpmath.expjpi(mpmath.mpf(a * p * p) / b) for p in range(1, b + 1))


def qdim(kappa: int, i: int) -> mpmath.mpf:
    """Quantum dimension [i+1] = sin((i+1) pi/kappa) / sin(pi/kappa)."""
    with mpmath.workdps(DIGITS):
        return mpmath.sin((i + 1) * mpmath.pi / kappa) / mpmath.sin(mpmath.pi / kappa)


def twist(kappa: int, i: int) -> mpmath.mpc:
    """theta_i = exp(i pi i(i+2) / (2 kappa))."""
    with mpmath.workdps(DIGITS):
        return mpmath.expjpi(mpmath.mpf(i * (i + 2)) / (2 * kappa))


def class_dims(m: int) -> np.ndarray:
    """Quantum dimensions of the quotient classes as doubles; the split pair
    carries half the middle sl2 dimension."""
    kappa = 4 * m + 2
    dims = [qdim(kappa, i) for i in range(2 * m)] + [qdim(kappa, 2 * m) / 2] * 2
    return np.array([float(d) for d in dims])


def class_twists(m: int) -> np.ndarray:
    """Ribbon scalars of the quotient classes; the split pair inherits the
    middle one."""
    kappa = 4 * m + 2
    thetas = [twist(kappa, i) for i in range(2 * m)] + [twist(kappa, 2 * m)] * 2
    return np.array([complex(t) for t in thetas])
