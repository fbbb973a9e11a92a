"""Modular data of the semisimple part of quantum sl2 at q = exp(i*pi/kappa).

Simple objects are indexed 0..delta with delta = kappa - 2; all of them are
self-dual.  The s-matrix is stored in its closed sine form.  The alternative
route through twists and fusion multiplicities (`s_from_twists`) is kept as
an independent consistency check, not as a constructor.  The Verlinde sum
over row blocks and the fusion rule (`Sl2Data.fuse_rows`) are written once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .arith import EPS, quantum_integer, twist


def verlinde_summands(rows, i, j, k) -> np.ndarray:
    """Summands x[i] y[j] z[k] / unit of one Verlinde coefficient."""
    x, y, z, unit = rows
    return x[i] * y[j] * z[k] / unit


def verlinde_block(rows) -> np.ndarray:
    """out[i, j, k] = sum_p x[i,p] y[j,p] z[k,p] / unit[p] as one 2-D matrix
    product, summed in another order than `verlinde_summands` (a few ulps)."""
    x, y, z, unit = rows
    pairs = (x[:, None] * y[None]).reshape(-1, len(unit))
    return (pairs @ (z / unit).T).reshape(len(x), len(y), len(z))


class Sl2Data:
    """s-matrix, twists, quantum dimensions and fusion tensor at level delta.

    Attributes
    ----------
    kappa, delta : int
        Root-of-unity order and level, delta = kappa - 2.
    s : (delta+1, delta+1) float array
        s[i, j] = sqrt(2/kappa) * sin((i+1)(j+1)*pi/kappa); symmetric, unitary.
    twists : complex array
        Ribbon scalars theta_i = q^(i(i+2)/2).
    dims : float array
        Quantum dimensions d_i = [i+1].
    n : (delta+1,)^3 int8 array
        Fusion multiplicities, all 0 or 1: n[i, j] marks k = |i-j|, |i-j|+2,
        ..., min(i+j, 2*delta - i - j), which is `fuse_rows` on the comb rows.
        Built on first read, one i-slab at a time, and kept; widen it, e.g.
        with `astype(np.int64)`, before summing many products of its entries.
    p_plus, p_minus : complex
        Sums of theta_i^(+-1) * d_i^2 over all simples.
    big_d : float
        Positive root of p_plus * p_minus; s is the unitary normalization
        of big_d * s.
    """

    def __init__(self, kappa: int):
        if kappa < 3:
            raise ValueError(f"kappa must be at least 3, got {kappa}")
        self.kappa = kappa
        self.delta = kappa - 2
        # Python ints: a numpy index would make every scalar step a numpy call
        self.twists = np.array([twist(i, kappa) for i in range(self.delta + 1)])
        self.dims = np.array([quantum_integer(i + 1, kappa) for i in range(self.delta + 1)])
        idx = np.arange(self.delta + 1)
        self.s = np.sqrt(2.0 / kappa) * np.sin(np.outer(idx + 1, idx + 1) * np.pi / kappa)

        steps = idx - np.arange(self.delta + 3)[:, None]  # rows c = 0..delta+2 of comb
        self._comb = ((steps >= 0) & (steps % 2 == 0)).astype(np.int8)  # comb[c] marks c, c+2, ...
        self._twist_sums = self._comb @ (self.twists * self.dims)  # the rows s_from_twists fuses

        self.p_plus = complex(np.sum(self.twists * self.dims**2))
        self.p_minus = complex(np.sum(self.dims**2 / self.twists))
        prod = self.p_plus * self.p_minus
        if abs(prod.imag) > EPS * abs(prod):
            raise ValueError(f"p+ p- should be real, got {prod!r}")
        self.big_d = math.sqrt(prod.real)

    def fuse_rows(self, rows, i, j) -> np.ndarray:
        """The sl2 fusion rule on rows c = 0..delta+2: rows[|i-j|] minus
        rows[min(i+j, 2*delta - i - j) + 2], so n[i, j] on comb and n[i, j] @ w
        on comb @ w; i and j are ints or index arrays that broadcast."""
        return rows[abs(i - j)] - rows[self.delta + 2 - abs(self.delta - i - j)]

    @functools.cached_property
    def n(self) -> np.ndarray:
        """The full fusion table, filled one i-slab at a time."""
        idx = np.arange(self.delta + 1)
        n = np.empty((self.delta + 1,) * 3, dtype=np.int8)
        for i in range(self.delta + 1):
            n[i] = self.fuse_rows(self._comb, i, idx)
        return n

    def _check_index(self, *indices) -> None:
        """Each index is an int or an integer array; all entries must be in range."""
        for i in indices:
            lo, hi = (i.min(), i.max()) if isinstance(i, np.ndarray) else (i, i)
            if isinstance(lo, (bool, np.bool_)):  # also a bool array's min; numpy reads a mask
                raise ValueError(f"object index {i!r} is a bool, not an integer")
            if not (0 <= lo and hi <= self.delta):
                raise ValueError(f"object index {i} outside 0..{self.delta}")

    def verlinde_coeff(self, i: int, j: int, k: int) -> float:
        """Verlinde formula sum_p s[i,p] s[j,p] s[k*,p] / s[0,p]; every simple
        is self-dual, so k* is k."""
        self._check_index(i, j, k)
        return float(np.sum(verlinde_summands((self.s, self.s, self.s, self.s[0]), i, j, k)))

    def s_from_twists(self, i, j):
        """s[i, j] recomputed from ribbon data:
        theta_i^-1 theta_j^-1 sum_k n[i*, j, k] theta_k d_k, divided by big_d.

        i and j may also be index arrays that broadcast against each other;
        the result is then a complex array of their broadcast shape."""
        self._check_index(i, j)
        # every simple is self-dual, so n[i*, j] is n[i, j]
        total = self.fuse_rows(self._twist_sums, i, j)
        value = total / (self.twists[i] * self.twists[j]) / self.big_d
        return value if isinstance(value, np.ndarray) else complex(value)
