"""Integer fusion ring of the type-D quotient of quantum sl2 at delta = 4m.

Simple objects are X0..X{2m-1} together with the split pair X+, X- (the two
halves into which the middle sl2 object breaks).  Only even m is supported;
for odd m the pair is not self-dual and the seed table below does not apply.

The full multiplication tensor is derived from the seed products by the
degree-lowering recursion X_i = X_1*X_{i-1} - X_{i-2}.  Every intermediate
multiplicity must stay a nonnegative integer, and the finished table must be
commutative with X0 a strict unit, or construction aborts.
"""

from __future__ import annotations

import numpy as np

from .arith import quantum_integer
from .errors import InconsistencyError, UnsupportedCaseError

PLUS = "X+"
MINUS = "X-"


def canonical_label(x) -> str:
    """Canonical class label ("X3", "X+", "X-") of any accepted spelling:
    a nonnegative int or numpy int, or a string "3", "+" or "-" with an
    optional "X"/"x" prefix.  Ring-independent, so a well-formed label may
    still be out of range for a given m; `TypeDRing.index` checks that."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0:
        return f"X{int(x)}"
    if isinstance(x, str):
        body = x[1:] if x[:1] in ("X", "x") else x
        if body in ("+", "-"):
            return "X" + body
        if body.isascii() and body.isdigit():
            return f"X{int(body)}"
    raise ValueError(f"bad label {x!r}; expected an integer >= 0, 'X<i>', '+' or '-'")


def require_even_m(m: int) -> None:
    """The quotient exists only for even m >= 2 (8 divides delta = 4m)."""
    if m < 2 or m % 2:
        raise UnsupportedCaseError(f"only even m >= 2 is supported, got {m}")


class TypeDRing:
    """Fusion table, grading, dimensions and flip action for even m >= 2.

    Attributes
    ----------
    m, delta, kappa : int
        delta = 4m, kappa = 4m + 2.
    labels : list of str
        ["X0", ..., "X{2m-1}", "X+", "X-"] in index order.
    l : (size, size, size) int array
        Multiplicities: x (x) y = sum_z l[x, y, z] * z.
    sectors : int array
        0 for the untwisted (even) part, 1 for the twisted (odd) part.
    dims : float array
        Quantum dimensions; the split pair carries half the middle one.
    action : int array
        Permutation realizing the order-two symmetry: fixes every X_i and
        exchanges X+ with X-.
    """

    def __init__(self, m: int):
        require_even_m(m)
        self.m = m
        self.delta = 4 * m
        self.kappa = 4 * m + 2
        n_plain = 2 * m
        self.size = n_plain + 2
        self.plus = n_plain
        self.minus = n_plain + 1
        self.labels = [f"X{i}" for i in range(n_plain)] + [PLUS, MINUS]
        self._index = {lab: i for i, lab in enumerate(self.labels)}

        self.sectors = np.array([i % 2 for i in range(n_plain)] + [0, 0])
        self.dims = np.array(
            [quantum_integer(i + 1, self.kappa) for i in range(n_plain)]
            + [quantum_integer(2 * m + 1, self.kappa) / 2.0] * 2
        )
        self.action = np.arange(self.size)
        self.action[self.plus], self.action[self.minus] = self.minus, self.plus

        self.l = self._derive_tensor()
        self._validate()

    def _derive_tensor(self) -> np.ndarray:
        m, n_plain = self.m, 2 * self.m
        l = np.zeros((self.size, self.size, self.size), dtype=np.int64)
        l[0] = np.eye(self.size, dtype=np.int64)

        # Seed row: multiplication by X1.
        r1 = np.zeros((self.size, self.size), dtype=np.int64)
        r1[0, 1] = 1
        for j in range(1, n_plain - 1):
            r1[j, j - 1] = 1
            r1[j, j + 1] = 1
        r1[n_plain - 1, n_plain - 2] = 1
        r1[n_plain - 1, self.plus] = 1
        r1[n_plain - 1, self.minus] = 1
        r1[self.plus, n_plain - 1] = 1
        r1[self.minus, n_plain - 1] = 1
        l[1] = r1

        for i in range(2, n_plain):
            row = l[i - 1] @ r1 - l[i - 2]
            if row.min() < 0:
                bad = np.argwhere(row < 0)[0]
                raise InconsistencyError(
                    f"negative multiplicity deriving X{i} (x) {self.labels[bad[0]]}"
                )
            l[i] = row

        # Products with the split pair: commuted rows plus the seeded squares.
        for y in range(n_plain):
            l[self.plus, y] = l[y, self.plus]
            l[self.minus, y] = l[y, self.minus]
        same = list(range(0, 2 * m - 3, 4))  # X0, X4, ..., X_{2m-4}
        cross = list(range(2, 2 * m - 1, 4))  # X2, X6, ..., X_{2m-2}
        l[self.plus, self.plus, same] = 1
        l[self.plus, self.plus, self.plus] = 1
        l[self.minus, self.minus, same] = 1
        l[self.minus, self.minus, self.minus] = 1
        l[self.plus, self.minus, cross] = 1
        l[self.minus, self.plus, cross] = 1
        return l

    def _validate(self) -> None:
        l = self.l
        if not np.array_equal(l, l.transpose(1, 0, 2)):
            raise InconsistencyError("derived multiplication table is not commutative")
        eye = np.eye(self.size, dtype=np.int64)
        if not np.array_equal(l[0], eye):
            raise InconsistencyError("X0 is not a unit")
        if not np.array_equal(l[:, :, 0], eye):
            raise InconsistencyError("self-duality failed: X0 content of x (x) y is not delta_xy")
        parity_ok = (self.sectors[:, None, None] ^ self.sectors[None, :, None]) == self.sectors[
            None, None, :
        ]
        if np.any(l[~parity_ok]):
            raise InconsistencyError("grading is not additive under multiplication")
        a = self.action
        if not np.array_equal(l[np.ix_(a, a, a)], l):
            raise InconsistencyError("multiplication table is not flip-invariant")

    def index(self, x) -> int:
        """Position in `labels` of a class in any spelling `canonical_label`
        accepts; an int names the class X<int>, so the split pair is only
        reachable as '+'/'-' or 'X+'/'X-'."""
        # canonical labels, the common case on hot paths, skip normalizing
        label = x if isinstance(x, str) and x in self._index else canonical_label(x)
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown label {x!r}; expected one of {self.labels}") from None

    def coeff(self, x, y, z) -> int:
        """Multiplicity of z in x (x) y."""
        return int(self.l[self.index(x), self.index(y), self.index(z)])

    def product(self, x, y) -> dict[str, int]:
        """Nonzero part of x (x) y as a label -> multiplicity mapping."""
        row = self.l[self.index(x), self.index(y)]
        return {self.labels[z]: int(row[z]) for z in np.nonzero(row)[0]}

    def qdim(self, x) -> float:
        return float(self.dims[self.index(x)])

    def sector(self, x) -> int:
        return int(self.sectors[self.index(x)])

    def act(self, x) -> str:
        """Image of a label under the order-two symmetry."""
        return self.labels[self.action[self.index(x)]]

    def combined_tensor(self) -> np.ndarray:
        """Multiplication table on the merged range 0..2m, where index 2m
        stands for the sum X+ + X-.

        The coefficient at output slot 2m is the common multiplicity of X+
        and X-; products of merged inputs must weight the two halves equally
        or the merge is ill-defined.
        """
        m = self.m
        merged = np.zeros((2 * m + 1, self.size))
        merged[: 2 * m, : 2 * m] = np.eye(2 * m)
        merged[2 * m, self.plus] = merged[2 * m, self.minus] = 1
        prod = np.einsum("ax,by,xyz->abz", merged, merged, self.l).astype(np.int64)
        if not np.array_equal(prod[:, :, self.plus], prod[:, :, self.minus]):
            raise InconsistencyError("split-pair multiplicities are unbalanced")
        out = np.zeros((2 * m + 1,) * 3, dtype=np.int64)
        out[:, :, : 2 * m] = prod[:, :, : 2 * m]
        out[:, :, 2 * m] = prod[:, :, self.plus]
        return out
