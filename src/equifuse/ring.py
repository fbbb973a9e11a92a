"""Integer fusion ring of the type-D quotient of quantum sl2 at delta = 4m.

Simple objects are X0..X{2m-1} together with the split pair X+, X- (the two
halves into which the middle sl2 object breaks).  Only even m is supported;
for odd m the pair is not self-dual and the seed table below does not apply.

`TypeDRing.descent` names the sl2 object each class descends from (X_i from
i, the split pair from the middle object 2m); the grading, the dimensions
and the merged table `combined_tensor` are read off it.

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


def push_forward(a: np.ndarray, to: np.ndarray, axis: int = 0) -> np.ndarray:
    """out[t] = sum of the slices a[k] along `axis` with to[k] = t, added in
    increasing k, so a lone slice is copied exactly."""
    a = a.swapaxes(0, axis)
    out = np.zeros((to.max() + 1,) + a.shape[1:], dtype=a.dtype)
    for k, t in enumerate(to.tolist()):
        out[t] += a[k]
    return out.swapaxes(0, axis)


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
    descent : int array
        Parent sl2 object of each class: [0, 1, ..., 2m-1, 2m, 2m].
    fold : int array
        Merged class min(k, delta - k) of each sl2 object k = 0..delta.
    sectors : int array
        Parity of the parent: 0 untwisted (even), 1 twisted (odd).
    shares : int array
        Number of classes sharing each class's parent: 2 on the split pair.
    dims : float array
        Quantum dimension of the parent over the share.
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

        self.descent = np.array([*range(n_plain + 1), n_plain])  # X+ and X- share the middle
        self.fold = np.minimum(np.arange(self.delta + 1), self.delta - np.arange(self.delta + 1))
        self.sectors = self.descent % 2
        self.shares = np.bincount(self.descent)[self.descent]
        self.dims = np.array([quantum_integer(k + 1, self.kappa) for k in self.descent.tolist()])
        self.dims /= self.shares
        self.action = np.arange(self.size)
        self.action[self.plus], self.action[self.minus] = self.minus, self.plus

        self.l = self._derive_tensor()
        self._validate()

    def _derive_tensor(self) -> np.ndarray:
        m, n_plain = self.m, 2 * self.m
        l = np.zeros((self.size, self.size, self.size), dtype=np.int64)
        l[0] = np.eye(self.size, dtype=np.int64)

        # Seed row: multiplication by X1 moves the parent one step up or down,
        # so X1 (x) X_{2m-1} contains both halves of the split pair.
        r1 = (np.abs(self.descent[:, None] - self.descent) == 1).astype(np.int64)
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
        l[self.plus :, :n_plain] = l[:n_plain, self.plus :].swapaxes(0, 1)
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

    def combined_tensor(self) -> np.ndarray:
        """Multiplication table on the merged range 0..2m, where index 2m
        stands for the sum X+ + X-: the table pushed along `descent` on both
        input slots.

        The coefficient at output slot 2m is the common multiplicity of X+
        and X-; products of merged inputs must weight the two halves equally
        or the merge is ill-defined.
        """
        prod = push_forward(push_forward(self.l, self.descent), self.descent, axis=1)
        if not np.array_equal(prod[:, :, self.plus], prod[:, :, self.minus]):
            raise InconsistencyError("split-pair multiplicities are unbalanced")
        return prod[:, :, : self.plus + 1]  # X+ stands for the merged output slot
