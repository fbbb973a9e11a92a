"""Graded basis of the extended Verlinde algebra of the type-D quotient:
tensor and convolution products, bilinear form, the twist operator, the
convolution-diagonalizing change of basis, and the s-matrix blocks.

Basis bookkeeping.  A basis element is a pair (class, flipped).  Unflipped
elements are the identity morphisms lambda; flipped elements are the basis
of the part twisted by the order-two symmetry and exist only for classes the
symmetry fixes, i.e. the plain X_i (the split pair X+/X- is exchanged).  The
flipped basis over the even classes is normalized so that convolving such an
element with itself gives 1/dim times the unflipped one; its s-pairings with
the odd classes are pinned to twice the corresponding sl2 entries.  The
residual sign freedom of each flipped element is harmless: every formula
evaluated here is quadratic in those pairings.

Per-class data is read off the ring's `descent` map once per `ExtData`:
the twists `thetas` (the split pair shares the middle one) and the basis map
`basis_positions` from every valid graded label to its ring position, which
vector operations validate their operands against.

The change of basis to the convolution eigenbasis is the single 2x2 block
`CHANGE_OF_BASIS`, acting on each (lambda_i, flipped_i) pair; its inverse is
twice itself, and `diagonalization_matrices` in `formulas` applies the same
block to each pair.

Supported numerically are the blocks graded (e,e), (a,e) and (e,a) in
(group, sector) order.  Operations that would need data on the remaining
block, or structure constants of the twisted tensor product, raise
UnsupportedCaseError instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import EPS, gauss_sum_reciprocal
from .errors import ConstructionError, InconsistencyError, UnsupportedCaseError
from .ring import TypeDRing, canonical_label, push_forward, require_even_m
from .sl2 import Sl2Data

_PRUNE = 1e-15  # coefficient noise floor for ExtVector storage

CHANGE_OF_BASIS = np.array([[-0.5, 0.5], [0.5, 0.5]])
"""Change to the convolution eigenbasis on one (lambda_i, flipped_i) pair,
acting on coefficient columns ordered (unflipped, flipped).  It squares to
half the identity, so its inverse is exactly 2 * CHANGE_OF_BASIS."""


@dataclass(frozen=True)
class GradedLabel:
    """Name of a graded basis element: a class label plus the flip flag."""

    cls: str
    flipped: bool = False

    def token(self) -> str:
        prefix = "al" if self.flipped else "l"
        return f"{prefix}:{self.cls.removeprefix('X')}"


def lam(x) -> "ExtVector":
    """Basis vector lambda_x (unflipped)."""
    return ExtVector({GradedLabel(canonical_label(x)): 1.0})


def alam(x) -> "ExtVector":
    """Basis vector of the flipped partner of class x."""
    return ExtVector({GradedLabel(canonical_label(x), flipped=True): 1.0})


class ExtVector:
    """Finite complex linear combination of graded basis elements; every key
    must be a `GradedLabel`."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms: dict[GradedLabel, complex] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for label, c in items:
                if not isinstance(label, GradedLabel):
                    raise ValueError(f"vector key {label!r} is not a GradedLabel")
                self._accumulate(label, c)

    def _accumulate(self, label: GradedLabel, c: complex) -> None:
        value = self._terms.get(label, 0j) + complex(c)
        if abs(value) <= _PRUNE:
            self._terms.pop(label, None)
        else:
            self._terms[label] = value

    def coeff(self, label: GradedLabel) -> complex:
        return self._terms.get(label, 0j)

    def items(self):
        return self._terms.items()

    def labels(self):
        return self._terms.keys()

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "ExtVector") -> "ExtVector":
        return ExtVector([*self.items(), *other.items()])

    def __sub__(self, other: "ExtVector") -> "ExtVector":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "ExtVector":
        return ExtVector({label: scalar * c for label, c in self._terms.items()})

    def __neg__(self) -> "ExtVector":
        return (-1.0) * self

    def distance(self, other: "ExtVector") -> float:
        """Largest coefficient gap to another vector; NaN if any gap is NaN."""
        keys = self._terms.keys() | other._terms.keys()
        return float(np.max([abs(self.coeff(k) - other.coeff(k)) for k in keys], initial=0.0))

    def isclose(self, other: "ExtVector", tol: float = EPS) -> bool:
        return self.distance(other) < tol

    def __repr__(self) -> str:
        parts = [f"{c:.6g}*{label.token()}" for label, c in sorted(
            self._terms.items(), key=lambda kv: kv[0].token())]
        return "ExtVector(" + " + ".join(parts) + ")" if parts else "ExtVector(0)"


def _split_pair_entry(m: int, sign: float) -> float:
    require_even_m(m)
    return 0.5 * (math.sqrt(2.0 / (4 * m + 2)) + sign * (-1.0) ** (m // 2))


def exceptional_diag(m: int) -> float:
    """Diagonal s-entry on the split pair, (s x+, x+) = (s x-, x-):
    (sqrt(2/kappa) + (-1)^(m/2)) / 2 with kappa = 4m + 2."""
    return _split_pair_entry(m, 1.0)


def exceptional_cross(m: int) -> float:
    """Off-diagonal s-entry on the split pair, (s x+, x-):
    (sqrt(2/kappa) - (-1)^(m/2)) / 2.  Together with the diagonal entry it
    sums to the sl2 entry s[2m, 2m] the pair descends from."""
    return _split_pair_entry(m, -1.0)


def unitarity_residual(s: np.ndarray) -> np.ndarray:
    """s s^T minus the identity: zero iff the real square matrix s is unitary."""
    return s @ s.T - np.eye(len(s))


def exceptional_diag_via_twists(ext: "ExtData") -> float:
    """The diagonal split-pair entry recomputed from ribbon data:
    theta_{2m}^(-2) * sum of theta * dim over the X+ (x) X+ decomposition,
    normalized by 1/D of the quotient.  Must be real."""
    ring = ext.ring
    total = ring.l[ring.plus, ring.plus] @ (ext.thetas * ring.dims)
    value = total / ext.thetas[ring.plus] ** 2 / ext.big_d_c
    if abs(value.imag) >= EPS:
        raise InconsistencyError(f"twist-route entry is not real: {value!r}")
    return value.real


def exceptional_diag_via_gauss(m: int) -> float:
    """The diagonal split-pair entry a third way: the alternating theta sum
    collapses to the quadratic Gauss sum S(8, kappa), which reciprocity
    evaluates from the eight-term S(kappa, 8).  Must be real."""
    require_even_m(m)
    kappa = 4 * m + 2
    s8k = gauss_sum_reciprocal(8, kappa)
    unnormalized = (-1.0) ** m / (4.0 * math.sin(math.pi / kappa)) * (1.0 + 0.5 * s8k)
    value = unnormalized * 2.0 * math.sqrt(2.0 / kappa) * math.sin(math.pi / kappa)
    if abs(value.imag) >= EPS:
        raise InconsistencyError(f"Gauss-route entry is not real: {value!r}")
    return value.real


class ExtData:
    """s-matrix blocks and normalization of the extended algebra.

    Attributes
    ----------
    ring : TypeDRing
    d : Sl2Data
        The sl2 data at the same kappa.
    e_classes, e_labels : list of int, list of str
        Ring positions and labels of the untwisted identity-block basis, in
        its order: X0, X2, ..., X+, X-.
    fixed_classes : list of int
        Even classes fixed by the flip, i.e. those carrying a flipped
        partner: 0, 2, ..., 2m-2.
    odd_classes : list of int
        1, 3, ..., 2m-1; the basis order of the odd-graded block.
    block_rows : list of (int, int)
        (sector, row) of each class in ring order: a row of s_ee in sector 0
        (e_classes order), of s_ea in sector 1 (odd_classes order).
    s_ee : (m+2, m+2) float array
        Pairings (s lambda_x, lambda_y): twice the sl2 entry between even
        classes, the sl2 middle row against the split pair, and the
        closed-form entries on the pair itself.  Symmetric; construction
        raises unless its `unitarity_residual`, the array `c-see-unitary`
        reports, is below EPS.
    s_ea : (m, m) float array
        Pairings (s lambda_j, flipped_p) for odd j against fixed even p,
        equal to twice the sl2 entry.
    s_ee_merged, s_folded : float arrays
        Rows on the merged range: s_ee rows of the even classes with the
        X+ and X- rows summed, and sl2 s rows pushed along the ring's `fold`.
    thetas : complex array
        Ribbon scalar of each class, the twist of its sl2 parent.
    basis_positions : dict
        Ring position of every valid GradedLabel: every class unflipped, and
        flipped where the flip fixes the class.
    big_d_c : float
        Normalization of the quotient: half the sl2 one.
    """

    def __init__(self, ring: TypeDRing, d: Sl2Data):
        if ring.kappa != d.kappa:
            raise ValueError(f"kappa mismatch: ring has {ring.kappa}, sl2 data has {d.kappa}")
        self.ring = ring
        self.d = d
        self.m = m = ring.m
        self.kappa = ring.kappa
        self.fixed_classes = list(range(0, 2 * m, 2))
        self.odd_classes = list(range(1, 2 * m, 2))
        self.e_classes = self.fixed_classes + [ring.plus, ring.minus]
        self.e_labels = [ring.labels[x] for x in self.e_classes]
        blocks = (self.e_classes, self.odd_classes)  # sectors 0 and 1
        rows = {x: (sector, row) for sector, b in enumerate(blocks) for row, x in enumerate(b)}
        self.block_rows = [rows[x] for x in range(ring.size)]

        # twice the sl2 entry of the parents, split evenly among the classes
        # sharing a parent; the closed forms then fix the pair's own block
        parents, shares = ring.descent[self.e_classes], ring.shares[self.e_classes]
        ee = 2.0 * d.s[np.ix_(parents, parents)] / np.outer(shares, shares)
        ee[m:, m:] = [[exceptional_diag(m), exceptional_cross(m)],
                      [exceptional_cross(m), exceptional_diag(m)]]
        self.s_ee = ee
        self.s_ea = 2.0 * d.s[np.ix_(self.odd_classes, self.fixed_classes)]
        self.s_ee_merged = push_forward(ee, parents // 2)
        self.s_folded = push_forward(d.s, ring.fold)
        self.thetas = d.twists[ring.descent]
        self.basis_positions = {GradedLabel(lab): x for x, lab in enumerate(ring.labels)}
        self.basis_positions.update(
            {GradedLabel(ring.labels[x], flipped=True): x
             for x in np.flatnonzero(ring.action == np.arange(ring.size)).tolist()}
        )
        self.big_d_c = d.big_d / 2.0

        err = np.max(np.abs(unitarity_residual(ee)))
        if err >= EPS:
            raise ConstructionError(f"assembled block is not unitary (residual {err:.3e})")

    @classmethod
    def build(cls, m: int) -> "ExtData":
        ring = TypeDRing(m)
        return cls(ring, Sl2Data(ring.kappa))

    def _terms(self, x: ExtVector, untwisted: bool = False) -> list:
        """(label, class position, coefficient) for each term of x, every
        label validated through `basis_positions`; with `untwisted`, terms
        graded by the twisted sector are rejected as well."""
        terms = []
        for label, c in x.items():
            position = self.basis_positions.get(label)
            if position is None:
                if GradedLabel(label.cls) in self.basis_positions:
                    # the flip exchanges the split pair, so X+/X- have no flipped partner
                    raise UnsupportedCaseError(f"no flipped basis element for class {label.cls}")
                raise ValueError(f"unknown class {label.cls!r}; expected one of {self.ring.labels}")
            if untwisted and self.ring.sectors[position]:
                raise UnsupportedCaseError(
                    f"{label.token()} sits in the twisted grading; operation not defined there"
                )
            terms.append((label, position, c))
        return terms

    # -- algebra operations ------------------------------------------------

    def tensor(self, x: ExtVector, y: ExtVector) -> ExtVector:
        """Tensor product.  Mixed flip components multiply to zero; a product
        of two flipped elements needs twisted structure constants and is
        rejected."""
        x_terms, y_terms = self._terms(x), self._terms(y)
        xs, ys = ([(p, c) for label, p, c in t if not label.flipped] for t in (x_terms, y_terms))
        if len(xs) < len(x_terms) and len(ys) < len(y_terms):
            raise UnsupportedCaseError(
                "tensor product of two flipped elements is outside numeric scope"
            )
        if not (xs and ys):
            return ExtVector()
        (px, cx), (py, cy) = zip(*xs), zip(*ys)
        ring = self.ring
        out = np.einsum("a,b,abz->z", np.array(cx, dtype=complex), np.array(cy, dtype=complex),
                        ring.l[np.ix_(px, py)])
        return ExtVector({GradedLabel(ring.labels[z]): out[z] for z in np.flatnonzero(out)})

    def convolve(self, x: ExtVector, y: ExtVector) -> ExtVector:
        """Convolution product on the untwisted grading.  Distinct classes
        annihilate; matching ones compose with the 1/dim normalization, and
        the flip flags add."""
        x_terms = self._terms(x, untwisted=True)
        y_by_class: dict[int, list] = {}
        for label, position, c in self._terms(y, untwisted=True):
            y_by_class.setdefault(position, []).append((label.flipped, c))
        dims = self.ring.dims
        return ExtVector([
            (GradedLabel(lx.cls, lx.flipped != y_flipped), cx * cy / float(dims[position]))
            for lx, position, cx in x_terms
            for y_flipped, cy in y_by_class.get(position, ())
        ])

    def change_basis(self, x: ExtVector) -> ExtVector:
        """Change to the convolution eigenbasis: apply `CHANGE_OF_BASIS` on
        each (lambda_i, flipped_i) pair; classes without a flipped partner
        are fixed.  Applying it twice halves a paired vector."""
        return self._apply_pair_block(x, CHANGE_OF_BASIS)

    def change_basis_inverse(self, x: ExtVector) -> ExtVector:
        """Inverse of `change_basis`."""
        return self._apply_pair_block(x, 2.0 * CHANGE_OF_BASIS)

    def _apply_pair_block(self, x: ExtVector, block: np.ndarray) -> ExtVector:
        """Apply a 2x2 block to the (unflipped, flipped) coefficients of
        each paired class; the split pair passes through."""
        block = block.tolist()
        action = self.ring.action
        out = []
        for label, position, c in self._terms(x, untwisted=True):
            if action[position] != position:  # the flip moves the class: no partner
                out.append((label, c))
                continue
            column = int(label.flipped)
            out += [(GradedLabel(label.cls, flipped), block[row][column] * c)
                    for row, flipped in enumerate((False, True))]
        return ExtVector(out)

    def twist_op(self, x: ExtVector) -> ExtVector:
        """Multiply each coefficient by the ribbon scalar of its class.
        Elements graded by the odd sector would need a scalar the chosen
        basis never fixes, so they are rejected."""
        return ExtVector([
            (label, c * self.thetas[position])
            for label, position, c in self._terms(x, untwisted=True)
        ])

    def pair(self, x: ExtVector, y: ExtVector) -> complex:
        """Symmetric bilinear form; the chosen basis is orthonormal and
        distinct graded components pair to zero."""
        x_terms = self._terms(x)
        self._terms(y)  # validates y after x, so x decides which error is raised
        return sum((c * y.coeff(label) for label, _, c in x_terms), start=0j)
