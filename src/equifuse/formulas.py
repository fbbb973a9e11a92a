"""Verlinde-formula evaluators for the extended algebra and the battery of
numerical identity checks behind `verify_all`.

Every evaluator is checked against the integer fusion tables, which act as
the oracle: a coefficient counts as reproduced only if it both rounds to the
oracle integer and sits within tolerance of it.

Every check follows one rule, written once in `_check`: it reports the
largest absolute residual over all its parts and passes iff that is below
the tolerance.  A NaN anywhere makes the residual NaN, so the check FAILs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arith import EPS, require_tolerance
from .extended import (
    CHANGE_OF_BASIS,
    ExtData,
    ExtVector,
    alam,
    exceptional_cross,
    exceptional_diag,
    exceptional_diag_via_gauss,
    exceptional_diag_via_twists,
    lam,
)
from .ring import TypeDRing, push_forward
from .sl2 import Sl2Data


@dataclass
class Check:
    """Outcome of one verification step."""

    name: str
    params: str
    max_residual: float
    passed: bool


@dataclass
class VerificationReport:
    m: int
    kappa: int
    tolerance: float
    checks: list[Check] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


# -- evaluators -------------------------------------------------------------
#
# Each formula is written once, over positions in the s-matrix blocks.  The
# positions may be index arrays that broadcast, so the same expression gives
# one coefficient's summands for a point evaluator and a whole block of them
# (summands on the last axis) for a check.


def _ee_terms(ext: ExtData, px, py, pz) -> np.ndarray:
    s = ext.s_ee
    return s[px] * s[py] * s[pz] / s[0]


def _e_terms(ext: ExtData, pi, pj, pk) -> np.ndarray:
    m = ext.m
    return ext.s_ee[pi, :m] * ext.s_ea[pj] * ext.s_ea[pk] / ext.s_ee[0, :m]


def _a_terms(ext: ExtData, pi, pj, pk) -> np.ndarray:
    m = ext.m
    return ext.s_ea[pi] * ext.s_ea[pj] * ext.s_ee[pk, :m] / ext.s_ee[0, :m]


def ee_verlinde_coeff(ext: ExtData, x, y, z) -> float:
    """Fusion coefficient of z in x (x) y for untwisted identity-block
    labels, via the unitary block s-matrix: one summand per basis column."""
    px, py, pz = _block_pos(ext, x, 0), _block_pos(ext, y, 0), _block_pos(ext, z, 0)
    return float(np.sum(_ee_terms(ext, px, py, pz)))


def ext_coeff_e_terms(ext: ExtData, i, j, k) -> np.ndarray:
    """Summands of the transfer formula for i in the untwisted identity
    block and j, k odd; columns run over the flip-fixed even classes."""
    return _e_terms(ext, _block_pos(ext, i, 0), _block_pos(ext, j, 1), _block_pos(ext, k, 1))


def ext_coeff_e(ext: ExtData, i, j, k) -> float:
    """Fusion coefficient of k in i (x) j where i sits in the untwisted
    identity block and j, k share a sector.  For even j, k this is the plain
    block Verlinde formula; for odd j, k the sum runs over the flip-fixed
    even classes and uses the flipped-basis pairings."""
    sj, sk = (ext.ring.sectors[ext.ring.index(t)] for t in (j, k))
    if sj != sk:
        raise ValueError(f"j and k must share a sector, got {j!r} and {k!r}")
    if sj == 0:
        return ee_verlinde_coeff(ext, i, j, k)
    return float(np.sum(ext_coeff_e_terms(ext, i, j, k)))


def ext_coeff_a_terms(ext: ExtData, i, j, k) -> np.ndarray:
    """Summands for i, j odd and k in the untwisted identity block."""
    return _a_terms(ext, _block_pos(ext, i, 1), _block_pos(ext, j, 1), _block_pos(ext, k, 0))


def ext_coeff_a(ext: ExtData, i, j, k) -> float:
    """Fusion coefficient of k in i (x) j for odd i, j: the sum over the
    flip-fixed even classes with two flipped-basis pairings."""
    return float(np.sum(ext_coeff_a_terms(ext, i, j, k)))


def _block_pos(ext: ExtData, x, sector: int) -> int:
    """Row of class x in the s-block of `sector`: 0 for s_ee rows, 1 for s_ea rows."""
    x_sector, row = ext.block_rows[ext.ring.index(x)]
    if x_sector != sector:
        kind = "an odd-sector" if sector else "an untwisted identity-block"
        raise ValueError(f"{x!r} is not {kind} label")
    return row


# -- the residual rule and the bodies shared by twin checks -------------------


def _check(name: str, params: str, tol: float, *residuals) -> Check:
    """The one place residuals become a pass or a fail: the largest absolute
    entry over all parts, reduced with `np.max` so that a NaN propagates and
    FAILs.  A real part is reduced through its max and min, which makes no
    full-size `np.abs` copy; the outer `abs` turns an all-zero -0.0 into 0.0."""
    peaks = [np.max(np.abs(r)) if np.iscomplexobj(r) else np.max([np.max(r), -np.min(r)])
             for r in residuals]
    res = abs(float(np.max(peaks)))
    return Check(name, params, res, bool(res < tol))


def _unitarity(s: np.ndarray) -> np.ndarray:
    return s @ s.T - np.eye(len(s))


def _associativity(t: np.ndarray) -> np.ndarray:
    """(x y) z - x (y z) for a fusion tensor t[x, y, z], as a dense rank-4
    float64 array, from two BLAS matrix products.

    With rows = t viewed as an (a*a, a) matrix, the left side is
    rows @ t[r, (k, l)], and the right side sum_r t[j, k, r] t[i, r, l] is
    the stacked product rows @ t[i], which already lies in [i, (j, k), l]
    order.  The entries are integers, so every partial sum is an integer of
    size at most a * max|t|^2; below 2^53 the products are exact and equal
    the integer contraction entry for entry.  Larger tables raise ValueError.
    """
    a = len(t)
    if a * int(np.max(np.abs(t))) ** 2 >= 2**53:
        raise ValueError(f"fusion tensor too large for exact float64 products (size {a})")
    f = t.astype(np.float64)
    rows = f.reshape(a * a, a)
    lhs = (rows @ f.reshape(a, a * a)).reshape(a, a, a, a)
    lhs -= np.matmul(rows, f).reshape(a, a, a, a)
    return lhs


# -- identity checks on the sl2 side ----------------------------------------


def check_d_unitary(d: Sl2Data, tol: float) -> Check:
    return _check("d-s-unitary", f"kappa={d.kappa}", tol, _unitarity(d.s))


def check_d_symmetric(d: Sl2Data, tol: float) -> Check:
    return _check("d-s-symmetric", f"kappa={d.kappa}", tol, d.s - d.s.T)


def check_d_verlinde(d: Sl2Data, tol: float) -> Check:
    """Verlinde sums against the closed-form fusion tensor, all triples."""
    return _check("d-verlinde-closed-form", f"kappa={d.kappa}", tol, d.verlinde_tensor() - d.n)


def check_d_modular_relation(d: Sl2Data, tol: float) -> Check:
    """(s t)^3 = (p+/D) s^2 with t the diagonal of twists."""
    st = d.s.astype(complex) * d.twists[None, :]
    lhs = st @ st @ st
    rhs = (d.p_plus / d.big_d) * (d.s @ d.s)
    return _check("d-modular-relation", f"kappa={d.kappa}", tol, lhs - rhs)


def check_d_s_from_twists(d: Sl2Data, tol: float) -> Check:
    """The ribbon route to every s-entry against the sine closed form."""
    idx = np.arange(d.delta + 1)
    return _check("d-s-via-twists", f"kappa={d.kappa}", tol,
                  d.s_from_twists(idx[:, None], idx) - d.s)


def check_d_folds(d: Sl2Data, tol: float) -> list[Check]:
    """Reflection symmetries of the sine matrix: rows k and delta-k cancel
    on odd columns, agree on even columns, and the middle row vanishes on
    odd columns."""
    s, delta = d.s, d.delta
    odd = np.arange(1, delta + 1, 2)
    even = np.arange(0, delta + 1, 2)
    params = f"kappa={d.kappa}"
    return [
        _check("d-fold-odd-columns", params, tol, s[:, odd] + s[::-1][:, odd]),
        _check("d-fold-even-columns", params, tol, s[:, even] - s[::-1][:, even]),
        _check("d-fold-middle-row", params, tol, s[delta // 2, odd]),
    ]


def check_d_n_associative(d: Sl2Data, tol: float) -> Check:
    return _check("d-n-associative", f"kappa={d.kappa}", tol, _associativity(d.n))


# -- identity checks on the ring side ----------------------------------------


def check_ring_associative(ring: TypeDRing, tol: float) -> Check:
    return _check("ring-associative", f"m={ring.m}", tol, _associativity(ring.l))


def check_ring_dimension_hom(ring: TypeDRing, tol: float) -> Check:
    """d(x) d(y) = sum_z L[x,y,z] d(z) for all pairs."""
    return _check("ring-dimension-hom", f"m={ring.m}", tol,
                  np.outer(ring.dims, ring.dims) - ring.l @ ring.dims)


def check_ring_flip_invariant(ring: TypeDRing, tol: float) -> Check:
    a = ring.action
    return _check("ring-flip-invariant", f"m={ring.m}", tol, ring.l[np.ix_(a, a, a)] - ring.l)


def check_ring_unit_dual(ring: TypeDRing, tol: float) -> Check:
    eye = np.eye(ring.size, dtype=np.int64)
    return _check("ring-unit-dual", f"m={ring.m}", tol, ring.l[0] - eye, ring.l[:, :, 0] - eye)


def check_coefficient_folding(ring: TypeDRing, d: Sl2Data, tol: float) -> Check:
    """Quotient multiplicities on the merged range against the sl2 ones
    pushed along the fold k -> min(k, delta-k): L = N[k] + N[delta-k] away
    from the middle slot, L = N[2m] at it, which is its own mirror.
    Integer data on both sides, so the residual should be exactly zero."""
    merged = ring.combined_tensor()
    n = len(merged)
    expected = push_forward(d.n[:n, :n], ring.fold, axis=2)
    return _check("ring-coefficient-folding", f"m={ring.m}", tol, merged - expected)


# -- identity checks on the extended side ------------------------------------


def check_ext_unitary(ext: ExtData, tol: float) -> list[Check]:
    ee, params = ext.s_ee, f"m={ext.m}"
    return [
        _check("c-see-unitary", params, tol, _unitarity(ee)),
        _check("c-see-symmetric", params, tol, ee - ee.T),
        _check("c-sea-unitary", params, tol, _unitarity(ext.s_ea)),
    ]


def check_exceptional_routes(ext: ExtData, tol: float) -> list[Check]:
    """Three independent evaluations of the split-pair diagonal entry, and
    the constraint that diagonal plus cross reproduce the sl2 middle entry."""
    m, params = ext.m, f"m={ext.m}"
    closed = exceptional_diag(m)
    middle = ext.ring.descent[ext.ring.plus]
    return [
        _check("exc-twist-route", params, tol, exceptional_diag_via_twists(ext) - closed),
        _check("exc-gauss-route", params, tol, exceptional_diag_via_gauss(m) - closed),
        _check("exc-pair-sum", params, tol,
               closed + exceptional_cross(m) - ext.d.s[middle, middle]),
    ]


def _oracle_residual(values: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """Residuals against the oracle integers.  A value that rounds to a
    different integer is at least 1/2 away, so a wrong coefficient can never
    sneak under a tolerance; the floor keeps that explicit."""
    residual = np.abs(values - oracle)
    wrong = np.rint(values) != oracle
    return np.where(wrong, np.maximum(residual, 0.5), residual)


def _oracle_check(name: str, ext: ExtData, tol: float, terms, classes) -> Check:
    """A block formula summed over every triple of the given ring classes
    (one class list per slot, in block-position order) against the ring
    table on the same triples."""
    values = terms(ext, *np.ix_(*(range(len(c)) for c in classes))).sum(axis=-1)
    oracle = ext.ring.l[np.ix_(*classes)]
    return _check(name, f"m={ext.m}", tol, _oracle_residual(values, oracle))


def check_ee_verlinde(ext: ExtData, tol: float) -> Check:
    """Block Verlinde formula against the ring table for every triple of
    untwisted identity-block labels."""
    e = ext.e_classes
    return _oracle_check("c-ee-verlinde", ext, tol, _ee_terms, (e, e, e))


def check_ext_even(ext: ExtData, tol: float) -> Check:
    """Transfer formula with an identity-block left factor against the ring
    table, for every odd pair j, k."""
    odd = ext.odd_classes
    return _oracle_check("c-even-formula", ext, tol, _e_terms, (ext.e_classes, odd, odd))


def check_ext_odd(ext: ExtData, tol: float) -> Check:
    """Transfer formula with two odd factors against the ring table, for
    every identity-block output."""
    odd = ext.odd_classes
    return _oracle_check("c-odd-formula", ext, tol, _a_terms, (odd, odd, ext.e_classes))


# -- diagonalization and the folded-sum identity ------------------------------


def diagonalization_matrices(ext: ExtData, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the diagonalized multiplication identity for an odd
    class i, as matrices from the odd-sector basis to the pairwise-ordered
    untwisted-grading basis (lambda_0, flipped_0, lambda_2, ..., X+, X-).

    Left side: the change of basis applied to s of left multiplication by
    lambda_i (multiplication read off the ring table).  Right side: the
    diagonal operator with eigenvalues -+ s_ea[i,k]/s_ee[0,k] on the two
    slots of each pair and zero on the split pair (which neither side
    reaches), applied after the change of basis.
    """
    m = ext.m
    i_pos = _block_pos(ext, i, 1)
    dim = 2 * m + 2  # m pairs then the split pair

    mix = np.eye(dim)
    mix[: 2 * m, : 2 * m] = np.kron(np.eye(m), CHANGE_OF_BASIS)

    # row b: s of the image of the b-th odd basis element under multiplication
    # by lambda_i, as a stack of matrix-vector products (a single matrix
    # product would round differently from one product per image)
    images = ext.ring.l[ext.ring.index(i)][np.ix_(ext.odd_classes, ext.e_classes)]
    s_images = (ext.s_ee @ images[..., None])[..., 0]
    lhs_cols = np.zeros((dim, m))
    lhs_cols[0 : 2 * m : 2] = s_images[:, :m].T  # lambda slots
    lhs_cols[2 * m :] = s_images[:, m:].T  # the split pair
    lhs = mix @ lhs_cols

    rhs_cols = np.zeros((dim, m))
    rhs_cols[1 : 2 * m + 1 : 2, :] = ext.s_ea.T  # flipped slots
    eig = ext.s_ea[i_pos] / ext.s_ee[0, :m]
    diag = np.zeros(dim)
    diag[0 : 2 * m : 2] = -eig
    diag[1 : 2 * m + 1 : 2] = eig
    rhs = diag[:, None] * (mix @ rhs_cols)
    return lhs, rhs


def check_diagonalization(ext: ExtData, tol: float) -> list[Check]:
    out = []
    for i in ext.odd_classes:
        lhs, rhs = diagonalization_matrices(ext, i)
        out.append(_check("c-diagonalization", f"m={ext.m} i={i}", tol, lhs - rhs))
    out.append(check_conv_eigenbasis(ext, tol))
    return out


def check_conv_eigenbasis(ext: ExtData, tol: float) -> Check:
    """Convolution relations in the eigenbasis: the two images of each pair
    convolve to -+ 1/dim times themselves and annihilate each other.  The
    arithmetic only halves and doubles, so the residual should be exactly
    zero."""
    parts = []
    for cls in ext.fixed_classes:
        inv_dim = 1.0 / ext.ring.dims[cls]
        alpha = ext.change_basis(lam(cls))
        beta = ext.change_basis(alam(cls))
        parts += [
            ext.convolve(alpha, alpha).distance(-inv_dim * alpha),
            ext.convolve(beta, beta).distance(inv_dim * beta),
            ext.convolve(alpha, beta).distance(ExtVector()),
            ext.convolve(beta, alpha).distance(ExtVector()),
        ]
    return _check("c-conv-eigenbasis", f"m={ext.m}", tol, *parts)


def folded_sum_sides(ext: ExtData, i: int, j: int, k: int) -> tuple[float, float]:
    """Both evaluations of the sum-transfer identity for indices in the
    merged range 0..2m (i even).

    On the sl2 side the output column is folded (k plus delta-k) away from
    the middle index and taken once at it.  On the quotient side the merged
    index 2m means the whole split pair on input slots but a single split
    element on the output slot; with the pair also merged there, the left
    side would count both halves and come out exactly twice the right.
    """
    if i % 2:
        raise ValueError(f"first index must be even, got {i}")
    for t in (i, j, k):
        if not 0 <= t <= 2 * ext.m:
            raise ValueError(f"index {t} outside the merged range 0..{2 * ext.m}")
    lhs, rhs = _folded_sum_at(ext, i, j, np.asarray(k), j % 2)
    return float(lhs), float(rhs)


def _folded_sum_at(ext: ExtData, i, j, k: np.ndarray, parity: int):
    """Both sides of the sum-transfer identity at merged-range indices that
    broadcast: i even, j of the given parity, k any."""
    m, s = ext.m, ext.d.s
    rhs = np.sum(s[i] * s[j] * ext.s_folded[k] / s[0], axis=-1)

    # pairings (s lambda_t, .) of even t over the identity-block basis come
    # from s_ee_merged, with the split pair merged at t = 2m
    merged = ext.s_ee_merged
    if parity:  # odd sector: columns are the flip-fixed even classes
        cols, rows_j, rows_k = m, ext.s_ea, ext.s_ea
    else:  # identity block: columns are its full basis; a single split element at k = 2m
        cols, rows_j, rows_k = m + 2, merged, ext.s_ee
    # (k - parity) // 2 is the row of k in its sector; for k of the other
    # parity it is merely a valid row, masked to zero
    rk = np.where((k % 2 == parity)[..., None], rows_k[(k - parity) // 2], 0.0)
    lhs = np.sum(merged[i // 2, :cols] * rows_j[j // 2] * rk / ext.s_ee[0, :cols], axis=-1)
    return lhs, rhs


def check_folded_sum(ext: ExtData, tol: float) -> Check:
    m = ext.m
    parts = []
    for parity in (0, 1):  # the branches sum over different column sets
        i, j, k = np.ix_(range(0, 2 * m + 1, 2), range(parity, 2 * m + 1, 2), range(2 * m + 1))
        lhs, rhs = _folded_sum_at(ext, i, j, k, parity)
        parts.append(lhs - rhs)
    return _check("c-folded-sum", f"m={m}", tol, *parts)


# -- the full battery ---------------------------------------------------------


def verify_all(m: int, tol: float = EPS) -> VerificationReport:
    """Run every identity check for one m and aggregate the outcomes.

    Raises ValueError for a tolerance that is not a finite positive number
    and UnsupportedCaseError for odd m (from building the ring); individual
    check failures never raise, they are recorded in the report.  The report
    is sorted by check name then parameters so repeated runs compare byte
    for byte.
    """
    require_tolerance(tol)
    ext = ExtData.build(m)
    d, ring = ext.d, ext.ring
    report = VerificationReport(m=m, kappa=ext.kappa, tolerance=tol)
    checks = report.checks

    checks.append(check_d_unitary(d, tol))
    checks.append(check_d_symmetric(d, tol))
    checks.append(check_d_verlinde(d, tol))
    checks.append(check_d_modular_relation(d, tol))
    checks.append(check_d_s_from_twists(d, tol))
    checks.extend(check_d_folds(d, tol))
    checks.append(check_d_n_associative(d, tol))

    checks.append(check_coefficient_folding(ring, d, tol))
    checks.append(check_ring_associative(ring, tol))
    checks.append(check_ring_dimension_hom(ring, tol))
    checks.append(check_ring_flip_invariant(ring, tol))
    checks.append(check_ring_unit_dual(ring, tol))

    checks.extend(check_ext_unitary(ext, tol))
    checks.extend(check_exceptional_routes(ext, tol))
    checks.append(check_ee_verlinde(ext, tol))
    checks.append(check_ext_even(ext, tol))
    checks.append(check_ext_odd(ext, tol))
    checks.extend(check_diagonalization(ext, tol))
    checks.append(check_folded_sum(ext, tol))

    checks.sort(key=lambda c: (c.name, c.params))
    return report
