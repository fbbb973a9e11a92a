"""Verlinde-formula evaluators for the extended algebra and the battery of
numerical identity checks: each `check_*(ext, tol)` reads a built `ExtData`,
`run_battery` runs them all, and `verify_all` is a build plus that run.

Each Verlinde formula is a tuple of s-matrix row blocks (x, y, z, unit),
summed by the two forms `sl2` owns: `verlinde_summands` for a point
evaluator, `verlinde_block` (one 2-D matrix product) for a block check.  They
sum in different orders, so the two agree to within 4 eps, not bit for bit.

Every evaluator is checked against the integer fusion tables, which act as
the oracle: a coefficient counts as reproduced only if it both rounds to the
oracle integer and sits within tolerance of it.

Every check follows one rule, written once in `_check`: it reports the
largest absolute residual over an iterable of parts and passes iff that is
below the tolerance.  A NaN anywhere makes the residual NaN, so the check FAILs.
Checks of integer data, or of values against an integer table, use
`_integer_check`, which caps the tolerance at 1/2 so that no tolerance lets
a wrong integer pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arith import EPS, require_tolerance
from .errors import InconsistencyError
from .extended import (
    CHANGE_OF_BASIS,
    ExtData,
    ExtVector,
    exceptional_cross,
    exceptional_diag,
    exceptional_diag_via_gauss,
    exceptional_diag_via_twists,
    unitarity_residual,
)
from .ring import push_forward
from .sl2 import verlinde_block, verlinde_summands


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


def _ee_rows(ext: ExtData):
    s = ext.s_ee
    return s, s, s, s[0]


# the transfer formulas sum over the flip-fixed even classes: s_ee's first m columns
def _e_rows(ext: ExtData):
    fixed = ext.s_ee[:, : ext.m]
    return fixed, ext.s_ea, ext.s_ea, fixed[0]


def _a_rows(ext: ExtData):
    fixed = ext.s_ee[:, : ext.m]
    return ext.s_ea, ext.s_ea, fixed, fixed[0]


def ee_verlinde_coeff(ext: ExtData, x, y, z) -> float:
    """Fusion coefficient of z in x (x) y for untwisted identity-block
    labels, via the unitary block s-matrix: one summand per basis column."""
    px, py, pz = _block_pos(ext, x, 0), _block_pos(ext, y, 0), _block_pos(ext, z, 0)
    return float(np.sum(verlinde_summands(_ee_rows(ext), px, py, pz)))


def ext_coeff_e_terms(ext: ExtData, i, j, k) -> np.ndarray:
    """Summands of the transfer formula for i in the untwisted identity
    block and j, k odd; columns run over the flip-fixed even classes."""
    return verlinde_summands(_e_rows(ext), _block_pos(ext, i, 0), _block_pos(ext, j, 1),
                             _block_pos(ext, k, 1))


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
    return verlinde_summands(_a_rows(ext), _block_pos(ext, i, 1), _block_pos(ext, j, 1),
                             _block_pos(ext, k, 0))


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


def _peak(part):
    """Largest absolute entry of one residual part; a NaN propagates.  A real
    part is reduced through its max and min, which makes no full-size `np.abs`
    copy; the min is negated as a Python float, so an int8 minimum cannot
    wrap.  A complex or object part (mpmath values) goes through `abs` and
    float64, where an object maximum would skip a NaN.  A Python scalar part
    (a split-pair route, a vector distance) goes through `np.asarray`; an
    empty one (a flip that moves no class) reads as 0 through `initial=0`."""
    r = np.asarray(part)
    return (np.abs(r).astype(float, copy=False).max(initial=0.0) if r.dtype.kind in "cO"
            else np.maximum(r.max(initial=0), -float(r.min(initial=0))))


def _check(name: str, params: str, tol: float, parts) -> Check:
    """The one place residuals become a pass or a fail: the largest `_peak`
    over an iterable of parts, so a NaN FAILs; the outer `abs` turns -0.0 into
    0.0.  `map` drops each part once reduced, where a loop variable would keep
    it alive while the next is built, so a generator holds one part at a time."""
    res = abs(float(np.max(list(map(_peak, parts)), initial=0.0)))
    return Check(name, params, res, bool(res < tol))


def _integer_check(name: str, params: str, tol: float, parts) -> Check:
    """`_check` for an identity that holds in integers: it passes iff the
    residual is below min(tol, 1/2).  An integer residual then passes only
    when it is 0, and a value checked against an integer table passes only if
    it rounds to the table's integer and is within tol."""
    return _check(name, params, min(tol, 0.5), parts)


def _operator_ladder(t: np.ndarray, top):
    """The associativity check of an int8 table t as int32 residual parts,
    from the paper's recursion on whole operators.  `top` lists the classes
    of the top parent, the first numbered as the parent: [a-1] for sl2,
    [X+, X-] on the quotient.  With L_x left multiplication by X_x, so that
    t[x] is L_x transposed, the parts are, in this order:
    - t[0] - I and t[:, 0] - I: L_0 = I and L_x e_0 = e_x;
    - t[1] @ t[i-1] - t[i-2] minus the t[c] of the classes c of parent i,
      in blocks of about 8 MB over i = 2..top: L_i = L_{i-1} L_1 - L_{i-2},
      and L+ + L- at the top;
    - on the quotient, t[1] @ t[+] - t[+] @ t[1]: L+ commutes with L_1.
    All zero, every L_x is a polynomial in the commuting L_1 and L+, and e_0
    is cyclic: such a polynomial that kills e_0 kills every e_y = L_y e_0.
    Both sides of L_x L_y = sum_z t[x, y, z] L_z send e_0 to L_x e_y, so it
    holds: the table is associative, and commutative as the L_x commute.  A
    correct table passes, since the recursion is its fusion rule."""
    a, parent = len(t), top[0]
    eye = np.eye(a, dtype=np.int32)
    yield t[0] - eye
    yield t[:, 0] - eye
    x1, step = _diagonals(t[1]), max(1, 2**21 // a**2)  # 2^21 int32 entries per block
    for i in range(2, parent + 1, step):
        j = min(i + step, parent + 1)
        part = _times(t[1], x1, t[i - 1 : j - 1])
        part -= t[i - 2 : j - 2]
        part -= t[i:j]
        if j > parent:  # t[i:j] ends with the top parent's first class
            part[-1] -= t.take(top[1:], axis=0).sum(axis=0, dtype=np.int32)
        yield part
        del part  # else it lives on while the next block is built
    if len(top) > 1:  # the diagonals of t[1].T are those of t[1], negated
        yield _times(t[1], x1, t[parent]) - _times(t[1].T, -x1, t[parent].T).T


def _times(left: np.ndarray, offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """left @ rows as int32 for int8 `left` (a, a) and `rows` (..., a, a): one
    whole-row slab update per diagonal of `left` at `offsets`.  Exact: an entry
    sums at most a int8 products of size <= 2^14, within int32 for a < 2^17."""
    a = len(left)
    out = np.zeros(rows.shape, dtype=np.int32)
    for d in offsets.tolist():
        lo, hi = max(0, -d), min(a, a - d)
        diagonal = left.diagonal(d).astype(np.int32)[:, None]
        out[..., lo:hi, :] += diagonal * rows[..., lo + d : hi + d, :]
    return out


def _diagonals(rows: np.ndarray) -> np.ndarray:
    """Offsets d of the diagonals of a square matrix that hold a nonzero
    entry rows[i, i + d], in increasing order."""
    a = len(rows)
    xs, rs = np.nonzero(rows)
    # a mask, not np.unique, which imports numpy.ma on first use
    nonzero = np.zeros(2 * a - 1, dtype=bool)
    nonzero[rs - xs + a - 1] = True
    return np.flatnonzero(nonzero) - (a - 1)


# -- identity checks on the sl2 side ----------------------------------------


def check_d_unitary(ext: ExtData, tol: float) -> Check:
    return _check("d-s-unitary", f"kappa={ext.kappa}", tol, [unitarity_residual(ext.d.s)])


def check_d_symmetric(ext: ExtData, tol: float) -> Check:
    return _check("d-s-symmetric", f"kappa={ext.kappa}", tol, [ext.d.s - ext.d.s.T])


def check_d_verlinde(ext: ExtData, tol: float) -> Check:
    """Verlinde sums against the stored table n, one i-slab at a time.  s[i,p] s[j,p] is
    `fuse_rows` on rows cos(c(p+1)pi/kappa)/kappa, as 2 sin u sin v = cos(u-v) - cos(u+v)."""
    d, idx = ext.d, np.arange(ext.d.delta + 1)
    cosines = np.cos(np.outer(np.arange(d.delta + 3), idx + 1) * np.pi / d.kappa) / d.kappa
    sums = cosines @ (d.s / d.s[0]).T
    return _integer_check("d-verlinde-closed-form", f"kappa={ext.kappa}", tol,
                          (d.fuse_rows(sums, i, idx) - d.n[i] for i in idx.tolist()))


def check_d_modular_relation(ext: ExtData, tol: float) -> Check:
    """(s t)^3 = (p+/D) s^2 with t the diagonal of twists."""
    d = ext.d
    st = d.s.astype(complex) * d.twists[None, :]
    lhs = st @ st @ st
    rhs = (d.p_plus / d.big_d) * (d.s @ d.s)
    return _check("d-modular-relation", f"kappa={d.kappa}", tol, [lhs - rhs])


def check_d_s_from_twists(ext: ExtData, tol: float) -> Check:
    """The ribbon route to every s-entry against the sine closed form."""
    idx = np.arange(ext.d.delta + 1)
    return _check("d-s-via-twists", f"kappa={ext.kappa}", tol,
                  [ext.d.s_from_twists(idx[:, None], idx) - ext.d.s])


def check_d_folds(ext: ExtData, tol: float) -> list[Check]:
    """Reflection symmetries of the sine matrix: rows k and delta-k cancel
    on odd columns, agree on even columns, and the middle row vanishes on
    odd columns."""
    s, params = ext.d.s, f"kappa={ext.kappa}"
    return [
        _check("d-fold-odd-columns", params, tol, [s[:, 1::2] + s[::-1, 1::2]]),
        _check("d-fold-even-columns", params, tol, [s[:, ::2] - s[::-1, ::2]]),
        _check("d-fold-middle-row", params, tol, [s[ext.d.delta // 2, 1::2]]),
    ]


def check_d_n_associative(ext: ExtData, tol: float) -> Check:
    """`_operator_ladder` up to the top object."""
    n = ext.d.n
    return _integer_check("d-n-associative", f"kappa={ext.kappa}", tol,
                          _operator_ladder(n, [len(n) - 1]))


# -- identity checks on the ring side ----------------------------------------


def check_ring_associative(ext: ExtData, tol: float) -> Check:
    """`_operator_ladder` up to the split pair, and X+ commuting with X1."""
    ring = ext.ring
    return _integer_check("ring-associative", f"m={ext.m}", tol,
                          _operator_ladder(ring.l, [ring.plus, ring.minus]))


def check_ring_dimension_hom(ext: ExtData, tol: float) -> Check:
    """d(x) d(y) = sum_z L[x,y,z] d(z) for all pairs."""
    ring = ext.ring
    return _check("ring-dimension-hom", f"m={ext.m}", tol,
                  [np.outer(ring.dims, ring.dims) - ring.l @ ring.dims])


def check_ring_flip_invariant(ext: ExtData, tol: float) -> Check:
    return _integer_check("ring-flip-invariant", f"m={ext.m}", tol, ext.ring.flip_residuals())


def check_ring_unit_dual(ext: ExtData, tol: float) -> Check:
    return _integer_check("ring-unit-dual", f"m={ext.m}", tol, ext.ring.unit_dual_residuals())


def check_coefficient_folding(ext: ExtData, tol: float) -> Check:
    """Quotient multiplicities on the merged range against the sl2 ones
    pushed along the fold k -> min(k, delta-k): L = N[k] + N[delta-k] away
    from the middle slot, L = N[2m] at it, which is its own mirror.  Integer
    data on both sides, like the merge's balance residual: all exactly zero."""
    merged, unbalanced = ext.ring.merge_with_balance()
    expected = push_forward(ext.d.n[: len(merged), : len(merged)], ext.ring.fold, axis=2)
    return _integer_check("ring-coefficient-folding", f"m={ext.m}", tol,
                          [merged - expected, unbalanced])


# -- identity checks on the extended side ------------------------------------


def check_ext_unitary(ext: ExtData, tol: float) -> list[Check]:
    ee, params = ext.s_ee, f"m={ext.m}"
    return [
        _check("c-see-unitary", params, tol, [unitarity_residual(ee)]),
        _check("c-see-symmetric", params, tol, [ee - ee.T]),
        _check("c-sea-unitary", params, tol, [unitarity_residual(ext.s_ea)]),
    ]


def check_exceptional_routes(ext: ExtData, tol: float) -> list[Check]:
    """Three independent evaluations of the split-pair diagonal entry, and
    the constraint that diagonal plus cross reproduce the sl2 middle entry."""
    m, params = ext.m, f"m={ext.m}"
    closed = exceptional_diag(m)
    middle = ext.ring.descent[ext.ring.plus]
    routes = []
    for route, arg in ((exceptional_diag_via_twists, ext), (exceptional_diag_via_gauss, m)):
        try:
            routes.append(route(arg) - closed)
        except InconsistencyError:  # a non-real route FAILs through a NaN residual
            routes.append(np.nan)
    return [
        _check("exc-twist-route", params, tol, [routes[0]]),
        _check("exc-gauss-route", params, tol, [routes[1]]),
        _check("exc-pair-sum", params, tol,
               [closed + exceptional_cross(m) - ext.d.s[middle, middle]]),
    ]


def _oracle_check(name: str, ext: ExtData, tol: float, rows, classes) -> Check:
    """A block formula summed over every triple of the given ring classes
    (one class list per slot, in block-position order) against the ring
    table on the same triples.  A value that rounds to a different integer
    than the table's is at least 1/2 away from it, so `_integer_check` FAILs
    a wrong coefficient under any tolerance."""
    return _integer_check(name, f"m={ext.m}", tol,
                          [verlinde_block(rows) - ext.ring.l[np.ix_(*classes)]])


def check_ee_verlinde(ext: ExtData, tol: float) -> Check:
    """Block Verlinde formula against the ring table for every triple of
    untwisted identity-block labels."""
    e = ext.e_classes
    return _oracle_check("c-ee-verlinde", ext, tol, _ee_rows(ext), (e, e, e))


def check_ext_even(ext: ExtData, tol: float) -> Check:
    """Transfer formula with an identity-block left factor against the ring
    table, for every odd pair j, k."""
    odd = ext.odd_classes
    return _oracle_check("c-even-formula", ext, tol, _e_rows(ext), (ext.e_classes, odd, odd))


def check_ext_odd(ext: ExtData, tol: float) -> Check:
    """Transfer formula with two odd factors against the ring table, for
    every identity-block output."""
    odd = ext.odd_classes
    return _oracle_check("c-odd-formula", ext, tol, _a_rows(ext), (odd, odd, ext.e_classes))


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
    eig = ext.s_ea[_block_pos(ext, i, 1)] / ext.s_ee[0, :m]

    # row b: s of the image of the b-th odd basis element under multiplication
    # by lambda_i, as a stack of matrix-vector products (a single matrix
    # product would round differently from one product per image)
    images = ext.ring.l[ext.ring.index(i)][np.ix_(ext.odd_classes, ext.e_classes)]
    s_images = (ext.s_ee @ images[..., None])[..., 0]

    # CHANGE_OF_BASIS acts on each (lambda_p, flipped_p) pair, rows 2p and
    # 2p + 1: the left side has only a lambda component, the right side only
    # a flipped one; the split pair passes through on the left
    lhs, rhs = np.zeros((2 * m + 2, m)), np.zeros((2 * m + 2, m))
    for slot, slot_eig in enumerate((-eig, eig)):
        lhs[slot : 2 * m : 2] = CHANGE_OF_BASIS[slot, 0] * s_images[:, :m].T
        rhs[slot : 2 * m : 2] = slot_eig[:, None] * (CHANGE_OF_BASIS[slot, 1] * ext.s_ea.T)
    lhs[2 * m :] = s_images[:, m:].T
    return lhs, rhs


def check_diagonalization(ext: ExtData, tol: float) -> list[Check]:
    return [_check("c-diagonalization", f"m={ext.m} i={i}", tol, [lhs - rhs])
            for i in ext.odd_classes for lhs, rhs in [diagonalization_matrices(ext, i)]]


def check_conv_eigenbasis(ext: ExtData, tol: float) -> Check:
    """Convolution relations in the eigenbasis: the two images of each pair
    convolve to -+ 1/dim times themselves and annihilate each other.
    Distinct classes annihilate, so each relation is one convolution of the
    images summed over all flip-fixed classes.  The arithmetic only halves
    and doubles, so the residual should be exactly zero."""
    fixed, inv_dims = set(ext.fixed_classes), 1.0 / ext.ring.dims
    alpha, beta, alpha_d, beta_d = (
        ext.change_basis(ExtVector({label: w[x] for label, x in ext.basis_positions.items()
                                    if x in fixed and label.flipped == flipped}))
        for w in (np.ones_like(inv_dims), inv_dims) for flipped in (False, True))
    return _check("c-conv-eigenbasis", f"m={ext.m}", tol, [
        ext.convolve(alpha, alpha).distance(-alpha_d),
        ext.convolve(beta, beta).distance(beta_d),
        ext.convolve(alpha, beta).distance(ExtVector()),
        ext.convolve(beta, alpha).distance(ExtVector()),
    ])


def _folded_rows(ext: ExtData, parity: int):
    """Row blocks of the sum-transfer identity for even i and j of the given
    parity, cut to exactly the rows the identity reads: the quotient side at
    rows (i//2, j//2, k//2) for k of j's parity only, and the sl2 side at
    rows (i//2, j//2, k).  The quotient side pairs even t through
    s_ee_merged, which merges the split pair at t = 2m."""
    m, s, merged = ext.m, ext.d.s, ext.s_ee_merged
    if parity:  # odd sector: columns are the flip-fixed even classes
        quotient = merged[:, :m], ext.s_ea, ext.s_ea, ext.s_ee[0, :m]
    else:  # identity block: columns are its full basis; a single split element at k = 2m
        quotient = merged, merged, ext.s_ee[: m + 1], ext.s_ee[0]
    return quotient, (s[: 2 * m + 1 : 2], s[parity : 2 * m + 1 : 2], ext.s_folded, s[0])


def folded_sum_sides(ext: ExtData, i: int, j: int, k: int) -> tuple[float, float]:
    """Both evaluations of the sum-transfer identity for indices in the
    merged range 0..2m (i even).

    On the sl2 side the output column is folded (k plus delta-k) away from
    the middle index and taken once at it.  On the quotient side the merged
    index 2m means the whole split pair on input slots but a single split
    element on the output slot; with the pair also merged there, the left
    side would count both halves and come out exactly twice the right.  The
    quotient side is 0 for k of the other parity than j.
    """
    if i % 2:
        raise ValueError(f"first index must be even, got {i}")
    for t in (i, j, k):
        if not 0 <= t <= 2 * ext.m:
            raise ValueError(f"index {t} outside the merged range 0..{2 * ext.m}")
    quotient, sl2 = _folded_rows(ext, j % 2)
    same = k % 2 == j % 2  # the quotient side is 0 for k of the other parity
    lhs = float(np.sum(verlinde_summands(quotient, i // 2, j // 2, k // 2))) if same else 0.0
    return lhs, float(np.sum(verlinde_summands(sl2, i // 2, j // 2, k)))


def check_folded_sum(ext: ExtData, tol: float) -> Check:
    parts = []
    for parity in (0, 1):  # the branches sum over different column sets
        quotient, sl2 = _folded_rows(ext, parity)
        residual = -verlinde_block(sl2)
        residual[:, :, parity::2] += verlinde_block(quotient)  # quotient: k of j's parity only
        parts.append(residual)
    return _check("c-folded-sum", f"m={ext.m}", tol, parts)


# -- the full battery ---------------------------------------------------------


def run_battery(ext: ExtData, tol: float = EPS) -> VerificationReport:
    """Run every identity check on a built `ExtData`, sorted by check name
    then parameters so repeated runs compare byte for byte.  Raises
    ValueError for a tolerance that is not a finite positive number; a table
    corrupted after the build is a FAIL in the report, never a raise."""
    require_tolerance(tol)
    # built per call, so each check is read off the module when the battery
    # runs and a wrapper set on the module attribute (a tracer) sees the call
    checks = (
        check_d_unitary, check_d_symmetric, check_d_verlinde, check_d_modular_relation,
        check_d_s_from_twists, check_d_folds, check_d_n_associative,
        check_coefficient_folding, check_ring_associative, check_ring_dimension_hom,
        check_ring_flip_invariant, check_ring_unit_dual,
        check_ext_unitary, check_exceptional_routes, check_ee_verlinde, check_ext_even,
        check_ext_odd, check_diagonalization, check_conv_eigenbasis, check_folded_sum,
    )
    report = VerificationReport(m=ext.m, kappa=ext.kappa, tolerance=tol)
    for check in checks:
        result = check(ext, tol)
        report.checks.extend(result if isinstance(result, list) else [result])
    report.checks.sort(key=lambda c: (c.name, c.params))
    return report


def verify_all(m: int, tol: float = EPS) -> VerificationReport:
    """`run_battery` on `ExtData.build(m)`.  The tolerance is checked first,
    so a bad one raises ValueError before any build, and before the
    UnsupportedCaseError for odd m."""
    require_tolerance(tol)
    return run_battery(ExtData.build(m), tol)
