import math

import numpy as np
import pytest

from equifuse.errors import UnsupportedCaseError
from equifuse.ring import MINUS, PLUS, TypeDRing

TOL = 1e-9


@pytest.fixture(scope="module", params=[2, 4, 6])
def ring(request):
    return TypeDRing(request.param)


@pytest.fixture(scope="module")
def r2():
    return TypeDRing(2)


@pytest.mark.parametrize("m", [0, 1, 3, 5, -2])
def test_odd_or_small_m_rejected(m):
    with pytest.raises(UnsupportedCaseError):
        TypeDRing(m)


def test_seed_rows(ring):
    """The generating products the whole table is derived from."""
    m = ring.m
    assert ring.product("X0", "X+") == {"X+": 1}
    assert ring.product("X1", "X1") == {"X0": 1, "X2": 1}
    for i in range(1, 2 * m - 1):
        assert ring.product("X1", f"X{i}") == {f"X{i - 1}": 1, f"X{i + 1}": 1}
    assert ring.product("X1", f"X{2 * m - 1}") == {f"X{2 * m - 2}": 1, PLUS: 1, MINUS: 1}
    assert ring.product("X1", PLUS) == {f"X{2 * m - 1}": 1}
    assert ring.product("X1", MINUS) == {f"X{2 * m - 1}": 1}
    same = {f"X{i}": 1 for i in range(0, 2 * m - 3, 4)}
    cross = {f"X{i}": 1 for i in range(2, 2 * m - 1, 4)}
    assert ring.product(PLUS, PLUS) == {**same, PLUS: 1}
    assert ring.product(MINUS, MINUS) == {**same, MINUS: 1}
    assert ring.product(PLUS, MINUS) == cross
    assert ring.product(MINUS, PLUS) == cross


def test_m2_worked_products(r2):
    assert r2.product("X1", "X3") == {"X2": 1, "X+": 1, "X-": 1}
    assert r2.product("X2", "X+") == {"X2": 1, "X-": 1}
    assert r2.product("X2", "X-") == {"X2": 1, "X+": 1}
    assert r2.product("X2", "X3") == {"X1": 1, "X3": 2}
    assert r2.product("X3", "X+") == {"X1": 1, "X3": 1}


def test_coeff_examples(r2):
    assert r2.coeff("X2", "X3", "X3") == 2
    assert r2.coeff(PLUS, PLUS, PLUS) == 1
    for y in r2.labels:
        for z in r2.labels:
            assert r2.coeff("X0", y, z) == (1 if y == z else 0)


def test_group_action(ring):
    def act(x):
        return ring.labels[ring.action[ring.index(x)]]

    assert act("X3") == "X3"
    assert act(PLUS) == MINUS
    assert act(MINUS) == PLUS
    for lab in ring.labels:
        assert act(act(lab)) == lab


def test_qdims(r2):
    def qdim(x):
        return r2.dims[r2.index(x)]

    phi = (1 + math.sqrt(5)) / 2
    assert abs(qdim("X0") - 1.0) < TOL
    assert abs(qdim(PLUS) - phi) < TOL  # [5]/2 at kappa=10
    assert abs(qdim(PLUS) - 1.618034) < 1e-6
    assert abs(qdim("X2") - (1 + phi)) < TOL
    assert abs(qdim("X2") - 2.618034) < 1e-6


def test_associativity(ring):
    lhs = np.einsum("xyr,rzw->xyzw", ring.l, ring.l)
    rhs = np.einsum("yzr,xrw->xyzw", ring.l, ring.l)
    assert np.array_equal(lhs, rhs)


def test_dimension_homomorphism(ring):
    lhs = np.outer(ring.dims, ring.dims)
    rhs = ring.l @ ring.dims
    assert np.max(np.abs(lhs - rhs)) < TOL


def test_flip_invariance(ring):
    a = ring.action
    assert np.array_equal(ring.l[np.ix_(a, a, a)], ring.l)


def test_flip_residual_slabs_equal_the_full_gather():
    # every single-entry +-1 corruption, in one loop: the gather is the oracle
    for m in (2, 4):
        ring = TypeDRing(m)
        a, table = ring.action, ring.l
        for entry in np.ndindex(table.shape):
            for delta in (1, -1):
                ring.l = table.copy()
                ring.l[entry] += delta
                slabs = max(np.abs(slab).max() for slab in ring.flip_residuals())
                gather = np.abs(ring.l[np.ix_(a, a, a)] - ring.l).max()
                assert slabs == gather, (m, entry, delta)


def test_unit_and_duality(ring):
    eye = np.eye(ring.size, dtype=np.int64)
    assert np.array_equal(ring.l[0], eye)
    assert np.array_equal(ring.l[:, :, 0], eye)


def test_sector_additivity(ring):
    for x in range(ring.size):
        for y in range(ring.size):
            for z in np.nonzero(ring.l[x, y])[0]:
                assert ring.sectors[z] == ring.sectors[x] ^ ring.sectors[y]


def test_commutativity_and_nonnegativity(ring):
    assert np.array_equal(ring.l, ring.l.transpose(1, 0, 2))
    assert ring.l.min() >= 0


def test_combined_tensor(r2):
    merged = r2.combined_tensor()
    assert merged.shape == (5, 5, 5)
    # X1 (x) X3 contains the whole split pair once
    assert merged[1, 3, 4] == 1
    # (X+ + X-) (x) (X+ + X-) = 2 X0 + 2 X2 + (X+ + X-)
    assert merged[4, 4, 0] == 2
    assert merged[4, 4, 2] == 2
    assert merged[4, 4, 4] == 1


def test_label_lookup_errors(r2):
    with pytest.raises(ValueError):
        r2.index("X9")
    with pytest.raises(ValueError):
        r2.index(99)
    assert r2.index("+") == r2.index(PLUS)
