"""Every raise site of InconsistencyError and ConstructionError fires: each
test corrupts one ingredient of a built object and reruns the step that
guards it."""

import numpy as np
import pytest

from equifuse import extended
from equifuse.errors import ConstructionError, InconsistencyError
from equifuse.extended import ExtData, exceptional_diag_via_gauss, exceptional_diag_via_twists
from equifuse.ring import TypeDRing
from equifuse.sl2 import Sl2Data


@pytest.fixture
def r2():
    return TypeDRing(2)


def test_derive_tensor_rejects_negative_multiplicity(r2):
    # parents 5 apart: X1 then moves no class, so X2 = X1 X1 - X0 goes negative
    r2.descent = np.array([0, 5, 10, 15, 20, 20])
    with pytest.raises(InconsistencyError, match="negative multiplicity deriving X2"):
        r2._derive_tensor()


def _bump(l, *entries):
    for x, y, z in entries:
        l[x, y, z] += 1


# each corruption keeps every earlier _validate condition intact
VALIDATE_BRANCHES = {
    "not commutative": [(1, 2, 3)],
    "X0 is not a unit": [(0, 1, 2), (1, 0, 2)],
    "self-duality failed": [(1, 2, 0), (2, 1, 0)],
    "grading is not additive": [(1, 1, 1)],
    "not flip-invariant": [(2, 4, 4), (4, 2, 4)],  # X2 X+ gains an X+ but X2 X- no X-
}


@pytest.mark.parametrize("message", VALIDATE_BRANCHES)
def test_validate_rejects_corrupt_table(r2, message):
    _bump(r2.l, *VALIDATE_BRANCHES[message])
    with pytest.raises(InconsistencyError, match=message):
        r2._validate()


def test_combined_tensor_rejects_unbalanced_split_pair(r2):
    _bump(r2.l, (1, 3, r2.plus))
    with pytest.raises(InconsistencyError, match="unbalanced"):
        r2.combined_tensor()


def test_ext_data_rejects_non_unitary_block(r2):
    d = Sl2Data(r2.kappa)
    d.s = d.s.copy()
    d.s[0, 0] += 1e-6
    with pytest.raises(ConstructionError, match="not unitary"):
        ExtData(r2, d)


def test_twist_route_rejects_complex_value():
    ext = ExtData.build(2)
    ext.thetas = ext.thetas * np.exp(0.1j)  # a common phase survives the ratio
    with pytest.raises(InconsistencyError, match="twist-route entry is not real"):
        exceptional_diag_via_twists(ext)


def test_gauss_route_rejects_complex_value(monkeypatch):
    monkeypatch.setattr(extended, "gauss_sum_reciprocal", lambda a, b: 1j)
    with pytest.raises(InconsistencyError, match="Gauss-route entry is not real"):
        exceptional_diag_via_gauss(2)
