"""The analytic values against a second arithmetic.

`perfbench/reference.py` evaluates the sine s-matrix, twists, quantum
dimensions, the split-pair entries and the Gauss sums with mpmath at 50
digits, without importing equifuse.  Every double-precision value here must
match it to 1e-12; the worst gaps measured are 5.6e-14 (the sl2 twists at
m=64) and 3.5e-14 (the split-pair routes at m=64).  The s-matrix is
compared entry for entry up to m=16 and on a strided sample at m=64.
"""

import numpy as np
import pytest

from equifuse.arith import gauss_sum, gauss_sum_reciprocal
from equifuse.extended import (
    ExtData,
    exceptional_cross,
    exceptional_diag,
    exceptional_diag_via_gauss,
    exceptional_diag_via_twists,
)
from equifuse.sl2 import Sl2Data

TOL = 1e-12
MS = [*range(2, 17, 2), 64]
S_STRIDE = {64: 8}  # every 8th row and column at m=64; every entry below


def _gap(values, expected) -> float:
    return float(np.max(np.abs(np.asarray(values) - np.asarray(expected, dtype=complex))))


@pytest.mark.parametrize("m", MS)
def test_sl2_data_matches_reference(reference, m):
    kappa = 4 * m + 2
    d = Sl2Data(kappa)
    idx = range(0, d.delta + 1, S_STRIDE.get(m, 1))
    s_ref = [[reference.s_entry(kappa, i, j) for j in idx] for i in idx]
    assert _gap(d.s[np.ix_(idx, idx)], s_ref) < TOL
    everything = range(d.delta + 1)
    assert _gap(d.twists, [reference.twist(kappa, i) for i in everything]) < TOL
    assert _gap(d.dims, [reference.qdim(kappa, i) for i in everything]) < TOL


@pytest.mark.parametrize("m", MS)
def test_class_data_matches_reference(reference, m):
    ext = ExtData.build(m)
    assert _gap(ext.ring.dims, reference.class_dims(m)) < TOL
    assert _gap(ext.thetas, reference.class_twists(m)) < TOL


@pytest.mark.parametrize("m", MS)
def test_split_pair_routes_match_reference(reference, m):
    diag = complex(reference.split_pair_diag(m))
    for route in (exceptional_diag(m), exceptional_diag_via_twists(ExtData.build(m)),
                  exceptional_diag_via_gauss(m)):
        assert abs(route - diag) < TOL
    assert abs(exceptional_cross(m) - complex(reference.split_pair_cross(m))) < TOL


@pytest.mark.parametrize("m", MS)
def test_gauss_sums_match_reference(reference, m):
    kappa = 4 * m + 2
    direct = complex(reference.gauss_sum(8, kappa))
    assert abs(gauss_sum(8, kappa) - direct) < TOL
    assert abs(gauss_sum_reciprocal(8, kappa) - direct) < TOL
    assert abs(gauss_sum(kappa, 8) - complex(reference.gauss_sum(kappa, 8))) < TOL
