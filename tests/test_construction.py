"""The two integer tables are built exactly and without a full-size copy.

`Sl2Data.n` and `TypeDRing.l` are compared entry for entry with
`perfbench/reference.py`, which derives both from the truncated
Clebsch-Gordan rule by plain loops and imports nothing from the package.
Both tables are int8.  The builders' tracemalloc peaks are pinned to the
values measured for this construction (`n` filled one i-slab at a time, the
recursion for `l` run in int8), so a temporary copy of a whole table, or a
table stored in a wider type, shows up as a failure.
"""

import tracemalloc

import numpy as np
import pytest

from equifuse.extended import ExtData
from equifuse.ring import TypeDRing
from equifuse.sl2 import Sl2Data

# bytes, measured with this construction; a peak may exceed it by 10%
MEASURED_PEAK = {"Sl2Data(130).n": 2_356_687, "TypeDRing(32)": 590_930}
BUILDERS = {"Sl2Data(130).n": lambda: Sl2Data(130).n, "TypeDRing(32)": lambda: TypeDRing(32)}


def _traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m", [*range(2, 17, 2), 64])
def test_tables_match_reference(reference, m):
    n = Sl2Data(4 * m + 2).n
    l = TypeDRing(m).l
    assert n.dtype == np.int8
    assert l.dtype == np.int8
    ref_n = reference.sl2_fusion(4 * m)
    assert np.array_equal(n, ref_n)
    assert np.array_equal(l, reference.quotient_fusion(m, ref_n))


@pytest.mark.parametrize("name", BUILDERS)
def test_constructor_peak_memory_does_not_grow(name):
    peak = _traced_peak(BUILDERS[name])
    assert peak <= 1.1 * MEASURED_PEAK[name], f"{name} peaked at {peak} bytes"


def test_large_build_stays_small():
    # about 34 MB at m=128, where the rank-3 sl2 table would take 135 MB and
    # the quotient table in int64 137 MB: the build makes neither
    peak = _traced_peak(lambda: ExtData.build(128))
    assert peak < 48e6, f"ExtData.build(128) peaked at {peak} bytes"
