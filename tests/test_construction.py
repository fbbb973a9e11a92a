"""The two integer tables are built exactly and without a full-size copy.

`Sl2Data.n` and `TypeDRing.l` are compared entry for entry with
`perfbench/reference.py`, which derives both from the truncated
Clebsch-Gordan rule by plain loops and imports nothing from the package.
The constructors' tracemalloc peaks are pinned against the values measured
for the previous construction (broadcast boolean masks for `n`, an int64
matmul per recursion step for `l`), so a temporary copy of a whole table
shows up as a failure.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from equifuse.ring import TypeDRing
from equifuse.sl2 import Sl2Data

REFERENCE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"

# bytes, measured with the previous construction; a peak may exceed it by 10%
PREVIOUS_PEAK = {"Sl2Data(130)": 4_833_178, "TypeDRing(32)": 5_222_059}
BUILDERS = {"Sl2Data(130)": lambda: Sl2Data(130), "TypeDRing(32)": lambda: TypeDRing(32)}


@pytest.fixture(scope="module")
def reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("m", [*range(2, 17, 2), 64])
def test_tables_match_reference(reference, m):
    n = Sl2Data(4 * m + 2).n
    l = TypeDRing(m).l
    assert n.dtype == np.int8
    assert l.dtype == np.int64
    ref_n = reference.sl2_fusion(4 * m)
    assert np.array_equal(n, ref_n)
    assert np.array_equal(l, reference.quotient_fusion(m, ref_n))


@pytest.mark.parametrize("name", BUILDERS)
def test_constructor_peak_memory_does_not_grow(name):
    tracemalloc.start()
    try:
        BUILDERS[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * PREVIOUS_PEAK[name], f"{name} peaked at {peak} bytes"
