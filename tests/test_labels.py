"""Every accepted spelling of a quotient class resolves to the same class
through each entry point, and malformed or out-of-range labels are
rejected."""

import json

import numpy as np
import pytest

from equifuse.cli import main
from equifuse.errors import UnsupportedCaseError
from equifuse.extended import ExtData, ExtVector, GradedLabel, alam, lam
from equifuse.ring import TypeDRing, canonical_label

SPELLINGS = {
    "X0": [0, np.int64(0), "0", "X0", "x0"],
    "X3": [3, np.int32(3), "3", "X3", "x3", "03"],
    "X+": ["+", "X+", "x+"],
    "X-": ["-", "X-", "x-"],
}
SPELLED = [(label, spelling) for label, spellings in SPELLINGS.items() for spelling in spellings]
BAD = ["", "X", "bad", "X3a", "3.0", "-1", "X-1", "++", " 3", 3.0, -1, True, None]
OUT_OF_RANGE = [4, "4", "X4", "x9", 99]  # well-formed, but m=2 has X0..X3


@pytest.fixture(scope="module")
def r2():
    return TypeDRing(2)


@pytest.mark.parametrize("label, spelling", SPELLED)
def test_spelling_resolves_to_one_class(r2, label, spelling):
    assert canonical_label(spelling) == label
    assert r2.index(spelling) == r2.labels.index(label)
    assert list(lam(spelling).labels()) == [GradedLabel(label)]
    assert GradedLabel.parse(f"l:{spelling}") == GradedLabel(label)


@pytest.mark.parametrize("label, spelling", SPELLED)
def test_spelling_resolves_through_cli(capsys, label, spelling):
    # X0 is the unit, so spelling (x) X0 contains the class once
    code = main(["coeff", "--m", "2", "--i", str(spelling), "--j", "0", "--k", label, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["results"][0]["nearest"] == 1


@pytest.mark.parametrize("bad", BAD)
def test_malformed_label_rejected(r2, bad):
    with pytest.raises(ValueError, match="label"):
        canonical_label(bad)
    with pytest.raises(ValueError, match="label"):
        r2.index(bad)
    with pytest.raises(ValueError, match="label"):
        lam(bad)


@pytest.mark.parametrize("bad", OUT_OF_RANGE)
def test_out_of_range_label_rejected(r2, bad):
    with pytest.raises(ValueError, match="label"):
        r2.index(bad)


@pytest.mark.parametrize("token", ["", "bad", "3.0", "-1", "X-1", "4", "X9"])
@pytest.mark.parametrize("formula", ["oracle", "ext-e", "ext-a"])
def test_cli_rejects_bad_label(capsys, token, formula):
    code = main(["coeff", "--m", "2", "--i", token, "--j", "1", "--k", "1", "--formula", formula])
    err = capsys.readouterr().err
    assert code == 2
    assert "label" in err


def test_graded_label_parse_rejects_malformed_class():
    with pytest.raises(ValueError, match="label"):
        GradedLabel.parse("l:bad")


# Vector operations validate every label of every operand through the basis
# map: an unknown or non-canonical class, or a key that is not a GradedLabel,
# is a ValueError, a flipped split-pair element an UnsupportedCaseError.
UNKNOWN = [GradedLabel("X99"), GradedLabel("X99", flipped=True), GradedLabel("3"), GradedLabel("+")]
NOT_A_LABEL = ["X2", ("X2", False)]
NO_PARTNER = [GradedLabel("X+", flipped=True), GradedLabel("X-", flipped=True)]
VECTOR_OPS = {
    "tensor": lambda ext, v: ext.tensor(v, lam(0)),
    "tensor-right": lambda ext, v: ext.tensor(lam(0), v),
    "convolve": lambda ext, v: ext.convolve(v, lam(0)),
    "convolve-right": lambda ext, v: ext.convolve(lam(0), v),
    "convolve-empty": lambda ext, v: ext.convolve(ExtVector(), v),
    "change_basis": lambda ext, v: ext.change_basis(v),
    "change_basis_inverse": lambda ext, v: ext.change_basis_inverse(v),
    "twist_op": lambda ext, v: ext.twist_op(v),
    "pair": lambda ext, v: ext.pair(v, v),
    "pair-right": lambda ext, v: ext.pair(lam(0), v),
}


@pytest.fixture(scope="module")
def e2():
    return ExtData.build(2)


@pytest.mark.parametrize("op", VECTOR_OPS)
@pytest.mark.parametrize("label", UNKNOWN, ids=repr)
def test_vector_ops_reject_unknown_class(e2, op, label):
    with pytest.raises(ValueError, match="unknown class") as excinfo:
        VECTOR_OPS[op](e2, ExtVector({label: 1.0}))
    assert not isinstance(excinfo.value, UnsupportedCaseError)


@pytest.mark.parametrize("op", VECTOR_OPS)
@pytest.mark.parametrize("key", NOT_A_LABEL, ids=repr)
def test_vector_ops_reject_non_label_key(e2, op, key):
    with pytest.raises(ValueError, match="is not a GradedLabel") as excinfo:
        VECTOR_OPS[op](e2, ExtVector({key: 1.0}))
    assert repr(key) in str(excinfo.value)
    assert not isinstance(excinfo.value, UnsupportedCaseError)


@pytest.mark.parametrize("op", VECTOR_OPS)
@pytest.mark.parametrize("label", NO_PARTNER, ids=repr)
def test_vector_ops_reject_flipped_split_pair(e2, op, label):
    with pytest.raises(UnsupportedCaseError, match="no flipped basis element"):
        VECTOR_OPS[op](e2, ExtVector({label: 1.0}))


def test_pair_validates_labels(e2):
    with pytest.raises(ValueError, match="unknown class"):
        e2.pair(lam("X99"), lam("X99"))
    with pytest.raises(UnsupportedCaseError):
        e2.pair(alam("+"), alam("+"))
