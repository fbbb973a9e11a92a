"""Every accepted spelling of a quotient class resolves to the same class
through each entry point, and malformed or out-of-range labels are
rejected."""

import json

import numpy as np
import pytest

from equifuse.cli import main
from equifuse.extended import GradedLabel, lam
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
