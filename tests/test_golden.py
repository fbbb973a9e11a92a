"""CLI output pinned to recorded golden data.

The fusion tables are integer data, so `table --json` is compared byte for
byte through its SHA-256 digest.  `verify --json` must report the same
checks with the same parameters and pass flags; residuals are compared
within 1e-14, since BLAS rounding differs across machines.
"""

import hashlib
import json
from pathlib import Path

import pytest

from equifuse.cli import main

TABLE_SHA256 = {
    ("c", 2): "3dfe45a7695ae4c69e847e8460950b8160aa9a221536160a798ee81e95ca22e2",
    ("d", 2): "5136acb984af111ddc9e566a14f2eb45696bc134cb94f896e402bd77c8ea03ac",
    ("c", 4): "36969fbf98fd8ba7dcb28943c2bad2f87a5eb44180fb41264fdd29cfd5b04960",
    ("d", 4): "6b8771cc5c42e838846ffbdbc75a6a12cee20f8daf3d0cde313652f93a3767ee",
    ("c", 6): "957c769fb4e81a674a7045fe79b5ac3e9c1de73d3176b14cd219ac944033d870",
    ("d", 6): "fc486a1b0ced99ee01b0eeb7b84587177d11a5b0af40ec1210a5dee867fabfe0",
    ("c", 8): "2a2fe0ab3822a472066ecf9116c403ecff64fac8983fb60b5feb6185012a5b07",
    ("d", 8): "9f113c2ebb98bc98456a0989602987e8786edc7feb6f7b5436e99451489849bf",
}
VERIFY = json.loads((Path(__file__).parent / "golden" / "verify.json").read_text())
RESIDUAL_TOL = 1e-14


@pytest.mark.parametrize("ring, m", TABLE_SHA256)
def test_table_json_digest(capsys, ring, m):
    assert main(["table", "--m", str(m), "--ring", ring, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[ring, m]


@pytest.mark.parametrize("m", [2, 4, 6, 8, 12])
def test_verify_json_matches_golden(capsys, m):
    assert main(["verify", "--m", str(m), "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    golden = VERIFY[str(m)]
    assert [(r["name"], r["params"], r["passed"]) for r in results] == [
        (name, params, passed) for name, params, _, passed in golden
    ]
    for r, (name, params, residual, _) in zip(results, golden):
        assert abs(r["max_residual"] - residual) < RESIDUAL_TOL, (name, params)
