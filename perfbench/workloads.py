"""The benchmark's workloads.

Each workload has a set-up (`build`, timed as part of setup_s), a
preparation step that computes reference values and a pool of seeded rounds
(`prepare`, not timed), and ops whose results are checked against those
references outside the timed region.  A run repeats whole rounds, so the
share of failed operations is the same in every run.

Every call into the program goes through a module or class attribute looked
up when the op runs, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

TOL = 1e-9
RUN_PY = Path(__file__).resolve().with_name("run.py")
CHILD_TIMEOUT_S = 120


class Mismatch(Exception):
    """An operation returned a result that disagrees with the reference."""


class OperationFailed(Exception):
    """An operation did not complete."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    child: bool = False  # runs in a child process, outside tracemalloc's view


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def expect_close(got, want, what: str, tol: float = TOL) -> None:
    diff = abs(complex(got) - complex(want))
    expect(diff < tol, f"{what}: got {got!r}, want {complex(want)!r} (diff {diff:.3e})")


def _stratified(rng: random.Random, items: list, count: int) -> list:
    """One item from each of `count` equal slices, so sparse operands cover
    the whole label range on every seed."""
    bounds = np.linspace(0, len(items), count + 1).astype(int)
    return [items[rng.randrange(lo, hi)] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


class Workload:
    name = ""
    entry_module = "equifuse"
    pool_rounds = 1
    has_setup = False  # whether build() does program work
    expected_failed_share = Fraction(0)

    def __init__(self, eq, seed: int, quick: bool):
        """`quick` selects tiny sizes for a smoke run."""
        self.eq = eq
        self.rng = random.Random(seed)

    def build(self) -> None:
        """Program set-up before the first operation; nothing by default."""

    def prepare(self) -> list[list[Op]]:
        """Compute the references and return the pool of seeded rounds."""
        raise NotImplementedError

    def verify_setup(self) -> None:
        """Check the program's set-up data against the references."""


# -- references shared by several workloads ----------------------------------


class Refs:
    """Reference tables for one even m."""

    def __init__(self, m: int):
        self.m = m
        self.delta = 4 * m
        self.kappa = 4 * m + 2
        self.n = ref.sl2_fusion(self.delta)
        self.lt = ref.quotient_fusion(m, self.n)
        self.labels = ref.quotient_labels(m)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.e_labels = [f"X{i}" for i in range(0, 2 * m, 2)] + ["X+", "X-"]
        self.odd_labels = [f"X{i}" for i in range(1, 2 * m, 2)]
        self.diag = ref.split_pair_diag(m)
        self.cross = ref.split_pair_cross(m)
        self._s: dict[tuple[int, int], float] = {}

    def s(self, i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if key not in self._s:
            self._s[key] = float(ref.s_entry(self.kappa, i, j))
        return self._s[key]

    def coeff(self, x: str, y: str, z: str) -> int:
        return int(self.lt[self.index[x], self.index[y], self.index[z]])

    def folded(self, i: int, j: int, k: int) -> int:
        """sl2 multiplicity folded onto the merged range 0..2m."""
        if k == 2 * self.m:
            return int(self.n[i, j, k])
        return int(self.n[i, j, k]) + int(self.n[i, j, self.delta - k])


def check_ext_data(ext, refs: Refs, rng: random.Random, samples: int = 512) -> None:
    """The data `ExtData.build` produced, against the references."""
    m, kappa, delta = refs.m, refs.kappa, refs.delta
    expect(np.array_equal(ext.d.n, refs.n),
           f"sl2 fusion tensor differs from Clebsch-Gordan at m={m}")
    expect(list(ext.ring.labels) == refs.labels, f"quotient labels differ at m={m}")
    expect(np.array_equal(ext.ring.l, refs.lt),
           f"quotient table differs from the folded rule at m={m}")
    pairs = [(i, j) for i in range(delta + 1) for j in range(delta + 1)]
    if len(pairs) > samples:
        pairs = rng.sample(pairs, samples)
    for i, j in pairs:
        expect_close(ext.d.s[i, j], refs.s(i, j), f"s[{i},{j}] at kappa={kappa}")
    expect_close(ext.s_ee[m, m], refs.diag, f"split-pair diagonal at m={m}")
    expect_close(ext.s_ee[m, m + 1], refs.cross, f"split-pair cross entry at m={m}")
    for a, i in enumerate(range(0, 2 * m, 2)):
        expect_close(ext.s_ee[a, m], refs.s(2 * m, i), f"s_ee[{a},+] at m={m}")
        b = rng.randrange(m)
        expect_close(ext.s_ee[a, b], 2 * refs.s(i, 2 * b), f"s_ee[{a},{b}] at m={m}")
        expect_close(ext.s_ea[b, a], 2 * refs.s(2 * b + 1, i), f"s_ea[{b},{a}] at m={m}")
    dims = ref.class_dims(m)
    expect(np.max(np.abs(ext.ring.dims - dims)) < TOL, f"quotient dimensions at m={m}")


def check_gauss(arith, kappa: int) -> None:
    """Both Gauss-sum routes against the 50-digit direct sums."""
    expect_close(arith.gauss_sum(8, kappa), ref.gauss_sum(8, kappa), f"S(8, {kappa})")
    expect_close(arith.gauss_sum(kappa, 8), ref.gauss_sum(kappa, 8), f"S({kappa}, 8)")
    expect_close(arith.gauss_sum_reciprocal(8, kappa), ref.gauss_sum(8, kappa),
                 f"S(8, {kappa}) by reciprocity")


# -- battery-large -----------------------------------------------------------


def check_report(report, m: int) -> None:
    expect(report.m == m and report.kappa == 4 * m + 2, f"report header for m={m}")
    expect(len(report.checks) > 0, f"empty report for m={m}")
    bad = [f"{c.name} {c.params} ({c.max_residual:.3e})" for c in report.checks
           if not (c.passed and c.max_residual < report.tolerance)]
    expect(not bad, f"verify_all({m}) failed: {', '.join(bad)}")


def run_capped_child(m: int, cap_mb: int) -> tuple[dict | None, int]:
    """verify_all(m) in a child process whose address space is capped at
    cap_mb MiB.  Returns the child's outcome (None if it printed none) and
    its exit code."""
    cmd = [sys.executable, str(RUN_PY), "--capped-child", str(m), "--cap-mb", str(cap_mb)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=RUN_PY.parent.parent)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        return None, proc.returncode


def capped_verify(m: int, cap_mb: int) -> dict:
    """The capped child as an operation: raises OperationFailed when it
    could not finish the battery."""
    outcome, code = run_capped_child(m, cap_mb)
    if outcome is None:
        raise OperationFailed(f"verify_all({m}) under a {cap_mb} MiB cap: child exited {code} "
                              f"without a result")
    if outcome["error"]:
        raise OperationFailed(
            f"verify_all({m}) under a {cap_mb} MiB address-space cap raised "
            f"{outcome['error']} in {outcome['where']}"
        )
    if not outcome["passed"]:
        raise Mismatch(f"verify_all({m}) in a capped child reported failing checks")
    return outcome


class Battery(Workload):
    name = "battery-large"
    # verify_all(32) needs about 2.2 GB per rank-4 operand; 2 GiB holds m=16 easily
    capped_m, cap_mb = 32, 2048
    # One verify_all(16) varies by 10-20% with machine speed within a process,
    # so a round holds four of them and a run at least eight.
    verifies_per_round = 4
    expected_failed_share = Fraction(1, verifies_per_round + 1)

    def __init__(self, eq, seed: int, quick: bool):
        super().__init__(eq, seed, quick)
        self.m = 4 if quick else 16

    def verify_setup(self) -> None:
        refs = Refs(self.m)
        check_ext_data(self.eq.extended.ExtData.build(self.m), refs, self.rng)
        check_gauss(self.eq.arith, refs.kappa)

    def prepare(self):
        m, formulas = self.m, self.eq.formulas
        verify = Op("verify_all", lambda: formulas.verify_all(m), lambda r: check_report(r, m))
        capped = Op(f"verify_all_{self.capped_m}_capped",
                    lambda: capped_verify(self.capped_m, self.cap_mb), lambda r: None, child=True)
        return [[verify] * self.verifies_per_round + [capped]]


# -- cli-small ---------------------------------------------------------------


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_json(result, argv) -> dict:
    code, text = result
    expect(code == 0, f"{' '.join(argv)} exited {code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise Mismatch(f"{' '.join(argv)} printed invalid JSON") from None


class Cli(Workload):
    name = "cli-small"
    entry_module = "equifuse.cli"
    pool_rounds = 4

    def __init__(self, eq, seed: int, quick: bool):
        super().__init__(eq, seed, quick)
        self.ms = (2, 4) if quick else (2, 4, 6, 8)

    def prepare(self):
        self.refs = {m: Refs(m) for m in self.ms}
        self.expected = {m: self._expected_tables(r) for m, r in self.refs.items()}
        return [self._round() for _ in range(self.pool_rounds)]

    def _expected_tables(self, r: Refs) -> dict:
        m = r.m
        d_labels = [f"V{i}" for i in range(r.delta + 1)]
        table_d = {(d_labels[x], d_labels[y], d_labels[z], 1) for x, y, z in zip(*np.nonzero(r.n))}
        table_c = {(r.labels[x], r.labels[y], r.labels[z], int(r.lt[x, y, z]))
                   for x, y, z in zip(*np.nonzero(r.lt))}
        s_d = {(d_labels[i], d_labels[j]): r.s(i, j)
               for i in range(r.delta + 1) for j in range(r.delta + 1)}
        e_tok = [f"l:{lab.removeprefix('X')}" for lab in r.e_labels]
        s_ee = {}
        for a, i in enumerate(range(0, 2 * m, 2)):
            for b, j in enumerate(range(0, 2 * m, 2)):
                s_ee[e_tok[a], e_tok[b]] = 2 * r.s(i, j)
            for p in (m, m + 1):
                s_ee[e_tok[a], e_tok[p]] = s_ee[e_tok[p], e_tok[a]] = r.s(2 * m, i)
        s_ee[e_tok[m], e_tok[m]] = s_ee[e_tok[m + 1], e_tok[m + 1]] = float(r.diag)
        s_ee[e_tok[m], e_tok[m + 1]] = s_ee[e_tok[m + 1], e_tok[m]] = float(r.cross)
        s_ea = {(f"l:{j}", f"al:{p}"): 2 * r.s(j, p)
                for j in range(1, 2 * m, 2) for p in range(0, 2 * m, 2)}
        return {"table-c": table_c, "table-d": table_d, "d": s_d, "c-ee": s_ee, "c-ea": s_ea}

    def _round(self) -> list[Op]:
        ops = []
        for m in self.ms:
            base = ["--m", str(m)]
            ops.append(self._op(["verify", *base, "--json"], self._check_verify_json))
            ops.append(self._op(["verify", *base], self._check_verify_text))
            ops.append(self._op(["table", *base, "--json"], self._check_table))
            ops.append(self._op(["table", *base, "--ring", "d", "--json"], self._check_table))
            for which in ("d", "c-ee", "c-ea"):
                ops.append(self._op(["smatrix", *base, "--which", which, "--json"],
                                    self._check_smatrix))
            for formula in ("oracle", "verlinde", "ext-e", "ext-a"):
                argv, want = self._coeff_query(m, formula)
                ops.append(self._op(argv, lambda res, argv, want=want:
                                    self._check_coeff(res, argv, want)))
        self.rng.shuffle(ops)
        return ops

    def _op(self, argv: list[str], check) -> Op:
        cli = self.eq.cli
        return Op(f"cli {argv[0]}", lambda: run_cli(cli, argv), lambda res: check(res, argv))

    def _coeff_query(self, m: int, formula: str) -> tuple[list[str], int]:
        r, rng = self.refs[m], self.rng
        if formula == "verlinde":
            i, j = rng.randrange(r.delta + 1), rng.randrange(r.delta + 1)
            support = np.nonzero(r.n[i, j])[0]
            k = int(rng.choice(support)) if rng.random() < 0.5 else rng.randrange(r.delta + 1)
            tokens, want = (str(i), str(j), str(k)), int(r.n[i, j, k])
        else:
            if formula == "oracle":
                x, y = rng.choice(r.labels), rng.choice(r.labels)
                z = rng.choice(r.labels)
            elif formula == "ext-e":
                x = rng.choice(r.e_labels)
                pool = r.odd_labels if rng.random() < 0.75 else r.e_labels
                y, z = rng.choice(pool), rng.choice(pool)
            else:  # ext-a
                x, y = rng.choice(r.odd_labels), rng.choice(r.odd_labels)
                z = rng.choice(r.e_labels)
            tokens, want = tuple(t.removeprefix("X") for t in (x, y, z)), r.coeff(x, y, z)
        argv = ["coeff", "--m", str(m), "--formula", formula,
                "--i", tokens[0], "--j", tokens[1], "--k", tokens[2], "--json"]
        return argv, want

    @staticmethod
    def _m(argv) -> int:
        return int(argv[argv.index("--m") + 1])

    def _check_verify_json(self, res, argv) -> None:
        doc = _cli_json(res, argv)
        m = self._m(argv)
        expect(doc["m"] == m and doc["kappa"] == 4 * m + 2, f"verify --json header at m={m}")
        expect(doc["results"] and all(c["passed"] for c in doc["results"]),
               f"verify --json reports a failing check at m={m}")

    def _check_verify_text(self, res, argv) -> None:
        code, text = res
        lines = text.strip().splitlines()
        expect(code == 0, f"{' '.join(argv)} exited {code}")
        expect(bool(re.match(r"^\d+ checks, 0 failed", lines[-1])),
               f"verify summary: {lines[-1]!r}")
        expect(all(line.startswith("PASS") for line in lines[:-1]), "verify printed a FAIL line")

    def _check_table(self, res, argv) -> None:
        doc = _cli_json(res, argv)
        m = self._m(argv)
        key = "table-d" if "d" in argv else "table-c"
        rows = {(r["x"], r["y"], r["z"], r["mult"]) for r in doc["results"]}
        expect(len(rows) == len(doc["results"]), f"{key} repeats rows at m={m}")
        expect(rows == self.expected[m][key], f"{key} differs from the reference at m={m}")

    def _check_smatrix(self, res, argv) -> None:
        doc = _cli_json(res, argv)
        m = self._m(argv)
        which = argv[argv.index("--which") + 1]
        want = self.expected[m][which]
        got = {(r["row"], r["col"]): r["value"] for r in doc["results"]}
        expect(got.keys() == want.keys(), f"smatrix {which} labels at m={m}")
        for key, (re_part, im_part) in got.items():
            expect_close(complex(re_part, im_part), want[key], f"smatrix {which} {key} at m={m}",
                         tol=1e-10)

    def _check_coeff(self, res, argv, want: int) -> None:
        doc = _cli_json(res, argv)
        (row,) = doc["results"]
        expect_close(row["value"], want, " ".join(argv))
        expect(row["nearest"] == want, f"{' '.join(argv)}: nearest {row['nearest']} != {want}")


# -- library-m64: shared set-up ------------------------------------------------


class Library(Workload):
    has_setup = True

    def __init__(self, eq, seed: int, quick: bool):
        super().__init__(eq, seed, quick)
        self.m = 8 if quick else 64
        self.ext = None

    def build(self) -> None:
        self.ext = None  # release the previous build before timing the next
        self.ext = self.eq.extended.ExtData.build(self.m)

    def prepare(self):
        self.refs = Refs(self.m)
        return [self._round() for _ in range(self.pool_rounds)]

    def verify_setup(self) -> None:
        check_ext_data(self.ext, self.refs, self.rng)
        check_gauss(self.eq.arith, self.refs.kappa)

    def _round(self) -> list[Op]:
        raise NotImplementedError


# -- library-m64-points --------------------------------------------------------


class LibraryPoints(Library):
    name = "library-m64-points"
    pool_rounds = 16
    per_kind = 8

    def _round(self) -> list[Op]:
        makers = (self._coeff, self._product, self._verlinde, self._s_from_twists,
                  self._ee_verlinde, self._ext_e, self._ext_a, self._folded_sum,
                  self._via_gauss, self._via_twists)
        ops = [make() for make in makers for _ in range(self.per_kind)]
        self.rng.shuffle(ops)
        return ops

    def _coeff(self) -> Op:
        r, rng = self.refs, self.rng
        x, y = rng.choice(r.labels), rng.choice(r.labels)
        support = [r.labels[z] for z in np.nonzero(r.lt[r.index[x], r.index[y]])[0]]
        z = rng.choice(support) if rng.random() < 0.5 else rng.choice(r.labels)
        want = r.coeff(x, y, z)
        return Op("ring.coeff", lambda: self.ext.ring.coeff(x, y, z),
                  lambda got: expect(got == want, f"coeff({x},{y},{z}) = {got}, want {want}"))

    def _product(self) -> Op:
        r, rng = self.refs, self.rng
        x, y = rng.choice(r.labels), rng.choice(r.labels)
        row = r.lt[r.index[x], r.index[y]]
        want = {r.labels[z]: int(row[z]) for z in np.nonzero(row)[0]}
        return Op("ring.product", lambda: self.ext.ring.product(x, y),
                  lambda got: expect(got == want, f"product({x},{y}) = {got}, want {want}"))

    def _verlinde(self) -> Op:
        r, rng = self.refs, self.rng
        i, j = rng.randrange(r.delta + 1), rng.randrange(r.delta + 1)
        support = np.nonzero(r.n[i, j])[0]
        k = int(rng.choice(support)) if rng.random() < 0.5 else rng.randrange(r.delta + 1)
        want = int(r.n[i, j, k])
        return Op("sl2.verlinde_coeff", lambda: self.ext.d.verlinde_coeff(i, j, k),
                  lambda got: expect_close(got, want, f"verlinde_coeff({i},{j},{k})"))

    def _s_from_twists(self) -> Op:
        r, rng = self.refs, self.rng
        i, j = rng.randrange(r.delta + 1), rng.randrange(r.delta + 1)
        want = r.s(i, j)
        return Op("sl2.s_from_twists", lambda: self.ext.d.s_from_twists(i, j),
                  lambda got: expect_close(got, want, f"s_from_twists({i},{j})"))

    def _ring_agrees(self, value: float, x, y, z, what: str) -> None:
        """Property: a Verlinde-type evaluator rounds to TypeDRing.coeff."""
        oracle = self.ext.ring.coeff(x, y, z)
        expect(round(value) == oracle and abs(value - oracle) < TOL,
               f"{what} = {value!r} does not round to ring.coeff = {oracle}")

    def _evaluator(self, kind: str, x, y, z) -> Op:
        want = self.refs.coeff(x, y, z)
        formulas = self.eq.formulas
        what = f"{kind}({x},{y},{z})"

        def check(got):
            expect_close(got, want, what)
            self._ring_agrees(got, x, y, z, what)

        return Op(kind, lambda: getattr(formulas, kind)(self.ext, x, y, z), check)

    def _ee_verlinde(self) -> Op:
        e = self.refs.e_labels
        return self._evaluator("ee_verlinde_coeff", *(self.rng.choice(e) for _ in range(3)))

    def _ext_e(self) -> Op:
        r, rng = self.refs, self.rng
        pool = r.odd_labels if rng.random() < 0.75 else r.e_labels
        return self._evaluator("ext_coeff_e", rng.choice(r.e_labels), rng.choice(pool),
                               rng.choice(pool))

    def _ext_a(self) -> Op:
        r, rng = self.refs, self.rng
        return self._evaluator("ext_coeff_a", rng.choice(r.odd_labels), rng.choice(r.odd_labels),
                               rng.choice(r.e_labels))

    def _folded_sum(self) -> Op:
        r, rng, m = self.refs, self.rng, self.m
        i, j, k = 2 * rng.randrange(m + 1), rng.randrange(2 * m + 1), rng.randrange(2 * m + 1)
        want = r.folded(i, j, k)

        def check(got):
            lhs, rhs = got
            expect_close(rhs, want, f"folded_sum_sides({i},{j},{k}) sl2 side")
            expect_close(lhs, rhs, f"folded_sum_sides({i},{j},{k}) sides disagree")

        formulas = self.eq.formulas
        return Op("folded_sum_sides", lambda: formulas.folded_sum_sides(self.ext, i, j, k), check)

    def _via_gauss(self) -> Op:
        extended, m, want = self.eq.extended, self.m, self.refs.diag
        return Op("exceptional_diag_via_gauss", lambda: extended.exceptional_diag_via_gauss(m),
                  lambda got: expect_close(got, want, f"split-pair entry via Gauss sums, m={m}"))

    def _via_twists(self) -> Op:
        extended, want = self.eq.extended, self.refs.diag
        return Op("exceptional_diag_via_twists",
                  lambda: extended.exceptional_diag_via_twists(self.ext),
                  lambda got: expect_close(got, want, "split-pair entry via twists"))


# -- library-m64-vectors -------------------------------------------------------

# (left operand size, right operand size, count) per round; b = basis vector,
# s = 8 stratified terms, f = full support.  tensor(f, f) is left out: one
# call takes seconds at m=64 and would leave a run with a handful of samples.
# Basis-vector ops are 39 of the 64 in a round, so the median op sits inside
# that group rather than on the edge between two sizes.
BINARY_MIX = (("b", "b", 6), ("s", "s", 2), ("f", "b", 2), ("f", "s", 1))
SYMMETRIC_MIX = (("b", "b", 6), ("s", "s", 2), ("f", "f", 2))
UNARY_MIX = (("b", 6), ("s", 2), ("f", 2))
SPARSE_TERMS = 8


class LibraryVectors(Library):
    name = "library-m64-vectors"
    pool_rounds = 16

    def prepare(self):
        r = self.refs = Refs(self.m)
        m = self.m
        self.full_basis = [(lab, False) for lab in r.labels]
        fixed = [f"X{i}" for i in range(0, 2 * m, 2)]
        self.untwisted = ([(c, f) for c in fixed for f in (False, True)]
                          + [("X+", False), ("X-", False)])
        self.pair_basis = self.full_basis + [(c, True) for c in fixed]
        self.dims = dict(zip(r.labels, ref.class_dims(m)))
        self.thetas = dict(zip(r.labels, ref.class_twists(m)))
        return [self._round() for _ in range(self.pool_rounds)]

    # operands and their reference arithmetic, on dicts {(class, flipped): coeff}

    def _vector(self, basis: list, size: str) -> dict:
        rng = self.rng
        if size == "b":
            return {rng.choice(basis): 1.0}
        labels = _stratified(rng, basis, SPARSE_TERMS) if size == "s" else basis
        return {lab: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for lab in labels}

    def _ext_vector(self, v: dict):
        extended = self.eq.extended
        return extended.ExtVector({extended.GradedLabel(c, f): x for (c, f), x in v.items()})

    def _ref_tensor(self, x: dict, y: dict) -> dict:
        index, lt = self.refs.index, self.refs.lt
        xs, cx = [index[c] for c, _ in x], np.array(list(x.values()), complex)
        ys, cy = [index[c] for c, _ in y], np.array(list(y.values()), complex)
        out = np.einsum("a,b,abz->z", cx, cy, lt[np.ix_(xs, ys)].astype(float))
        return {(self.refs.labels[z], False): out[z] for z in np.nonzero(np.abs(out) > 1e-12)[0]}

    def _ref_convolve(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for (cx, fx), vx in x.items():
            for (cy, fy), vy in y.items():
                if cx == cy:
                    key = (cx, fx != fy)
                    out[key] = out.get(key, 0) + vx * vy / self.dims[cx]
        return out

    @staticmethod
    def _ref_change_basis(x: dict) -> dict:
        """[[-1/2, 1/2], [1/2, 1/2]] on each (lambda_c, flipped_c) pair; the
        split pair is fixed."""
        out: dict = {}
        for (c, f), v in x.items():
            if c in ("X+", "X-"):
                out[c, f] = out.get((c, f), 0) + v
                continue
            out[c, False] = out.get((c, False), 0) + (v if f else -v) / 2
            out[c, True] = out.get((c, True), 0) + v / 2
        return out

    def _ref_twist(self, x: dict) -> dict:
        return {(c, f): v * self.thetas[c] for (c, f), v in x.items()}

    @staticmethod
    def _ref_pair(x: dict, y: dict) -> complex:
        return sum((v * y.get(k, 0) for k, v in x.items()), 0j)

    @staticmethod
    def _as_dict(vec) -> dict:
        return {(lab.cls, lab.flipped): c for lab, c in vec.items()}

    def _expect_vector(self, got, want: dict, what: str) -> None:
        got = self._as_dict(got)
        scale = max([1.0] + [abs(v) for v in want.values()])
        worst = max((abs(got.get(k, 0) - want.get(k, 0)) for k in got.keys() | want.keys()),
                    default=0.0)
        expect(worst < TOL * scale, f"{what}: off by {worst:.3e}")

    # ops

    def _round(self) -> list[Op]:
        ops = []
        for a, b, count in BINARY_MIX:
            ops += [self._tensor(a, b) for _ in range(count)]
        for a, b, count in SYMMETRIC_MIX:
            ops += [self._convolve(a, b) for _ in range(count)]
            ops += [self._pair(a, b) for _ in range(count)]
        for size, count in UNARY_MIX:
            for _ in range(count):
                ops += [self._change_basis(size), self._change_basis_inverse(size),
                        self._twist_op(size)]
        ops += self._eigen_relations()
        self.rng.shuffle(ops)
        return ops

    def _tensor(self, a: str, b: str) -> Op:
        x, y = self._vector(self.full_basis, a), self._vector(self.full_basis, b)
        want = self._ref_tensor(x, y)
        vx, vy = self._ext_vector(x), self._ext_vector(y)
        what = f"tensor({a}, {b})"

        def check(got):
            self._expect_vector(got, want, what)
            if a == b == "b":  # property: tensor of basis vectors is ring.product
                (lx, _), (ly, _) = next(iter(x)), next(iter(y))
                product = {(lab, False): n for lab, n in self.ext.ring.product(lx, ly).items()}
                self._expect_vector(got, product, f"tensor(lam({lx}), lam({ly})) vs ring.product")

        return Op("ExtData.tensor", lambda: self.ext.tensor(vx, vy), check)

    def _convolve(self, a: str, b: str) -> Op:
        x, y = self._vector(self.untwisted, a), self._vector(self.untwisted, b)
        if a == b == "b" and self.rng.random() < 0.5:
            (c, _), = x
            flip = c not in ("X+", "X-") and self.rng.random() < 0.5
            y = {(c, flip): 1.0}  # same class, so the product is nonzero
        want = self._ref_convolve(x, y)
        vx, vy = self._ext_vector(x), self._ext_vector(y)
        return Op("ExtData.convolve", lambda: self.ext.convolve(vx, vy),
                  lambda got: self._expect_vector(got, want, f"convolve({a}, {b})"))

    def _eigen_relations(self) -> list[Op]:
        """Convolution on the eigenbasis: alpha*alpha = -alpha/dim,
        beta*beta = beta/dim, alpha*beta = 0."""
        c = f"X{2 * self.rng.randrange(self.m)}"
        alpha = self._ref_change_basis({(c, False): 1.0})
        beta = self._ref_change_basis({(c, True): 1.0})
        dim = self.dims[c]
        cases = ((alpha, alpha, {k: -v / dim for k, v in alpha.items()}, "alpha*alpha"),
                 (beta, beta, {k: v / dim for k, v in beta.items()}, "beta*beta"),
                 (alpha, beta, {}, "alpha*beta"))
        ops = []
        for x, y, want, what in cases:
            vx, vy = self._ext_vector(x), self._ext_vector(y)
            ops.append(Op("ExtData.convolve", lambda vx=vx, vy=vy: self.ext.convolve(vx, vy),
                          lambda got, want=want, what=what:
                          self._expect_vector(got, want, f"eigen-relation {what} on {c}")))
        return ops

    def _change_basis(self, size: str) -> Op:
        x = self._vector(self.untwisted, size)
        want = self._ref_change_basis(x)
        vx = self._ext_vector(x)

        def check(got):
            self._expect_vector(got, want, f"change_basis({size})")
            self._expect_vector(self.ext.change_basis_inverse(got), x,
                                f"change_basis_inverse(change_basis({size}))")

        return Op("ExtData.change_basis", lambda: self.ext.change_basis(vx), check)

    def _change_basis_inverse(self, size: str) -> Op:
        x = self._vector(self.untwisted, size)
        vw = self._ext_vector(self._ref_change_basis(x))
        return Op("ExtData.change_basis_inverse", lambda: self.ext.change_basis_inverse(vw),
                  lambda got: self._expect_vector(got, x, f"change_basis_inverse({size})"))

    def _twist_op(self, size: str) -> Op:
        x = self._vector(self.untwisted, size)
        want = self._ref_twist(x)
        vx = self._ext_vector(x)
        return Op("ExtData.twist_op", lambda: self.ext.twist_op(vx),
                  lambda got: self._expect_vector(got, want, f"twist_op({size})"))

    def _pair(self, a: str, b: str) -> Op:
        rng = self.rng
        x, y = self._vector(self.pair_basis, a), self._vector(self.pair_basis, b)
        z = self._vector(self.pair_basis, a)
        s, t = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(-2, 2)
        want = self._ref_pair(x, y)
        vx, vy, vz = self._ext_vector(x), self._ext_vector(y), self._ext_vector(z)
        scale = max(1.0, math.sqrt(len(x) * len(y)))
        what = f"pair({a}, {b})"

        def check(got):
            ext = self.ext
            expect_close(got, want, what, tol=TOL * scale)
            expect_close(ext.pair(vy, vx), got, f"{what} is not symmetric", tol=TOL * scale)
            mixed = ext.pair(s * vx + t * vz, vy)
            expect_close(mixed, s * got + t * ext.pair(vz, vy), f"{what} is not bilinear",
                         tol=TOL * scale * 4)

        return Op("ExtData.pair", lambda: self.ext.pair(vx, vy), check)


WORKLOADS = {cls.name: cls for cls in (Battery, Cli, LibraryPoints, LibraryVectors)}
