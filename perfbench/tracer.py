"""Span recording around the calls into each equifuse module.

Layers call each other through module-level names (`formulas.check_*`,
`extended.Sl2Data`, `ExtData.build`, ...).  `Tracer.install` replaces each
traced name, in every module that holds it, with a wrapper that records a
span (name, start, end, parent, operation) and restores the originals on
exit.  Nothing under the package is edited, so spans nest as
verify_all -> ExtData.build -> Sl2Data without the program knowing.

While `memory` is set, spans of the functions in `MEMORY_TRACED` also
record their tracemalloc peak above the level at which they started.
Spans carry the id of the benchmark operation that caused them; set-up and
result checks get the ids SETUP_OP and CHECK_OP.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from pathlib import Path

CHECKS = (
    "check_d_unitary",
    "check_d_symmetric",
    "check_d_verlinde",
    "check_d_modular_relation",
    "check_d_s_from_twists",
    "check_d_folds",
    "check_d_n_associative",
    "check_coefficient_folding",
    "check_ring_associative",
    "check_ring_dimension_hom",
    "check_ring_flip_invariant",
    "check_ring_unit_dual",
    "check_ext_unitary",
    "check_exceptional_routes",
    "check_ee_verlinde",
    "check_ext_even",
    "check_ext_odd",
    "check_diagonalization",
    "check_conv_eigenbasis",
    "check_folded_sum",
)
CONSTRUCTORS = ("sl2.Sl2Data", "ring.TypeDRing", "extended.ExtData")
VECTOR_OPS = tuple(
    f"extended.ExtData.{op}"
    for op in ("tensor", "convolve", "change_basis", "change_basis_inverse", "twist_op", "pair")
)
POINT_EVALUATORS = (
    "formulas.ee_verlinde_coeff",
    "formulas.ext_coeff_e",
    "formulas.ext_coeff_a",
    "formulas.folded_sum_sides",
    "ring.TypeDRing.coeff",
    "ring.TypeDRing.product",
    "sl2.Sl2Data.verlinde_coeff",
    "sl2.Sl2Data.s_from_twists",
    "extended.exceptional_diag_via_gauss",
    "extended.exceptional_diag_via_twists",
    "arith.gauss_sum",
    "arith.gauss_sum_reciprocal",
)
ENTRY_POINTS = ("formulas.verify_all", "cli.main")
CHECK_SPANS = tuple(f"formulas.{c}" for c in CHECKS)
MEMORY_TRACED = CHECK_SPANS + CONSTRUCTORS

# Stats reported for each traced name, in the order BENCHMARK.json lists them.
LAYER_STATS = (
    [(name, ("self_s", "peak_mb")) for name in CHECK_SPANS]
    + [(name, ("self_s", "calls", "peak_mb")) for name in CONSTRUCTORS]
    + [("ring.TypeDRing.combined_tensor", ("self_s", "calls"))]
    + [(name, ("self_s", "calls", "us_per_call")) for name in VECTOR_OPS]
    + [(name, ("self_s", "calls", "us_per_call")) for name in POINT_EVALUATORS]
    + [(name, ("self_s", "calls", "us_per_call")) for name in ENTRY_POINTS]
)
UNITS = {"self_s": "s", "calls": "count", "us_per_call": "us", "peak_mb": "MB"}


SETUP_OP = -1  # spans recorded while the workload sets up
CHECK_OP = -2  # spans recorded while the benchmark checks a result; not reported


class Tracer:
    """In-memory span recorder.  A span is the tuple (name id, start ns,
    end ns, parent span index or -1, operation id, self ns)."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.spans: list = []
        self.peaks: dict[str, int] = {}  # name -> bytes
        self.memory = False
        self.op = SETUP_OP
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._mem_stack: list[list[int]] = []  # [base bytes, peak bytes]

    # -- recording ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        track_memory = name in MEMORY_TRACED

        def traced(*args, **kwargs):
            mem = self.memory and track_memory
            if mem:
                self._mem_enter()
            parent = stack[-1][0] if stack else -1
            entry = [len(spans), 0]
            spans.append(None)
            stack.append(entry)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[entry[0]] = (name_id, start, end, parent, self.op, duration - entry[1])
                if stack:
                    stack[-1][1] += duration
                if mem:
                    self._mem_exit(name)

        traced.__wrapped__ = fn
        return traced

    def _mem_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, current])

    def _mem_exit(self, name: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        base, inner_peak = self._mem_stack.pop()
        inner_peak = max(inner_peak, peak)
        self.peaks[name] = max(self.peaks.get(name, 0), inner_peak - base)
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], inner_peak)
        tracemalloc.reset_peak()

    @contextlib.contextmanager
    def memory_pass(self):
        """Record tracemalloc peaks for the block.  Spans recorded meanwhile
        are dropped, since tracemalloc slows every allocation."""
        first = len(self.spans)
        tracemalloc.start()
        self.memory = True
        try:
            yield
        finally:
            self.memory = False
            tracemalloc.stop()
            del self.spans[first:]

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Wrap every traced name for the duration of the block."""
        undo = []
        try:
            for name, _ in LAYER_STATS:
                undo.extend(self._patch(name))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _patch(self, name: str):
        parts = name.split(".")
        module = self.modules[parts[0]]
        if name == "extended.ExtData":  # construction goes through the build classmethod
            cls = module.ExtData
            original = cls.__dict__["build"]
            wrapper = self._wrap(name, cls.build)
            setattr(cls, "build", staticmethod(wrapper))
            return [(cls, "build", original)]
        if len(parts) == 3:  # a method; the class name may already be wrapped
            cls = getattr(module, parts[1])
            cls = getattr(cls, "__wrapped__", cls)
            original = cls.__dict__[parts[2]]
            setattr(cls, parts[2], self._wrap(name, original))
            return [(cls, parts[2], original)]
        # a module-level function or class: patch every module that imported it
        attr = parts[1]
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        patched = []
        for owner in self.modules.values():
            if getattr(owner, attr, None) is original:
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
        return patched

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """name -> {bucket: [calls, total ns, self ns]} for the buckets
        "setup" and "ops"; spans recorded during result checks are left out."""
        out: dict = {}
        for span in self.spans:
            if span is None or span[4] == CHECK_OP:
                continue
            name_id, start, end, _, op, self_ns = span
            bucket = "setup" if op == SETUP_OP else "ops"
            acc = out.setdefault(self.names[name_id], {}).setdefault(bucket, [0, 0, 0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += self_ns
        return out

    def layer_metrics(self, setups: int, completed_ops: int) -> dict:
        """Per-layer metrics for one set-up plus one operation: self seconds
        and calls per set-up plus per completed operation, inclusive
        microseconds per call, and the tracemalloc peak."""
        totals = self.totals()
        out = {}
        for name, stats in LAYER_STATS:
            buckets = totals.get(name, {})
            setup = buckets.get("setup", [0, 0, 0])
            ops = buckets.get("ops", [0, 0, 0])
            calls = setup[0] + ops[0]
            values = {
                "self_s": 1e-9 * (setup[2] / max(setups, 1) + ops[2] / max(completed_ops, 1)),
                "calls": setup[0] / max(setups, 1) + ops[0] / max(completed_ops, 1),
                "us_per_call": 1e-3 * (setup[1] + ops[1]) / calls if calls else 0.0,
                "peak_mb": self.peaks.get(name, 0) / 2**20,
            }
            for stat in stats:
                out[f"{name}.{stat}"] = {"value": values[stat], "unit": UNITS[stat]}
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["layers"] = {
            name: {bucket: dict(zip(("calls", "total_ns", "self_ns"), acc))
                   for bucket, acc in buckets.items()}
            for name, buckets in self.totals().items()
        }
        payload["peak_bytes"] = self.peaks
        payload["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op", "self_ns"]
        payload["span_names"] = self.names
        payload["spans"] = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
