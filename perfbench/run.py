"""Benchmark of equifuse, driven through its public functions only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick      # every workload and the traced run at tiny sizes
    python3 perfbench/run.py --ladder     # verify_all time and peak RSS for m = 2..24, and m = 32

A run is single-process and closed-loop: one caller, each operation starts
when the previous one returns.  It repeats whole rounds of operations until
`--seconds` have passed.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  End-to-end
times are scaled to reference machine speed by the calibration samples in
calibrate.py; per-layer times are wall times.  The program is imported from
the `src` directory next to this one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
IMPORT_REPEATS = 15  # one fresh-interpreter import varies by about 20%
BUILD_REPEATS = 5  # one ExtData.build(64) varies by about 15%
QUICK_SECONDS = 0.2
LADDER_MS = tuple(range(2, 25, 2))
LADDER_CAP_MB = 4096
# numpy is loaded before the clock starts: its import is no work of equifuse's
# and was the noisiest part of the figure (medians of 7 moved by 20% between
# runs with it, 6% without).
IMPORT_PROBE = (
    "import importlib, sys, time; import numpy; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); importlib.import_module(sys.argv[2]); "
    "print(time.perf_counter() - t)"
)


class ProgramMissing(Exception):
    """The checkout holds no importable equifuse package."""


def load_program():
    """Import equifuse from this checkout's src directory."""
    if not (SRC / "equifuse" / "__init__.py").is_file():
        raise ProgramMissing(f"no equifuse package under {SRC}")
    sys.path.insert(0, str(SRC))
    import equifuse
    from equifuse import arith, cli, extended, formulas, ring, sl2

    if Path(equifuse.__file__).resolve().parent != SRC / "equifuse":
        raise ProgramMissing(f"equifuse was imported from {equifuse.__file__}, not {SRC}")
    return argparse.Namespace(equifuse=equifuse, arith=arith, sl2=sl2, ring=ring,
                              extended=extended, formulas=formulas, cli=cli)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- measurement ---------------------------------------------------------------


def at_reference_speed(cal, fn) -> float:
    """Run fn, which returns the seconds it measured, between two calibration
    samples; return those seconds scaled to reference speed."""
    cal.sample()
    t0 = time.perf_counter_ns()
    seconds = fn()
    t1 = time.perf_counter_ns()
    cal.sample()
    return seconds * cal.scale(t0, t1)


def child_import_seconds(module: str) -> float:
    """Time to import `module` in a fresh interpreter that has already
    loaded numpy, measured inside it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), module],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def build_seconds(workload) -> float:
    t0 = time.perf_counter()
    workload.build()
    return time.perf_counter() - t0


def setup_seconds(workload, cal, quick: bool = False) -> float:
    """Median import time over IMPORT_REPEATS fresh interpreters plus median
    time of BUILD_REPEATS builds of the workload's data, at reference speed;
    one of each when `quick`."""
    imports = [at_reference_speed(cal, lambda: child_import_seconds(workload.entry_module))
               for _ in range(1 if quick else IMPORT_REPEATS)]
    builds = [at_reference_speed(cal, lambda: build_seconds(workload))
              for _ in range(1 if quick else BUILD_REPEATS)]
    return statistics.median(imports) + statistics.median(builds)


@dataclass
class Phase:
    latencies: list = field(default_factory=list)  # seconds at reference speed
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    faults: Counter = field(default_factory=Counter)
    mismatches: list = field(default_factory=list)
    op_log: list = field(default_factory=list)  # (id, kind, start ns, end ns, ok) when traced

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def measure(pool, seconds: float, cal, tracer=None, first_id: int = 0) -> Phase:
    """Run whole rounds from `pool` until `seconds` have passed.  An op that
    raises counts as failed and its time is left out; a wrong result is a
    mismatch.  Latencies are scaled to reference speed by the calibration
    samples taken around each op."""
    from tracer import CHECK_OP
    from workloads import Mismatch

    phase = Phase()
    spans = []
    cal.sample()
    deadline = time.perf_counter() + seconds
    while True:
        for op in pool[phase.rounds % len(pool)]:
            op_id = first_id + phase.attempted
            phase.attempted += 1
            if tracer:
                tracer.begin_op(op_id)
            t0 = time.perf_counter_ns()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation; the run goes on
                phase.failed += 1
                phase.faults[f"{op.kind}: {type(exc).__name__}: {exc}"] += 1
                if tracer:
                    phase.op_log.append((op_id, op.kind, t0, time.perf_counter_ns(), False))
                cal.maybe_sample()
                continue
            t1 = time.perf_counter_ns()
            spans.append((t0, t1))
            if tracer:
                phase.op_log.append((op_id, op.kind, t0, t1, True))
                tracer.begin_op(CHECK_OP)
            try:
                op.check(out)
            except Mismatch as exc:
                phase.mismatches.append(f"{op.kind}: {exc}")
            cal.maybe_sample()
        phase.rounds += 1
        if time.perf_counter() >= deadline:
            break
    cal.sample()
    phase.latencies = [(t1 - t0) * 1e-9 * cal.scale(t0, t1) for t0, t1 in spans]
    return phase


def prepare(workload, errors: list):
    from workloads import Mismatch

    pool = workload.prepare()
    try:
        workload.verify_setup()
    except Mismatch as exc:
        errors.append(f"set-up: {exc}")
    return pool


def run_untraced(workload, seconds: float, quick: bool = False) -> dict:
    from calibrate import Calibrator

    cal = Calibrator()
    setup_s = setup_seconds(workload, cal, quick)
    errors: list = []
    pool = prepare(workload, errors)
    phase = measure(pool, seconds, cal)
    if not phase.latencies:
        raise RuntimeError(f"{workload.name}: no operation completed")
    report(workload.name, phase, errors, cal)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_median_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {"correct": not (errors or phase.mismatches), "attempted": phase.attempted,
            "failed": phase.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_traced(workload, seconds: float, eq, trace_path: Path) -> dict:
    """An untraced phase, a tracemalloc pass over one set-up and one round,
    then a traced set-up and a traced phase of the same length as the first."""
    from calibrate import Calibrator
    from tracer import SETUP_OP, Tracer

    cal = Calibrator()
    errors: list = []
    workload.build()
    pool = prepare(workload, errors)
    plain = measure(pool, seconds, cal)
    tracer = Tracer(dict(vars(eq)))
    memory_pass_faults = []
    with tracer.install():
        with tracer.memory_pass():
            workload.build()
            distinct = {id(op): op for op in pool[0]}.values()  # a round may repeat an op
            for op in distinct:
                if op.child:
                    continue
                try:
                    op.call()
                except Exception as exc:  # already counted by the phases
                    memory_pass_faults.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        tracer.begin_op(SETUP_OP)
        workload.build()
        traced = measure(pool, seconds, cal, tracer, first_id=plain.attempted)
    if not (plain.latencies and traced.latencies):
        raise RuntimeError(f"{workload.name}: no operation completed")
    overhead = plain.ops_per_s / traced.ops_per_s - 1
    print(f"tracing overhead: {overhead:+.1%} "
          f"({plain.ops_per_s:.6g} ops/s untraced, {traced.ops_per_s:.6g} ops/s traced, "
          f"both at reference speed)")
    metrics = tracer.layer_metrics(setups=int(workload.has_setup),
                                   completed_ops=len(traced.latencies))
    tracer.write(trace_path, {
        "workload": workload.name,
        "overhead": {"untraced_ops_per_s": plain.ops_per_s, "traced_ops_per_s": traced.ops_per_s,
                     "ratio": overhead},
        "memory_pass_faults": memory_pass_faults,
        "ops_fields": ["id", "kind", "start_ns", "end_ns", "ok"],
        "ops": traced.op_log,
        "metrics": metrics,
    })
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    phase = merge(plain, traced)
    report(workload.name, phase, errors, cal)
    return {"correct": not (errors or phase.mismatches), "attempted": phase.attempted,
            "failed": phase.failed, "metrics": metrics}


def merge(a: Phase, b: Phase) -> Phase:
    return Phase(latencies=a.latencies + b.latencies, attempted=a.attempted + b.attempted,
                 failed=a.failed + b.failed, rounds=a.rounds + b.rounds,
                 faults=a.faults + b.faults, mismatches=a.mismatches + b.mismatches)


def report(name: str, phase: Phase, errors: list, cal) -> None:
    print(f"{name}: {phase.rounds} rounds, {phase.attempted} operations attempted, "
          f"{phase.failed} failed; calibration kernel median "
          f"{statistics.median(cal.samples) * 1e3:.3f} ms over {len(cal.samples)} samples")
    for fault, count in sorted(phase.faults.items()):
        print(f"  failed x{count}: {fault}")
    problems = errors + phase.mismatches
    for line in problems[:10]:
        print(f"  WRONG: {line}", file=sys.stderr)
    if len(problems) > 10:
        print(f"  ... {len(problems) - 10} more wrong results", file=sys.stderr)


# -- modes -------------------------------------------------------------------------


def run_one(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    eq = load_program()
    workload = WORKLOADS[args.workload](eq, args.seed, quick=False)
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        out = run_traced(workload, args.seconds, eq, path)
    else:
        out = run_untraced(workload, args.seconds)
    print(json.dumps(out))
    return 0


def run_quick() -> int:
    """Every workload, untraced and traced, at tiny sizes."""
    from workloads import WORKLOADS

    eq = load_program()
    ok = True
    for name, cls in WORKLOADS.items():
        untraced = run_untraced(cls(eq, 1, quick=True), QUICK_SECONDS, quick=True)
        traced = run_traced(cls(eq, 1, quick=True), QUICK_SECONDS, eq,
                            OUT / f"quick-trace-{name}.json")
        good = (untraced["correct"] and traced["correct"]
                and untraced["failed"] == untraced["attempted"] * cls.expected_failed_share
                and len(traced["metrics"]) > 0)
        ok &= good
        summary = {k: round(v["value"], 6) for k, v in untraced["metrics"].items()}
        print(f"quick {name}: {'ok' if good else 'FAILED'} {json.dumps(summary)}")
    print(json.dumps({"quick": "ok" if ok else "failed"}))
    return 0 if ok else 1


def capped_child(m: int, cap_mb: int) -> int:
    """verify_all(m) with the address space capped at cap_mb MiB; prints one
    JSON line with the outcome."""
    cap = cap_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    outcome = {"m": m, "cap_mb": cap_mb, "passed": False, "error": None, "where": None}
    eq = load_program()
    t0 = time.perf_counter()
    try:
        outcome["passed"] = eq.formulas.verify_all(m).all_passed
    except MemoryError as exc:
        frames = [f.name for f in traceback.extract_tb(exc.__traceback__)
                  if str(SRC) in f.filename]
        outcome["error"] = f"MemoryError: {exc}"
        outcome["where"] = frames[-1] if frames else "?"
    outcome["seconds"] = time.perf_counter() - t0
    outcome["max_rss_mb"] = peak_rss_mb()
    print(json.dumps(outcome))
    return 0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu": cpu_model(),
    }


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_ladder() -> int:
    """verify_all(m) in capped children: m = 2..24 under LADDER_CAP_MB, then
    m = 32 under the battery's 2048 MiB cap."""
    from workloads import Battery, run_capped_child

    env = environment()
    print(json.dumps({"environment": env}))
    rows = [(m, LADDER_CAP_MB) for m in LADDER_MS] + [(Battery.capped_m, Battery.cap_mb)]
    outcomes = []
    print("| m | cap MiB | verify_all s | peak RSS MB | outcome |")
    print("|---|---|---|---|---|")
    for m, cap in rows:
        outcome, code = run_capped_child(m, cap)
        if outcome is None:
            outcome = {"m": m, "cap_mb": cap, "error": f"child exited {code}"}
        outcomes.append(outcome)
        status = ("passed" if outcome.get("passed") else "checks failed") if not outcome[
            "error"] else f"{outcome['error'].split(':')[0]} in {outcome.get('where')}"
        print(f"| {m} | {cap} | {outcome.get('seconds', float('nan')):.3f} "
              f"| {outcome.get('max_rss_mb', float('nan')):.0f} | {status} |", flush=True)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "ladder.json", "w") as fh:
        json.dump({"environment": env, "ladder": outcomes}, fh, indent=1)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="all workloads at tiny sizes")
    parser.add_argument("--ladder", action="store_true", help="verify_all over m = 2..24 and 32")
    parser.add_argument("--capped-child", type=int, metavar="M", help=argparse.SUPPRESS)
    parser.add_argument("--cap-mb", type=int, default=2048, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.capped_child is not None:
            return capped_child(args.capped_child, args.cap_mb)
        if args.ladder:
            return run_ladder()
        if args.quick:
            return run_quick()
        if not args.workload:
            parser.error("--workload is required")
        return run_one(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
