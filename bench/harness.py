"""Measuring loops, correctness checks and the result line of the benchmark.

An untraced run (``--trace 0``) sets the workload up several times, then makes
top-level calls until ``--seconds`` have passed, checking each result outside
its timed span and following each with the workload's reference computation
(``reference.py``), and reports the end-to-end metrics. Call times are given
in units of the reference time measured around them, which takes out most of
the machine's speed drift; wall-clock figures are printed beside them. A
traced run (``--trace 1``) makes a fixed number of calls, each once untraced and once
with every traced function wrapped, requires bit-identical results, and
reports the per-layer metrics derived from the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nilfourier as nf
import spans
from workloads import WORKLOADS

#: End-to-end metrics of an untraced run: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("work_per_ref", "1/ref", "higher"),
    ("call_p50_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Fewest calls for which a run prints the 90th percentile of call times.
P90_MIN_CALLS = 100

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: A traced run makes about this share of ``--seconds`` worth of calls, each
#: once untraced and once traced.
TRACE_SHARE = 0.4

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Tally:
    """Outcome of the calls of one run."""

    durations: list = field(default_factory=list)
    references: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    work: int = 0
    max_abs_err: float = 0.0


def run_call(workload, state, i: int, tally: Tally):
    """Make call ``i``, time it, and check its result outside the timed span.

    A raised exception or a failed check counts as a failure; the run goes
    on. Returns the result, or None when the call raised.
    """
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = workload.call(state, i)
    except Exception:
        tally.durations.append(time.perf_counter() - start)
        tally.failed += 1
        tally.max_abs_err = math.inf
        traceback.print_exc(file=sys.stderr)
        return None
    tally.durations.append(time.perf_counter() - start)
    try:
        ok, err = workload.check(state, i, result, workload.expected(state, i, result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok, err = False, math.inf
    if not math.isfinite(err):
        ok, err = False, math.inf
    if ok:
        tally.work += workload.work(state)
    else:
        tally.failed += 1
        print(f"{workload.name}: check failed on call {i} (error {err!r})", file=sys.stderr)
    tally.max_abs_err = max(tally.max_abs_err, err)
    return result


def measure(workload, seed: int, seconds: float, import_s: float) -> tuple[Tally, dict]:
    """Untraced run: end-to-end metrics."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - start)
    workload.reference()  # builds the reference's inputs outside the timing
    tally = Tally()
    start = time.perf_counter()
    i = 0
    before = reference_s(workload)
    while i == 0 or time.perf_counter() - start < seconds:
        run_call(workload, state, i, tally)
        after = reference_s(workload)
        # The speed during the call: the mean of the references around it.
        tally.references.append(0.5 * (before + after))
        before = after
        i += 1
    costs = np.asarray(tally.durations) / np.asarray(tally.references)
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    values = {
        "setup_s": import_s + statistics.median(setups),
        "work_per_ref": tally.work / float(np.sum(costs)),
        "call_p50_ref": float(np.percentile(costs, 50)),
        "peak_rss_mb": peak_bytes / 1e6,
    }
    return tally, {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def reference_s(workload) -> float:
    """Wall time of one run of the workload's reference computation, the
    mean of ``reference_reps`` runs made now."""
    start = time.perf_counter()
    for _ in range(workload.reference_reps):
        workload.reference()
    return (time.perf_counter() - start) / workload.reference_reps


def trace_calls(workload, seconds: float) -> int:
    return max(1, int(TRACE_SHARE * seconds / workload.call_estimate_s))


def measure_traced(workload, seed: int, seconds: float) -> tuple[Tally, dict, int]:
    """Traced run: per-layer metrics and the number of traced results that
    differ from their untraced twins.

    Each call is made untraced (and checked), then at once traced, so both
    sides of ``trace.overhead_ratio`` see the same machine load.
    """
    state = workload.setup(seed)
    tracer = spans.Tracer()
    with tracer:
        traced_state = workload.setup(seed, warm=False)
    tally = Tally()
    mismatches = 0
    for i in range(trace_calls(workload, seconds)):
        result = run_call(workload, state, i, tally)
        with tracer, tracer.call(i):
            try:
                traced = workload.call(traced_state, i)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                traced = None
        mismatches += not identical(result, traced)
    traced_s = sum(s.end - s.start for s in tracer.spans if s.name == spans.CALL)
    metrics = spans.layer_metrics(tracer.spans, sum(tally.durations), traced_s)
    return tally, metrics, mismatches


def _arrays(value):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _arrays(value[key])
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, nf.GradedElement):
        yield from value.levels
    else:
        yield np.asarray(value)


def identical(a, b) -> bool:
    """Whether two call results are equal bit for bit."""
    if a is None or b is None:
        return False
    xs, ys = list(_arrays(a)), list(_arrays(b))
    return len(xs) == len(ys) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(xs, ys)
    )


def environment(pinned: dict) -> dict:
    """Thread pinning, machine and library versions behind the numbers."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas_version = None
    return {
        "pinned": {key: os.environ.get(key) for key in pinned},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "git_sha": _git_sha(),
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _report(workload, tally: Tally, metrics: dict, trace: bool) -> None:
    print(f"workload {workload.name}: {tally.attempted} calls, {tally.failed} failed")
    if not trace:
        samples = len(tally.durations)
        ref = f"ref = {workload.reference.__name__} reference time"
        notes = {
            "setup_s": f"imports + median of {SETUP_REPEATS} set-ups",
            "work_per_ref": f"{workload.work_unit}s per ref inside calls",
            "call_p50_ref": f"{samples} samples, {ref}",
        }
        durations = np.asarray(tally.durations)
        costs = durations / np.asarray(tally.references)
        wall = {
            "work_per_s": (tally.work / float(np.sum(durations)), "1/s"),
            "call_p50_s": (float(np.percentile(durations, 50)), "s"),
            "ref_s": (float(np.median(tally.references)), "s"),
            "error_rate": (tally.failed / tally.attempted, "share"),
            "max_abs_err": (tally.max_abs_err, "abs"),
        }
        for name, entry in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<12} {entry['value']:.6g} {entry['unit']}{note}")
        if samples >= P90_MIN_CALLS:
            wall["call_p90_ref"] = (float(np.percentile(costs, 90)), "ref")
            wall["call_p90_s"] = (float(np.percentile(durations, 90)), "s")
        for name, (value, unit) in wall.items():
            print(f"  {name:<12} {value:.6g} {unit}")
    else:
        for name, entry in metrics.items():
            print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")


def run_one(args, pinned: dict, import_s: float) -> int:
    workload = WORKLOADS[args.workload]()
    print("environment " + json.dumps(environment(pinned), sort_keys=True))
    if args.trace:
        tally, metrics, mismatches = measure_traced(workload, args.seed, args.seconds)
        if mismatches:
            print(f"{workload.name}: {mismatches} traced results differ", file=sys.stderr)
        failed = tally.failed + mismatches
    else:
        tally, metrics = measure(workload, args.seed, args.seconds, import_s)
        failed = tally.failed
    _report(workload, tally, metrics, args.trace)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    script = Path(__file__).resolve().parent / "run.py"
    for name in WORKLOADS:
        cmd = [sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        total["correct"] = total["correct"] and part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for metric, entry in part["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv: list[str], pinned: dict, import_s: float) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the nilfourier package.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, pinned, import_s)
