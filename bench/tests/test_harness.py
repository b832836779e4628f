"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests

They check that failed checks and raised exceptions are counted without
stopping a run, that an untraced run reports every end-to-end metric, that
the reference computations never enter the package, that tracing restores
every rebound name and changes no result, that traced counts repeat exactly
for a seed, and that ``BENCHMARK.json`` lists the metrics and workloads the
harness reports.
Workloads run at their warm-up preset here, so each call is quick.
"""

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import nilfourier as nf  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, smallest_preset  # noqa: E402

#: Counts a later change may rest a claim on; they must repeat exactly.
EXACT_COUNTS = (
    "fourier.kernel_values.points",
    "fourier.nodes.attempted",
    "fourier.nodes.integrated",
    "tensor_algebra.mul.flops",
    "tensor_algebra.mul.bytes",
    "lie_basis.expand_layer.rows",
)


def small(name: str):
    """The workload at its warm-up preset."""
    workload = WORKLOADS[name]()
    if hasattr(workload, "qspec"):
        workload.qspec = smallest_preset(workload.qspec)
    if hasattr(workload, "convergence_tol"):
        workload.convergence_tol = 1.0  # keep the rerun, never raise on a coarse grid
    return workload


def two_call_seconds(workload) -> float:
    return 2.0 * workload.call_estimate_s / harness.TRACE_SHARE


def rebindable_names() -> dict:
    names = {}
    for holder in spans._package_modules() + [nf.MalcevChart, nf.LayeredBasis]:
        for key, value in vars(holder).items():
            if callable(value):
                names[(getattr(holder, "__name__", holder), key)] = value
    return names


@pytest.mark.parametrize("name", ["signatures", "depth3-trace"])
def test_wrong_expected_value_is_counted_as_failure(name, monkeypatch):
    workload = small(name)
    state = workload.setup(seed=3)
    tally = harness.Tally()
    harness.run_call(workload, state, 0, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    right = workload.expected

    def wrong(state, i, result):
        value = right(state, i, result)
        if isinstance(value, nf.GradedElement):
            return value.scale(2.0)
        return tuple(2.0 * v + 1.0 for v in value)

    monkeypatch.setattr(workload, "expected", wrong)
    for i in range(1, 3):
        harness.run_call(workload, state, i, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.work == workload.work(state)


def test_raised_exception_is_counted_and_run_goes_on(monkeypatch):
    workload = small("signatures")
    state = workload.setup(seed=3)
    call = workload.call

    def flaky(state, i):
        if i == 1:
            raise nf.DimensionMismatch("injected")
        return call(state, i)

    monkeypatch.setattr(workload, "call", flaky)
    tally = harness.Tally()
    for i in range(3):
        harness.run_call(workload, state, i, tally)
    assert (tally.attempted, tally.failed, len(tally.durations)) == (3, 1, 3)
    assert tally.max_abs_err == math.inf


def test_raising_check_is_counted_with_infinite_error(monkeypatch):
    workload = small("signatures")
    state = workload.setup(seed=3)

    def broken(state, i, result, expected):
        raise FloatingPointError("injected")

    monkeypatch.setattr(workload, "check", broken)
    tally = harness.Tally()
    for i in range(2):
        harness.run_call(workload, state, i, tally)
    assert (tally.attempted, tally.failed, tally.work) == (2, 2, 0)
    assert tally.max_abs_err == math.inf


def test_untraced_run_reports_every_end_to_end_metric():
    workload = small("signatures")
    tally, metrics = harness.measure(workload, seed=4, seconds=0.2, import_s=0.0)
    assert tally.attempted == len(tally.references) >= 1
    assert tally.failed == 0
    assert [(name, entry["unit"]) for name, entry in metrics.items()] == [
        (name, unit) for name, unit, _ in harness.END_TO_END
    ]
    assert all(math.isfinite(e["value"]) and e["value"] > 0 for e in metrics.values())


def test_reference_computations_do_not_enter_the_package():
    with spans.Tracer() as tracer:
        reference.small_ops()
        reference.large_arrays()
    assert tracer.spans == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_restores_names_and_changes_no_result(name):
    before = rebindable_names()
    workload = small(name)
    tally, metrics, mismatches = harness.measure_traced(workload, 5, two_call_seconds(workload))
    after = rebindable_names()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tally.attempted == 2
    assert mismatches == 0
    assert metrics["tensor_algebra.mul.calls"]["value"] > 0


def test_tracing_restores_names_when_a_call_raises():
    before = rebindable_names()
    with pytest.raises(nf.DimensionMismatch):
        with spans.Tracer():
            nf.path_signature(nf.GroupSpec(2, 2), nf.PiecewiseLinearPath([[0.0], [1.0]]))
    after = rebindable_names()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    workload = small(name)
    seconds = two_call_seconds(workload)
    first, second = (harness.measure_traced(workload, 11, seconds)[1] for _ in range(2))
    for metric in EXACT_COUNTS:
        assert first[metric]["value"] == second[metric]["value"], metric
    if name != "signatures":
        assert first["fourier.kernel_values.points"]["value"] > 0
        assert first["fourier.nodes.integrated"]["value"] > 0


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in harness.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in spans.PER_LAYER
    ]

