"""In-memory span tracing of the package's public functions.

``Tracer`` rebinds, for the time of a ``with`` block, every module-level name
under which the package's modules look up a traced function (for example both
``nilfourier.tensor_algebra.mul`` and ``nilfourier.fourier.mul``) and the
traced ``MalcevChart`` and ``LayeredBasis`` methods, and restores the
originals on exit. Each traced call becomes a span (name, start, end, parent,
call id) plus the work counts computed from its arguments at that boundary;
per-layer metrics, including self times, are derived from the spans
afterwards. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: Name of the span the benchmark opens around each top-level call.
CALL = "call"

#: Drivers whose frequency nodes are counted.
DRIVERS = ("fourier.invert", "fourier.plancherel")

#: Spans that integrate one frequency node.
INTEGRATORS = ("fourier.trace_shifted", "fourier.hs_norm_sq")

#: Spans counted over set-up as well as calls (they feed ``setup_s``).
SETUP_SPANS = ("lie_basis.build_layered_basis", "coadjoint.jump_sets")

#: (span name, module under ``nilfourier``, attribute, owning class or None)
TARGETS = (
    ("tensor_algebra.mul", "tensor_algebra", "mul", None),
    ("tensor_algebra.exp_t", "tensor_algebra", "exp_t", None),
    ("tensor_algebra.log_t", "tensor_algebra", "log_t", None),
    ("tensor_algebra.scaled_exponential", "tensor_algebra", "scaled_exponential", None),
    ("tensor_algebra.group_inverse", "tensor_algebra", "group_inverse", None),
    ("lie_basis.build_layered_basis", "lie_basis", "build_layered_basis", None),
    ("lie_basis.expand_layer", "lie_basis", "expand_layer", "LayeredBasis"),
    ("signatures.segment_signature", "signatures", "segment_signature", None),
    ("signatures.path_signature", "signatures", "path_signature", None),
    ("signatures.log_signature", "signatures", "log_signature", None),
    ("coadjoint.is_generic", "coadjoint", "is_generic", None),
    ("coadjoint.jump_sets", "coadjoint", "jump_sets", None),
    ("polarization.generic_polarization", "polarization", "generic_polarization", None),
    ("polarization.vergne_polarization", "polarization", "vergne_polarization", None),
    ("fourier.chart.gamma_h", "fourier", "gamma_h", "MalcevChart"),
    ("fourier.chart.section", "fourier", "section", "MalcevChart"),
    ("fourier.chart.decompose", "fourier", "decompose", "MalcevChart"),
    ("fourier.chart_for", "fourier", "chart_for", None),
    ("fourier.kernel_values", "fourier", "kernel_values", None),
    ("fourier.sqrt_det_d", "fourier", "sqrt_det_d", None),
    ("fourier.trace_shifted", "fourier", "trace_shifted", None),
    ("fourier.hs_norm_sq", "fourier", "hs_norm_sq", None),
    ("fourier.invert", "fourier", "invert", None),
    ("fourier.plancherel", "fourier", "plancherel", None),
)

#: Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = (
    ("tensor_algebra.mul.calls", "count", "lower"),
    ("tensor_algebra.mul.self_s", "s", "lower"),
    ("tensor_algebra.mul.elems", "count", "lower"),
    ("tensor_algebra.mul.elems_per_s", "1/s", "higher"),
    ("tensor_algebra.mul.flops", "flop", "lower"),
    ("tensor_algebra.mul.bytes", "bytes", "lower"),
    ("tensor_algebra.exp_t.self_s", "s", "lower"),
    ("tensor_algebra.log_t.self_s", "s", "lower"),
    ("tensor_algebra.scaled_exponential.self_s", "s", "lower"),
    ("tensor_algebra.group_inverse.self_s", "s", "lower"),
    ("lie_basis.expand_layer.calls", "count", "lower"),
    ("lie_basis.expand_layer.rows", "count", "lower"),
    ("lie_basis.expand_layer.self_s", "s", "lower"),
    ("lie_basis.expand_layer.rows_per_s", "1/s", "higher"),
    ("lie_basis.build_layered_basis.self_s", "s", "lower"),
    ("coadjoint.jump_sets.self_s", "s", "lower"),
    ("fourier.kernel_values.calls", "count", "lower"),
    ("fourier.kernel_values.self_s", "s", "lower"),
    ("fourier.kernel_values.points", "count", "lower"),
    ("fourier.kernel_values.points_per_s", "1/s", "higher"),
    ("fourier.chart.gamma_h.self_s", "s", "lower"),
    ("fourier.chart.section.self_s", "s", "lower"),
    ("fourier.chart.decompose.self_s", "s", "lower"),
    ("fourier.chart_for.calls", "count", "lower"),
    ("fourier.chart_for.self_s", "s", "lower"),
    ("polarization.generic_polarization.self_s", "s", "lower"),
    ("polarization.vergne_polarization.self_s", "s", "lower"),
    ("coadjoint.is_generic.calls", "count", "lower"),
    ("coadjoint.is_generic.self_s", "s", "lower"),
    ("fourier.sqrt_det_d.self_s", "s", "lower"),
    ("fourier.trace_shifted.self_s", "s", "lower"),
    ("fourier.hs_norm_sq.self_s", "s", "lower"),
    ("fourier.driver.self_s", "s", "lower"),
    ("fourier.nodes.attempted", "count", "lower"),
    ("fourier.nodes.integrated", "count", "lower"),
    ("fourier.node_yield", "ratio", "higher"),
    ("fourier.invert.nodes_per_call", "count", "lower"),
    ("signatures.path_signature.self_s", "s", "lower"),
    ("signatures.log_signature.self_s", "s", "lower"),
    ("signatures.segment_signature.calls", "count", "lower"),
    ("signatures.segments_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "call_id", "counts")

    def __init__(self, name, start, parent, call_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call_id = call_id
        self.counts = ()


# -- work counts, computed from argument and result shapes ------------------


@functools.lru_cache(maxsize=None)
def _mul_flops_per_element(d: int, n: int) -> int:
    # Level k sums k + 1 outer products of d^k multiplies with k additions.
    return sum((2 * k + 1) * d**k for k in range(n + 1))


def _mul_counts(args, result):
    g, h = args[0], args[1]
    elems = sum(lv.size for lv in result.levels)
    batch = result.levels[0].size  # level 0 holds one scalar per batch element
    moved = sum(lv.nbytes for lv in g.levels) + sum(lv.nbytes for lv in h.levels)
    moved += sum(lv.nbytes for lv in result.levels)
    flops = batch * _mul_flops_per_element(result.spec.d, result.spec.N)
    return (("elems", elems), ("flops", flops), ("bytes", moved))


def _expand_counts(args, result):
    tensors = np.asarray(args[2])
    return (("rows", tensors.size // tensors.shape[-1]),)


def _kernel_counts(args, result):
    chart, qspec = args[2], args[3]
    return (("points", result.shape[0] * qspec.h_nodes**chart.q_h),)


COUNTERS = {
    "tensor_algebra.mul": _mul_counts,
    "lie_basis.expand_layer": _expand_counts,
    "fourier.kernel_values": _kernel_counts,
}


class Tracer:
    """Records spans of the traced functions while installed (``with``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int | None] = [None]
        self._call_id: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installing and restoring -------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, module, attr, owner in TARGETS:
                mod = importlib.import_module(f"nilfourier.{module}")
                if owner is None:
                    original = getattr(mod, attr)
                    wrapper = self._wrap(name, original)
                    for holder in _package_modules():
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                self._rebind(holder, key, wrapper)
                else:
                    cls = getattr(mod, owner)
                    self._rebind(cls, attr, self._wrap(name, vars(cls)[attr]))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _rebind(self, holder, key, wrapper) -> None:
        self._saved.append((holder, key, vars(holder)[key]))
        setattr(holder, key, wrapper)

    def _restore(self) -> None:
        while self._saved:
            holder, key, original = self._saved.pop()
            setattr(holder, key, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1], self._call_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                if kwargs:
                    args = tuple(signature.bind(*args, **kwargs).arguments.values())
                span.counts = counter(args, result)
            return result

        return wrapper

    @contextmanager
    def call(self, call_id: int):
        """Span of one top-level benchmark call; nested spans carry its id."""
        self._call_id = call_id
        span = Span(CALL, time.perf_counter(), None, call_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._call_id = None


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "nilfourier" or key.startswith("nilfourier."))
    ]


# -- metrics -----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics (``PER_LAYER``) from the spans of one traced run.

    Only spans inside top-level calls count, except ``SETUP_SPANS``, which
    also count during set-up. Self time is a span's duration minus the
    durations of its traced children; rates divide a count by the inclusive
    time of the spans that did the work.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.end - span.start
    self_s, incl, calls, counts = Counter(), Counter(), Counter(), Counter()
    for idx, span in enumerate(spans):
        if span.name == CALL or (span.call_id is None and span.name not in SETUP_SPANS):
            continue
        duration = span.end - span.start
        self_s[span.name] += duration - children[idx]
        incl[span.name] += duration
        calls[span.name] += 1
        for key, value in span.counts:
            counts[f"{span.name}.{key}"] += value

    nodes = _node_counts(spans)
    signature_s = sum(
        s.end - s.start
        for s in spans
        if s.name.startswith("signatures.")
        and s.parent is not None
        and spans[s.parent].name == CALL
    )
    values = {
        "fourier.driver.self_s": sum(self_s[d] for d in DRIVERS),
        "fourier.nodes.attempted": nodes["attempted"],
        "fourier.nodes.integrated": nodes["integrated"],
        "fourier.node_yield": _ratio(nodes["integrated"], nodes["attempted"]),
        "fourier.invert.nodes_per_call": _ratio(nodes["invert"], calls["fourier.invert"]),
        "signatures.segments_per_s": _ratio(
            calls["signatures.segment_signature"], signature_s
        ),
        "trace.overhead_ratio": _ratio(traced_s, untraced_s),
    }
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls[base]
        elif field == "self_s":
            values[name] = self_s[base]
        elif field.endswith("_per_s"):
            counted = field[: -len("_per_s")]
            values[name] = _ratio(counts[f"{base}.{counted}"], incl[base])
        else:
            values[name] = counts[name]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def _node_counts(spans: list[Span]) -> Counter:
    """Frequency nodes attempted and integrated.

    A node starts with the genericity test a driver (or the benchmark call
    itself, for a single-node workload) makes; it is integrated when a trace
    or Hilbert-Schmidt integral follows before the next node starts.
    """
    out = Counter()
    open_node: dict[int, bool] = {}
    for span in spans:
        if span.call_id is None or span.parent is None:
            continue
        parent = spans[span.parent].name
        if parent != CALL and parent not in DRIVERS:
            continue
        if span.name == "coadjoint.is_generic":
            out["attempted"] += 1
            out["invert"] += parent == "fourier.invert"
            open_node[span.call_id] = False
        elif span.name in INTEGRATORS and open_node.get(span.call_id) is False:
            out["integrated"] += 1
            open_node[span.call_id] = True
    return out
