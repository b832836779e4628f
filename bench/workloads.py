"""The four benchmark workloads.

Each workload builds its inputs from a seed in ``setup``, makes one top-level
call into the public API in ``call`` (the timed span), and checks the result of
that call against an independent expectation in ``check`` (outside the timed
span). ``reference`` names the computation of ``reference.py`` whose time,
taken ``reference_reps`` times after each call, is the unit of its call times. Every workload loads a different layer of the package:

- ``heisenberg-plancherel``: the kernel-bound hot path (``kernel_values``
  with large batches through ``hs_norm_sq``);
- ``heisenberg-invert``: the ``trace_shifted`` route with few section pairs
  per node, so per-node overhead and the convergence rerun weigh more;
- ``depth3-trace``: the only group beyond Heisenberg, with a 4-D subgroup
  grid and the prefix-radical polarization;
- ``signatures``: many small, unbatched tensor products and no Fourier code.
"""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

import nilfourier as nf
import reference
from nilfourier import fourier

#: Smallest node count a QuadratureSpec accepts; warm-up calls use it.
MIN_NODES = 8

#: Half-width of the box ``SchwartzFunction.gaussian`` promises decay within,
#: per unit of scale: ``exp(-b^2 / 2) = 1e-12``.
_DECAY_PER_SCALE = math.sqrt(2.0 * 12.0 * math.log(10.0))


def smallest_preset(qspec: nf.QuadratureSpec) -> nf.QuadratureSpec:
    """The same boxes with the fewest nodes a QuadratureSpec accepts."""
    return replace(qspec, h_nodes=MIN_NODES, section_nodes=MIN_NODES, t_nodes=MIN_NODES)


def anisotropic_gaussian(scales: np.ndarray) -> nf.SchwartzFunction:
    """``exp(-sum_i c_i^2 / (2 s_i^2))`` in flat coordinates."""
    scales = np.asarray(scales, dtype=float)

    def evaluator(c: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * np.sum((c / scales) ** 2, axis=-1))

    return nf.SchwartzFunction(
        n=scales.size, evaluator=evaluator, decay_box=_DECAY_PER_SCALE * scales
    )


def _heisenberg_setup(seed: int) -> SimpleNamespace:
    basis = nf.build_layered_basis(nf.GroupSpec(2, 2))
    basis.structure_tensor  # built once per basis and cached on it
    return SimpleNamespace(
        basis=basis, jump=nf.jump_sets(basis), rng=np.random.default_rng(seed)
    )


class HeisenbergPlancherel:
    """``plancherel`` of seeded anisotropic Gaussians on the (2, 2) group."""

    qspec = nf.QuadratureSpec(h_nodes=24, section_nodes=24, t_nodes=32)
    pool = 8
    ratio_tol = 1e-4
    lhs_rtol = 1e-8

    name = "heisenberg-plancherel"
    work_unit = "node"
    call_estimate_s = 6.0
    reference = staticmethod(reference.large_arrays)
    reference_reps = 4

    def setup(self, seed: int, warm: bool = True) -> SimpleNamespace:
        state = _heisenberg_setup(seed)
        scales = state.rng.uniform(0.85, 1.05, size=(self.pool, state.basis.dim))
        state.scales = scales
        state.inputs = [anisotropic_gaussian(s) for s in scales]
        if warm:
            nf.plancherel(state.inputs[0], state.basis, smallest_preset(self.qspec))
        return state

    def work(self, state: SimpleNamespace) -> int:
        return self.qspec.t_nodes ** len(state.jump.T)

    def call(self, state: SimpleNamespace, i: int):
        f = state.inputs[i % self.pool]
        return nf.plancherel(f, state.basis, self.qspec)

    def expected(self, state: SimpleNamespace, i: int, result) -> float:
        """Closed-form squared norm ``prod_i s_i sqrt(pi)``."""
        return float(np.prod(state.scales[i % self.pool] * math.sqrt(math.pi)))

    def check(self, state, i, result, expected) -> tuple[bool, float]:
        err = abs(result["ratio"] - 1.0)
        lhs_ok = abs(result["lhs"] / expected - 1.0) <= self.lhs_rtol
        return bool(lhs_ok and err <= self.ratio_tol), err


class HeisenbergInvert:
    """``invert`` of the unit Gaussian at seeded points of the (2, 2) group,
    with the convergence rerun ``fourier-demo --convergence-tol`` makes."""

    qspec = nf.QuadratureSpec(32, 8.0, 32, 8.0, 32)
    convergence_tol = 1e-4
    pool = 8
    tol = 1e-4

    name = "heisenberg-invert"
    work_unit = "node"
    call_estimate_s = 2.5
    reference = staticmethod(reference.small_ops)
    reference_reps = 50

    def setup(self, seed: int, warm: bool = True) -> SimpleNamespace:
        state = _heisenberg_setup(seed)
        basis = state.basis
        state.f = nf.SchwartzFunction.gaussian(basis.dim)
        # The first point is the identity, the rest are exp of small coordinates.
        coords = state.rng.uniform(-0.3, 0.3, size=(self.pool, basis.dim))
        coords[0] = 0.0
        state.coords = coords
        state.inputs = [nf.exp_t(basis.algebra_element(c)) for c in coords]
        if warm:
            nf.invert(state.f, state.inputs[0], basis, smallest_preset(self.qspec))
        return state

    def work(self, state: SimpleNamespace) -> int:
        # Nodes of the stated grid; the convergence rerun is cost, not work.
        return self.qspec.t_nodes ** len(state.jump.T)

    def call(self, state: SimpleNamespace, i: int):
        x = state.inputs[i % self.pool]
        return nf.invert(
            state.f, x, state.basis, self.qspec, convergence_tol=self.convergence_tol
        )

    def expected(self, state: SimpleNamespace, i: int, result) -> float:
        c = state.coords[i % self.pool]
        return math.exp(-0.5 * float(c @ c))

    def check(self, state, i, result, expected) -> tuple[bool, float]:
        err = abs(result - expected)
        return bool(err <= self.tol), err


class Depth3Trace:
    """One frequency node of the (2, 3) group per call: genericity, the
    Pfaffian, the chart (prefix-radical polarization) and two shifted traces."""

    qspec = nf.QuadratureSpec(h_nodes=10, section_nodes=12)
    pool = 16
    sqrt_det_rtol = 1e-12
    trace_rtol = 1e-10

    name = "depth3-trace"
    work_unit = "node"
    call_estimate_s = 0.8
    reference = staticmethod(reference.large_arrays)
    reference_reps = 1

    def setup(self, seed: int, warm: bool = True) -> SimpleNamespace:
        basis = nf.build_layered_basis(nf.GroupSpec(2, 3))
        basis.structure_tensor
        jump = nf.jump_sets(basis)
        rng = np.random.default_rng(seed)
        state = SimpleNamespace(
            basis=basis,
            jump=jump,
            f=nf.SchwartzFunction.gaussian(basis.dim),
            identity=nf.GradedElement.identity(basis.spec),
            inputs=[],
        )
        t_idx = [basis.flat_index(k, i) for (k, i) in jump.T]
        for _ in range(self.pool):
            # Functionals on the transverse plane, bounded away from the
            # non-generic set ell(3, 1) = 0.
            flat = np.zeros(basis.dim)
            flat[t_idx] = rng.choice([-1.0, 1.0], len(t_idx)) * rng.uniform(0.5, 2.0, len(t_idx))
            x = nf.exp_t(basis.algebra_element(rng.uniform(-0.3, 0.3, basis.dim)))
            state.inputs.append((nf.Functional(basis, flat), x))
        if warm:
            self._node(state, 0, smallest_preset(self.qspec))
        return state

    def work(self, state: SimpleNamespace) -> int:
        return 1

    def _node(self, state: SimpleNamespace, i: int, qspec: nf.QuadratureSpec):
        ell, x = state.inputs[i % self.pool]
        generic = nf.is_generic(ell)
        sd = nf.sqrt_det_d(ell, state.jump)
        chart = nf.chart_for(ell)
        at_identity = nf.trace_shifted(state.f, ell, chart, qspec, state.identity, state.jump)
        shifted = nf.trace_shifted(state.f, ell, chart, qspec, x, state.jump)
        return generic, sd, at_identity, shifted

    def call(self, state: SimpleNamespace, i: int):
        return self._node(state, i, self.qspec)

    def expected(self, state: SimpleNamespace, i: int, result) -> tuple[float, complex]:
        """``|ell(3, 1)|`` and the weighted sum of diagonal kernel values."""
        ell, _ = state.inputs[i % self.pool]
        chart = nf.chart_for(ell)
        # The section grid trace_shifted integrates over.
        scale = fourier._section_scale(ell, state.jump, self.qspec)
        ys, wy = fourier._tensor_grid(
            [(self.qspec.section_nodes, self.qspec.section_halfwidth * scale)] * chart.q
        )
        kv = nf.kernel_values(state.f, ell, chart, self.qspec, ys, ys)
        return abs(ell.coord(3, 1)), complex(np.sum(wy * kv))

    def check(self, state, i, result, expected) -> tuple[bool, float]:
        generic, sd, at_identity, shifted = result
        sd_expected, trace_expected = expected
        err = abs(at_identity - trace_expected)
        finite = all(np.isfinite(v) for v in (sd, at_identity, shifted))
        ok = (
            generic
            and finite
            and abs(sd - sd_expected) <= self.sqrt_det_rtol * sd_expected
            and err <= self.trace_rtol * abs(trace_expected)
        )
        return bool(ok), err


class Signatures:
    """Signature and log-signature of seeded random paths (log-signature use
    case of iisignature, arXiv:1802.08252) on the (2, 4) and (3, 4) groups."""

    groups = ((2, 4), (3, 4))
    min_segments = 8
    max_segments = 64
    paths_per_group = 32
    tol = 1e-10

    name = "signatures"
    work_unit = "path"
    call_estimate_s = 0.035
    reference = staticmethod(reference.small_ops)
    reference_reps = 2

    def setup(self, seed: int, warm: bool = True) -> SimpleNamespace:
        bases = [nf.build_layered_basis(nf.GroupSpec(d, n)) for d, n in self.groups]
        rng = np.random.default_rng(seed)
        # Every seed gets the same mix of groups and segment counts, so the
        # cost of a pass over the pool does not depend on the seed; the seed
        # draws the increments and the order of the paths.
        counts = np.linspace(self.min_segments, self.max_segments, self.paths_per_group)
        inputs = []
        for basis in bases:
            for segments in np.rint(counts).astype(int):
                # Brownian-like scaling keeps signature levels of order one.
                steps = rng.standard_normal((segments, basis.spec.d)) / math.sqrt(segments)
                points = np.vstack([np.zeros(basis.spec.d), np.cumsum(steps, axis=0)])
                inputs.append((basis, nf.PiecewiseLinearPath(points)))
        inputs = [inputs[j] for j in rng.permutation(len(inputs))]
        state = SimpleNamespace(bases=bases, inputs=inputs)
        if warm:
            for basis in bases:
                segment = nf.PiecewiseLinearPath(np.eye(2, basis.spec.d))
                nf.path_signature(basis.spec, segment)
                nf.log_signature(segment, basis)
        return state

    def work(self, state: SimpleNamespace) -> int:
        return 1

    def call(self, state: SimpleNamespace, i: int):
        basis, path = state.inputs[i % len(state.inputs)]
        return nf.path_signature(basis.spec, path), nf.log_signature(path, basis)

    def expected(self, state: SimpleNamespace, i: int, result) -> nf.GradedElement:
        return result[0]

    def check(self, state, i, result, expected) -> tuple[bool, float]:
        basis, _ = state.inputs[i % len(state.inputs)]
        rebuilt = nf.exp_t(basis.algebra_element(result[1]))
        err = rebuilt.max_abs_diff(expected)
        return bool(err <= self.tol), err


WORKLOADS = {
    w.name: w
    for w in (HeisenbergPlancherel, HeisenbergInvert, Depth3Trace, Signatures)
}
