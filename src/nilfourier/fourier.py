"""Group Fourier transform on truncated tensor groups via induced kernels.

For a generic functional the layer-built (or prefix-radical) polarization
``h`` yields a coordinate chart: an orthonormal reordering of the Malcev basis
listing ``h`` first, whose ordered product of one-parameter exponentials
parametrizes the group with Lebesgue measure as Haar measure. The induced
representation then acts on functions of the section coordinates, and the
operator attached to an integrable function ``f`` has integral kernel

``K_f(x, y) = integral over H of f(x u y^-1) exp(i ell(log u)) du``.

This module computes such kernels numerically (with a per-evaluation affine
reframing of the ``H`` integral that keeps sheared integrands inside a fixed
box -- exact by translation invariance), shifted traces, the square-rooted
skew determinant over the jump indices, the inversion integral over the
transverse frequency plane, and both sides of the Plancherel identity. Charts,
kernels, characters and traces compose group elements in flat Malcev log
coordinates with the group law :meth:`LayeredBasis.bch_coords`; Lie-membership
is certified only where elements enter as dense tensors (the point ``x`` of a
shifted trace). Kernel integrands use the conjugation form ``log(x u y^-1) =
bch(Ad_x log u, log(x y^-1))`` with a per-pair adjoint matrix. The frame of
the reframing is the exact differential of that map, ``B(ad log(x y^-1))
Ad_x`` with ``B(z) = z / (e^z - 1)``, a finite series because ``ad`` is
nilpotent. The leading central block of the subgroup grid only shifts a point
by a central vector, so it is added, and the group law runs once per point of
the rest of the grid. The subgroup character is separable over the axes of the
tensor grid. The per-pair work (frame, group law, phases) runs once per block
of section pairs and ``f`` on sub-chunks of a block, both sized by one budget.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .coadjoint import (
    Functional,
    JumpData,
    _ad_series,
    _bernoulli_series,
    _exp_series,
    is_generic,
    jump_sets,
)
from .errors import (
    DegenerateSpec,
    DimensionMismatch,
    NilfourierError,
    NonConvergence,
    NotGeneric,
    QuadratureUnderflow,
)
from .lie_basis import LayeredBasis, json_number
from .polarization import Subalgebra, generic_polarization, vergne_polarization
from .tensor_algebra import GradedElement, Role, log_t

__all__ = [
    "QuadratureSpec",
    "SchwartzFunction",
    "MalcevChart",
    "KernelOperator",
    "chart_for",
    "character",
    "kernel_values",
    "build_operator",
    "trace_shifted",
    "d_matrix",
    "sqrt_det_d",
    "c_norm",
    "invert",
    "hs_norm_sq",
    "plancherel",
    "haar_invariance_check",
    "thread_count",
]

#: Coordinates (points times algebra dimension) per vectorized array in
#: kernel evaluation. It sizes both the blocks of section pairs that share one
#: pass of per-pair work and the integrand sub-chunks within a block. Arrays
#: much above a megabyte measured slower per point: each chunk then
#: page-faults its fresh temporaries.
_CHUNK_BUDGET = 100_000

#: Monte Carlo samples per vectorized chunk in :func:`haar_invariance_check`.
_HAAR_CHUNK = 250_000


def thread_count() -> int:
    """Worker count from NILFOURIER_THREADS, which must be an integer >= 1."""
    raw = os.environ.get("NILFOURIER_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise NilfourierError(f"NILFOURIER_THREADS must be an integer >= 1, got {raw!r}")
    return count


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and boxes for the three integration stages.

    ``h_*`` controls the polarization-subgroup integral (evaluated in a
    per-pair reframed box), ``section_*`` the section/trace integrals, and
    ``t_*`` the transverse frequency plane. The section box is rescaled per
    functional by ``clamp(1/|ell_T|, 1, section_scale_cap)`` so that traces
    keep uniform coverage and resolution across the frequency plane.
    """

    h_nodes: int = 48
    h_halfwidth: float = 8.0
    section_nodes: int = 48
    section_halfwidth: float = 8.0
    t_nodes: int = 64
    t_halfwidth: float = 8.0
    section_scale_cap: float = 8.0

    def __post_init__(self) -> None:
        for name in ("h_nodes", "section_nodes", "t_nodes"):
            if getattr(self, name) < 8:
                raise DimensionMismatch(f"{name} must be at least 8")
        for name in ("h_halfwidth", "section_halfwidth", "t_halfwidth", "section_scale_cap"):
            if not 0 < getattr(self, name) < math.inf:
                raise DimensionMismatch(f"{name} must be positive and finite")

    @staticmethod
    def reference() -> "QuadratureSpec":
        return QuadratureSpec()

    @staticmethod
    def demo() -> "QuadratureSpec":
        """A light preset for quick structural runs (not accuracy-grade)."""
        return QuadratureSpec(h_nodes=12, section_nodes=12, t_nodes=16)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json_dict(obj: dict) -> "QuadratureSpec":
        # Each field is read as the type of its default.
        casts = {f.name: type(f.default) for f in fields(QuadratureSpec)}
        unknown = set(obj) - set(casts)
        if unknown:
            raise DimensionMismatch(f"unknown quadrature fields: {sorted(unknown)}")
        return QuadratureSpec(
            **{name: json_number(name, value, casts[name]) for name, value in obj.items()}
        )


def _axis(nodes: int, halfwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes and weights on ``[-halfwidth, halfwidth]``."""
    x = np.linspace(-halfwidth, halfwidth, nodes)
    w = np.full(nodes, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def _tensor_grid(axes: list[tuple[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product trapezoid grid: points ``(M, dims)`` and weights ``(M,)``."""
    if not axes:
        return np.zeros((1, 0)), np.ones(1)
    xs, ws = zip(*(_axis(n, L) for n, L in axes))
    mesh = np.meshgrid(*xs, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*ws, indexing="ij")
    w = np.ones(pts.shape[0])
    for wm in wmesh:
        w = w * wm.ravel()
    return pts, w


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SchwartzFunction:
    """A rapidly decaying function of the flat exponential coordinates.

    ``evaluator`` maps arrays of shape ``(..., n)`` to (complex) values; the
    ``decay_box`` half-widths promise ``|f| <= 1e-12 * max|f|`` outside the
    box, which integration stages use to size and sanity-check their grids.
    """

    n: int
    evaluator: object
    decay_box: np.ndarray

    def __post_init__(self) -> None:
        box = np.broadcast_to(np.asarray(self.decay_box, dtype=float), (self.n,)).copy()
        if np.any(box <= 0):
            raise DimensionMismatch("decay box half-widths must be positive")
        object.__setattr__(self, "decay_box", box)

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1] != self.n:
            raise DimensionMismatch(f"coordinates must have trailing size {self.n}")
        return np.asarray(self.evaluator(coords))

    @staticmethod
    def gaussian(n: int, scale: float = 1.0) -> "SchwartzFunction":
        """The isotropic Gaussian ``exp(-|c|^2 / (2 scale^2))``.

        Its decay box solves ``exp(-b^2/(2 scale^2)) = 1e-12``.
        """
        halfwidth = scale * math.sqrt(2.0 * 12.0 * math.log(10.0))

        def evaluator(c: np.ndarray) -> np.ndarray:
            return np.exp(-0.5 * np.sum(c * c, axis=-1) / scale**2)

        return SchwartzFunction(n=n, evaluator=evaluator, decay_box=np.full(n, halfwidth))


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


class MalcevChart:
    """Orthonormal reordering of the Malcev basis adapted to a subalgebra.

    Columns of ``W`` list first a basis of the subalgebra (layer-descending),
    then its orthogonal complement (layer-descending). Every prefix of the
    ordering spans an ideal (checked at construction), so the ordered product
    ``gamma(alpha) = exp(alpha_n W_n) ... exp(alpha_1 W_1)`` is a global chart
    that pushes Lebesgue measure to Haar measure, and leading coordinates can
    be peeled off one exponential at a time.

    The chart maps take and return flat Malcev log coordinates, composed with
    :meth:`LayeredBasis.bch_coords`.
    """

    def __init__(self, basis: LayeredBasis, sub: Subalgebra | None = None):
        self.basis = basis
        n = basis.dim
        if sub is None:
            sub = Subalgebra(basis, np.zeros((0, n)))
        if not sub.is_layer_graded():
            raise NotGeneric("chart construction needs a layer-graded subalgebra")
        h_cols: list[np.ndarray] = []
        s_cols: list[np.ndarray] = []
        for k in range(basis.spec.N, 0, -1):
            sl = basis.layer_slice(k)
            m_k = basis.layers[k - 1].dim
            if m_k == 0:
                continue
            block = sub.vectors[:, sl]
            if block.size:
                u, s, vt = np.linalg.svd(block, full_matrices=True)
                r = int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0
            else:
                vt = np.eye(m_k)
                r = 0
            for v in vt[:r]:
                e = np.zeros(n)
                e[sl] = v
                h_cols.append(e)
            for v in vt[r:]:
                e = np.zeros(n)
                e[sl] = v
                s_cols.append(e)
        self.q_h = len(h_cols)
        self.q = len(s_cols)
        self.W = np.stack(h_cols + s_cols, axis=-1) if (h_cols or s_cols) else np.zeros((n, 0))
        if self.q_h != sub.dim or self.q_h + self.q != n:
            raise NotGeneric("subalgebra is not layer-graded enough to chart")
        brackets = basis.bracket_coords(self.W.T[:, None], self.W.T[None])  # [W_i, W_j]
        # Every prefix spans an ideal exactly when no [W_i, W_j] has a chart
        # coordinate k > j; column j is held to the scale of the prefix ending there.
        leaks = np.abs(brackets @ self.W).max(axis=0)  # [j, k]: max over i
        scale = 1.0 + np.maximum.accumulate(np.abs(brackets).max(axis=(0, 2)))
        bad = np.flatnonzero(np.triu(leaks > 1e-10 * scale[:, None], 1).any(axis=1))
        if bad.size:
            raise NotGeneric(f"chart prefix {bad[0] + 1} does not span an ideal")
        self._commutes = ~np.any(np.abs(brackets) > 1e-12, axis=-1)  # [W_i, W_j] = 0
        # Leading subgroup columns that commute with every column: the central block.
        central = self._commutes[: self.q_h].all(axis=1)
        self.q_c = int(np.logical_and.accumulate(central).sum())

    # -- chart maps (flat log coordinates in, flat log coordinates out) ------

    def _product(self, coeffs: np.ndarray, first: int) -> np.ndarray:
        """Log of ``exp(c_{m-1} W_{first+m-1}) ... exp(c_0 W_first)`` (batched).

        Factors that commute with every other factor just add, and so does the
        leftmost of the rest; the others are composed with
        :meth:`LayeredBasis.bch_coords`, last column first."""
        span = slice(first, first + coeffs.shape[-1])
        cols = self.W[:, span]
        adds = self._commutes[span, span].all(axis=1)
        rest = np.flatnonzero(~adds)[::-1]
        adds[rest[:1]] = True
        z = coeffs[..., adds] @ cols[:, adds].T
        for j in rest[1:]:
            z = self.basis.bch_coords(z, coeffs[..., j, None] * cols[:, j])
        return z

    def gamma(self, alpha: np.ndarray) -> np.ndarray:
        """Log coordinates of the ordered product over all chart coordinates."""
        alpha = np.asarray(alpha, dtype=float)
        n = self.basis.dim
        if alpha.shape[-1] != n:
            raise DimensionMismatch(f"gamma needs {n} coordinates")
        return self._product(alpha, 0)

    def gamma_h(self, a: np.ndarray) -> np.ndarray:
        """Log coordinates of the ordered product over the subalgebra coordinates."""
        a = np.asarray(a, dtype=float)
        if a.shape[-1] != self.q_h:
            raise DimensionMismatch(f"gamma_h needs {self.q_h} coordinates")
        return self._product(a, 0)

    def section(self, y: np.ndarray) -> np.ndarray:
        """Log coordinates of the section point: zero subalgebra coordinates."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.q:
            raise DimensionMismatch(f"section needs {self.q} coordinates")
        return self._product(y, self.q_h)

    def decompose(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split ``exp(c) = section(y) * h`` with ``h`` in the subalgebra's subgroup.

        Peels the section coordinates top-down: the leading chart coordinate
        of the current log is exact because the remaining chart prefix spans
        an ideal. Returns the section coordinates and the log coordinates of
        the subgroup remainder.
        """
        cur = np.asarray(c, dtype=float)
        sec = np.empty(cur.shape[:-1] + (self.q,))
        for j in range(self.basis.dim - 1, self.q_h - 1, -1):
            coeff = cur @ self.W[:, j]
            sec[..., j - self.q_h] = coeff
            cur = self.basis.bch_coords(-coeff[..., None] * self.W[:, j], cur)
        return sec, cur


def chart_for(ell: Functional) -> MalcevChart:
    """Chart from the layer-built polarization, falling back to the
    prefix-radical construction for the degenerate (2, 3) algebra."""
    try:
        sub = generic_polarization(ell)
    except DegenerateSpec:
        sub = vergne_polarization(ell)
    return MalcevChart(ell.basis, sub)


def character(ell: Functional, chart: MalcevChart, a: np.ndarray) -> np.ndarray:
    """Unitary character ``exp(i ell(log gamma_h(a)))`` of the subgroup (batched)."""
    return np.exp(1j * (chart.gamma_h(a) @ ell.flat))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _section_scale(ell: Functional, jump: JumpData, qspec: QuadratureSpec) -> float:
    """Per-functional scaling of the section box.

    Kernels concentrate on a ridge whose width shrinks like ``1/|ell_T|``,
    so the section box must shrink at the same rate: ``box = halfwidth /
    |ell_T|`` keeps a constant number of integrand widths inside the grid at
    every frequency. The same product ``|ell_T| * box`` also bounds the
    subgroup phase rate at the box edge (conjugating the subgroup probe by a
    section point at distance ``w`` amplifies the character's rate by about
    ``|ell_T| * w``), so when the subgroup grid is coarser than the
    reference resolution the box is tightened further to its resolvable
    rate, trading smooth truncation error for wild aliasing error. At the
    reference resolution the tightening factor is one.
    """
    t_idx = [ell.basis.flat_index(k, i) for (k, i) in jump.T]
    norm = float(np.linalg.norm(ell.flat[t_idx])) if t_idx else 0.0
    tighten = min(1.0, _resolvable_rate(qspec) / qspec.section_halfwidth)
    if norm <= 0:
        return qspec.section_scale_cap * tighten
    return float(min(tighten / norm, qspec.section_scale_cap))


def _resolvable_rate(qspec: QuadratureSpec) -> float:
    """Highest phase rate the subgroup grid can sample (90% of Nyquist)."""
    return 0.9 * math.pi * (qspec.h_nodes - 1) / (2.0 * qspec.h_halfwidth)


def _h_phase_rate(ell: Functional, chart: MalcevChart) -> float:
    """Peak oscillation rate of the subgroup integral for this functional.

    The character contributes ``exp(i a . ell_H)`` inside every subgroup
    integral, an oscillation of rate ``|ell_H|`` that no choice of section
    box can slow down. Frequency nodes whose rate exceeds the subgroup
    grid's resolvable rate produce aliased garbage rather than small values,
    so integrators skip them (coarse grids then integrate a smaller resolved
    frequency box, a smooth truncation instead of a wild error).
    """
    ell_h = (ell.flat @ chart.W)[: chart.q_h]
    return float(np.linalg.norm(ell_h))


def _check_h_box(f: SchwartzFunction, qspec: QuadratureSpec) -> None:
    if qspec.h_halfwidth < float(np.max(f.decay_box)):
        raise QuadratureUnderflow(
            f"H box half-width {qspec.h_halfwidth} is smaller than the "
            f"function's decay box {float(np.max(f.decay_box))}"
        )


def kernel_values(
    f: SchwartzFunction,
    ell: Functional,
    chart: MalcevChart,
    qspec: QuadratureSpec,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Kernel ``K_f(section(x), section(y))`` for paired section coordinates.

    ``xs`` and ``ys`` have shape ``(P, q)``; returns complex values ``(P,)``.

    The subgroup integral runs over a per-pair affine reframing ``a = a* +
    R^-1 b`` of the chart coordinates, where ``J = QR`` is the Jacobian of
    ``a -> exp-coords(x gamma_h(a) y^-1)`` at ``a = 0`` and ``a*`` recenters
    the integrand. The substitution is exact (the subgroup's Haar measure is
    Lebesgue in its chart), and it keeps the effective integrand inside the
    fixed box even when large section values shear it.

    Points use the conjugation form ``log(x gamma_h(a) y^-1) = bch(Ad_x log
    gamma_h(a), c0)`` with ``c0 = log(x y^-1)`` after a per-pair matrix
    ``Ad_x``, so the Jacobian is exact: ``J = B(ad c0) Ad_x W_h`` with ``B(z)
    = z / (e^z - 1)``, the differential of ``bch(., c0)`` at zero (Hall,
    *Lie Groups, Lie Algebras, and Representations*, Thm 5.4). The chart's
    leading ``q_c`` subgroup columns ``W_c`` are central and ``R^-1`` is upper
    triangular, so the grid's central block ``b_c`` only adds ``W_c
    R^-1[:q_c, :q_c] b_c`` to a point: one :meth:`LayeredBasis.bch_coords`
    pass per point of the non-central block ``b_r``, then a broadcast sum.
    The character ``exp(i a . ell_h)`` factors over the grid axes, and the
    values are contracted one axis at a time.

    Pairs run in blocks of ``_CHUNK_BUDGET // (max(m_c, m_r, n) n)``, ``m_c``
    and ``m_r`` the point counts of the two grid blocks, so every per-pair
    array of a block fits the budget: one pass of the frame, the group law
    and the phases per block. Within a block ``f`` is evaluated on sub-chunks
    of ``_CHUNK_BUDGET // (m_c m_r n)`` pairs.
    """
    _check_h_box(f, qspec)
    basis = chart.basis
    n = basis.dim
    q_h = chart.q_h
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2:
        xs = xs.reshape(-1, chart.q)
    if ys.ndim != 2:
        ys = ys.reshape(-1, chart.q)
    if xs.shape != ys.shape or xs.shape[1] != chart.q:
        raise DimensionMismatch("xs and ys must pair up with the section dimension")
    P = xs.shape[0]

    nodes, weights = _axis(qspec.h_nodes, qspec.h_halfwidth)
    q_c = chart.q_c
    # The grid points b, coordinates first, split into the leading central
    # block b_c and the rest b_r; the weights enter per axis below.
    grid_c, grid_r = (
        _tensor_grid([(qspec.h_nodes, qspec.h_halfwidth)] * k)[0].T for k in (q_c, q_h - q_c)
    )
    m_c, m_r = grid_c.shape[1], grid_r.shape[1]
    M = m_c * m_r
    w_h = chart.W[:, :q_h]
    ell_h = ell.flat @ w_h
    bch = basis.bch_coords
    exp_coeffs, dlog_coeffs = _exp_series(basis.spec.N), _bernoulli_series(basis.spec.N)

    out = np.empty(P, dtype=complex)
    block = max(1, _CHUNK_BUDGET // (max(m_c, m_r, n) * n))
    chunk = max(1, _CHUNK_BUDGET // (M * n))
    for lo in range(0, P, block):
        hi = min(P, lo + block)
        cx = chart.section(xs[lo:hi])
        c0 = bch(cx, -chart.section(ys[lo:hi]))[:, None]
        if not q_h:
            out[lo:hi] = f(c0[:, 0])
            continue
        ad_x = _ad_series(basis, cx, exp_coeffs)  # (C, n, n)
        # d/da bch(Ad_x log gamma_h(a), c0) at a = 0 is B(ad c0) Ad_x W_h.
        jac = _ad_series(basis, c0[:, 0], dlog_coeffs) @ (ad_x @ w_h)
        qmat, rmat = np.linalg.qr(jac)  # jac: (C, n, q_h)
        diag = np.abs(np.diagonal(rmat, axis1=-2, axis2=-1))
        bad = np.min(diag, axis=-1) <= 1e-12 * np.maximum(np.max(diag, axis=-1), 1.0)
        if np.any(bad):
            rmat = rmat.copy()
            qmat = qmat.copy()
            rmat[bad] = np.eye(q_h)
            qmat[bad] = np.eye(n, q_h)
        rinv = np.linalg.inv(rmat)
        astar = -np.einsum("pij,pj->pi", rinv, np.einsum("pni,pn->pi", qmat, c0[:, 0]))
        det_r = np.abs(np.prod(np.diagonal(rmat, axis1=-2, axis2=-1), axis=-1))
        # R^-1 is upper triangular, so b_c moves only the central coordinates
        # a_c. The group law runs on the points with b_c = 0; u is
        # coordinates-first, (C, n, m_r), so elementwise steps run over the grid.
        apts = np.swapaxes(astar[..., None] + rinv[..., q_c:] @ grid_r, -1, -2)
        u = ad_x @ np.swapaxes(chart.gamma_h(apts), -1, -2)
        pts = bch(np.swapaxes(u, -1, -2), c0)  # (C, m_r, n)
        # Ad_x fixes a central W_c and bch(u + z, c0) = bch(u, c0) + z, so b_c
        # adds W_c R^-1[:q_c, :q_c] b_c, in grid order (b_c, b_r).
        shift = np.swapaxes(w_h[:, :q_c] @ rinv[:, :q_c, :q_c] @ grid_c, -1, -2)
        # exp(i a . ell_h) = exp(i a* . ell_h) prod_k exp(i b_k (R^-T ell_h)_k)
        phases = weights * np.exp(1j * (ell_h @ rinv)[..., None] * nodes)  # (C, q_h, nodes)
        scale = np.exp(1j * (astar @ ell_h)) / det_r
        for s in range(0, hi - lo, chunk):
            e = min(hi - lo, s + chunk)
            vals = f((shift[s:e, :, None] + pts[s:e, None]).reshape(e - s, M, n))
            for k in range(q_h - 1, -1, -1):
                vals = (vals.reshape(e - s, -1, nodes.size) @ phases[s:e, k, :, None])[..., 0]
            out[lo + s : lo + e] = vals[:, 0] * scale[s:e]
    return out


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """A kernel matrix sampled on a section grid, with its quadrature weights."""

    ell: Functional
    chart: MalcevChart
    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray

    def trace_grid(self) -> complex:
        return complex(np.sum(self.weights * np.diagonal(self.matrix)))

    def hermitian_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


def build_operator(
    f: SchwartzFunction,
    ell: Functional,
    chart: MalcevChart,
    qspec: QuadratureSpec,
    jump: JumpData | None = None,
) -> KernelOperator:
    """Sample the kernel on the (adaptively scaled) section grid."""
    if jump is None:
        jump = jump_sets(ell.basis)
    scale = _section_scale(ell, jump, qspec)
    nodes, weights = _tensor_grid(
        [(qspec.section_nodes, qspec.section_halfwidth * scale)] * chart.q
    )
    mq = nodes.shape[0]
    xi, yi = np.meshgrid(np.arange(mq), np.arange(mq), indexing="ij")
    kv = kernel_values(f, ell, chart, qspec, nodes[xi.ravel()], nodes[yi.ravel()])
    return KernelOperator(ell, chart, nodes, weights, kv.reshape(mq, mq))


def _point_coords(basis: LayeredBasis, x: GradedElement) -> np.ndarray:
    """Flat log coordinates of one unbatched group element, certified by
    :meth:`LayeredBasis.flat_coords` to lie in the basis's group."""
    if x.role is not Role.GROUP or x.batch_shape != ():
        raise DimensionMismatch("the point must be one unbatched group element")
    return basis.flat_coords(log_t(x))


def trace_shifted(
    f: SchwartzFunction,
    ell: Functional,
    chart: MalcevChart,
    qspec: QuadratureSpec,
    x: GradedElement,
    jump: JumpData | None = None,
) -> complex:
    """Shifted trace ``integral of K_f(x section(y), section(y)) dy``.

    Decomposes ``x section(y) = section(w) h`` and applies the kernel's
    subgroup equivariance, so only section-to-section kernel values are
    needed: the integrand is ``exp(-i ell(log h)) K_f(section(w), section(y))``.
    """
    basis = chart.basis
    cx = _point_coords(basis, x)
    if jump is None:
        jump = jump_sets(ell.basis)
    scale = _section_scale(ell, jump, qspec)
    ys, wy = _tensor_grid([(qspec.section_nodes, qspec.section_halfwidth * scale)] * chart.q)
    ws, rem = chart.decompose(basis.bch_coords(cx, chart.section(ys)))
    twist = np.exp(-1j * (rem @ ell.flat))
    kv = kernel_values(f, ell, chart, qspec, ws, ys)
    return complex(np.sum(wy * twist * kv))


# ---------------------------------------------------------------------------
# Skew determinant and inversion
# ---------------------------------------------------------------------------


def d_matrix(ell: Functional, jump: JumpData | None = None) -> np.ndarray:
    """Skew pairing matrix over the jump indices, in Malcev order."""
    if jump is None:
        jump = jump_sets(ell.basis)
    idx = [ell.basis.flat_index(k, i) for (k, i) in jump.S]
    return ell.skew[np.ix_(idx, idx)]


def sqrt_det_d(ell: Functional, jump: JumpData | None = None) -> float:
    """``sqrt(|det D|)`` for the jump-index skew matrix ``D``."""
    dmat = d_matrix(ell, jump)
    m = dmat.shape[0]
    if m == 0:
        return 1.0
    if m % 2 == 1:
        return 0.0
    return math.sqrt(abs(np.linalg.det(dmat)))


def c_norm(basis: LayeredBasis, jump: JumpData | None = None) -> float:
    """Inversion normalization ``(2 pi)^-(n - |S|/2)``."""
    if jump is None:
        jump = jump_sets(basis)
    return (2.0 * math.pi) ** (-(basis.dim - len(jump.S) / 2.0))


def _frequency_plane(
    basis: LayeredBasis, jump: JumpData, qspec: QuadratureSpec, t_nodes: int, integrand
) -> list:
    """Weighted parts ``w * sqrt(det D) * integrand(ell, chart)`` of an integral
    over the transverse frequency plane, in node order.

    The plane carries a trapezoid grid of ``t_nodes`` per transverse axis.
    Non-generic nodes (a null set) and nodes with ``sqrt(det D) = 0``
    contribute zero, as do nodes whose subgroup phase rate the grid cannot
    resolve (see :func:`_h_phase_rate`; at the reference resolution no node
    is dropped). Nodes run on NILFOURIER_THREADS workers; the parts come back
    in node order either way, so reductions do not depend on the count.
    """
    pts, wts = _tensor_grid([(t_nodes, qspec.t_halfwidth)] * len(jump.T))
    t_idx = [basis.flat_index(k, i) for (k, i) in jump.T]
    rate_limit = _resolvable_rate(qspec)

    def node(i: int):
        flat = np.zeros(basis.dim)
        flat[t_idx] = pts[i]
        ell = Functional(basis, flat)
        if not is_generic(ell):
            return 0.0
        sd = sqrt_det_d(ell, jump)
        if sd <= 0.0:
            return 0.0
        chart = chart_for(ell)
        if _h_phase_rate(ell, chart) > rate_limit:
            return 0.0
        return wts[i] * sd * integrand(ell, chart)

    workers = min(thread_count(), len(wts))
    if workers <= 1:
        return [node(i) for i in range(len(wts))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(node, range(len(wts))))


def invert(
    f: SchwartzFunction,
    x: GradedElement,
    basis: LayeredBasis,
    qspec: QuadratureSpec | None = None,
    convergence_tol: float | None = None,
) -> complex:
    """Reconstruct ``f(x)`` from its operator-valued transform.

    Integrates ``sqrt(det D) * trace_shifted`` over the transverse frequency
    plane (:func:`_frequency_plane`) and applies the ``(2 pi)``
    normalization. With ``convergence_tol`` set, the frequency grid is rerun
    at doubled node count and a relative change beyond the tolerance raises
    :class:`NonConvergence`. The point ``x`` is checked before any node runs,
    so it is checked even when every node is skipped.
    """
    _point_coords(basis, x)
    if qspec is None:
        qspec = QuadratureSpec.reference()
    jump = jump_sets(basis)
    norm = c_norm(basis, jump)

    def integrand(ell: Functional, chart: MalcevChart) -> complex:
        return trace_shifted(f, ell, chart, qspec, x, jump)

    def run(t_nodes: int) -> complex:
        return norm * sum(_frequency_plane(basis, jump, qspec, t_nodes, integrand), 0j)

    value = run(qspec.t_nodes)
    if convergence_tol is not None:
        refined = run(2 * qspec.t_nodes)
        if abs(refined - value) > convergence_tol * (1.0 + abs(refined)):
            raise NonConvergence(
                f"doubling the frequency grid moved the result by "
                f"{abs(refined - value):.3e} (tolerance {convergence_tol})"
            )
    return value


# ---------------------------------------------------------------------------
# Plancherel
# ---------------------------------------------------------------------------


def hs_norm_sq(
    f: SchwartzFunction,
    ell: Functional,
    chart: MalcevChart,
    qspec: QuadratureSpec,
    jump: JumpData | None = None,
) -> float:
    """Squared Hilbert-Schmidt norm of the kernel operator.

    Integrates ``|K(x, y)|^2`` in rotated coordinates ``u = x - y`` (fixed
    box: the kernel decays like the function there) and ``v = x + y``
    (adaptively scaled box), which stays uniformly resolved over the
    frequency plane where a plain product grid would alias the diagonal
    ridge.
    """
    if jump is None:
        jump = jump_sets(ell.basis)
    q = chart.q
    scale = _section_scale(ell, jump, qspec)
    upts, uw = _tensor_grid([(qspec.section_nodes, qspec.section_halfwidth)] * q)
    vpts, vw = _tensor_grid(
        [(qspec.section_nodes, 2.0 * qspec.section_halfwidth * scale)] * q
    )
    mu, mv = upts.shape[0], vpts.shape[0]
    ui, vi = np.meshgrid(np.arange(mu), np.arange(mv), indexing="ij")
    xs = 0.5 * (vpts[vi.ravel()] + upts[ui.ravel()])
    ys = 0.5 * (vpts[vi.ravel()] - upts[ui.ravel()])
    kv = kernel_values(f, ell, chart, qspec, xs, ys)
    dens = (np.abs(kv) ** 2).reshape(mu, mv)
    return float(2.0**-q * (uw @ dens @ vw))


def norm_sq_direct(f: SchwartzFunction, basis: LayeredBasis, qspec: QuadratureSpec) -> float:
    """``|f|_2^2`` by tensor-grid quadrature over the decay box."""
    axes = [(qspec.section_nodes, float(b)) for b in f.decay_box]
    pts, w = _tensor_grid(axes)
    vals = f(pts)
    return float(np.real(np.sum(w * np.abs(vals) ** 2)))


def plancherel(
    f: SchwartzFunction,
    basis: LayeredBasis,
    qspec: QuadratureSpec | None = None,
) -> dict:
    """Both sides of the Plancherel identity and their ratio.

    The left side is the direct squared norm; the right side integrates the
    squared Hilbert-Schmidt norms of the transform over the frequency plane
    (:func:`_frequency_plane`) with the same ``sqrt(det D)`` density and
    normalization as inversion.
    """
    if qspec is None:
        qspec = QuadratureSpec.reference()
    jump = jump_sets(basis)
    lhs = norm_sq_direct(f, basis, qspec)

    def integrand(ell: Functional, chart: MalcevChart) -> float:
        return hs_norm_sq(f, ell, chart, qspec, jump)

    parts = _frequency_plane(basis, jump, qspec, qspec.t_nodes, integrand)
    rhs = c_norm(basis, jump) * math.fsum(parts)
    return {"lhs": lhs, "rhs": rhs, "ratio": rhs / lhs if lhs else math.inf}


# ---------------------------------------------------------------------------
# Haar measure check
# ---------------------------------------------------------------------------


def _three_sigma(total: float, total_sq: float, n: int, vol: float) -> dict:
    """Scaled mean and standard error of ``n`` paired differences from their
    sum and sum of squares, and whether the mean is within three errors of 0."""
    mean = total / n
    var = max(total_sq / n - mean**2, 0.0) / n
    dev = vol * mean
    se = vol * math.sqrt(var)
    return {"deviation": dev, "se": se, "passed": abs(dev) <= 3.0 * se + 1e-12}


def haar_invariance_check(
    basis: LayeredBasis,
    rng: np.random.Generator | None = None,
    n_translates: int = 10,
    n_samples: int = 1_000_000,
    box: float = 12.0,
    translate_scale: float = 0.3,
) -> dict:
    """Monte Carlo check that the chart pushes Lebesgue measure to Haar measure.

    Integrates a fixed Gaussian observable of the exponential coordinates
    against the chart measure, then against its pullback by random left
    translations (paired samples), and against the one-shot exponential
    parametrization. All estimates must agree within three standard errors.
    """
    if rng is None:
        rng = np.random.default_rng()
    chart = MalcevChart(basis)  # identity chart: plain Malcev ordering
    n = basis.dim

    def observable(coords: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * np.sum(coords * coords, axis=-1))

    # log coordinates of the translates exp(translate_scale * v)
    translates = [translate_scale * rng.standard_normal(n) for _ in range(n_translates)]
    base_sum = 0.0
    trans_sum = np.zeros(n_translates)
    trans_sq = np.zeros(n_translates)
    exp_sum = 0.0
    exp_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(_HAAR_CHUNK, n_samples - done)
        alpha = rng.uniform(-box, box, size=(m, n))
        c = chart.gamma(alpha)
        phi = observable(c)
        base_sum += float(np.sum(phi))
        # one-shot exponential parametrization of the same coordinates
        diff = observable(alpha) - phi
        exp_sum += float(np.sum(diff))
        exp_sq += float(np.sum(diff * diff))
        for t, c0 in enumerate(translates):
            phi_t = observable(basis.bch_coords(c0, c))
            diff = phi_t - phi
            trans_sum[t] += float(np.sum(diff))
            trans_sq[t] += float(np.sum(diff * diff))
        done += m

    vol = (2.0 * box) ** n
    base = vol * base_sum / n_samples
    results = [_three_sigma(s, sq, n_samples, vol) for s, sq in zip(trans_sum, trans_sq)]
    exp = _three_sigma(exp_sum, exp_sq, n_samples, vol)
    return {
        "base_integral": base,
        "translates": results,
        "exp_chart_deviation": exp["deviation"],
        "exp_chart_se": exp["se"],
        "passed": bool(all(r["passed"] for r in results) and exp["passed"]),
    }

