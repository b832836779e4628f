"""Group Fourier transform on truncated tensor groups via induced kernels.

For a generic functional the layer-built polarization ``h`` yields a
coordinate chart: an orthonormal reordering of the Malcev basis listing ``h``
first, whose ordered product of one-parameter exponentials parametrizes the
group with Lebesgue measure as Haar measure. The induced representation then
acts on functions of the section coordinates, and the operator attached to an
integrable function ``f`` has integral kernel

``K_f(x, y) = integral over H of f(x u y^-1) exp(i ell(log u)) du``.

This module computes such kernels numerically (with a per-coset affine
reframing of the ``H`` integral that keeps sheared integrands inside a fixed
box -- exact by translation invariance), shifted traces, the square-rooted
skew determinant over the jump indices, the inversion integral over the
transverse frequency plane, and both sides of the Plancherel identity. Charts,
kernels, characters and traces compose group elements in flat Malcev log
coordinates with the group law :meth:`LayeredBasis.bch_coords`; Lie-membership
is certified only where elements enter as dense tensors (the point ``x`` of a
shifted trace). Every chart prefix spans an ideal, so ``H`` is normal and the
kernel takes the coset form ``K_f(x, y) = exp(-i lam(log(x y^-1 s^-1)))
integral over H of f(u s) exp(i lam(log u)) du`` with ``lam = ell o
Ad_{x^-1}`` and ``s`` the section point of the coset ``H x y^-1``: the
samples of ``f`` depend on the coset alone. Kernel values come in rows of
section pairs that share a coset; ``f``, the frame and the group law run
once per row, and each pair adds only its functional ``lam`` and a unimodular
twist. The frame of the reframing is the exact differential ``B(ad log s)
W_h`` with ``B(z) = z / (e^z - 1)``, a finite series because ``ad`` is
nilpotent. ``ad`` kills the centre, so the leading central block of the
subgroup grid shifts every row's points by the same central vector and its
phases by the same character: both are built once per call, the central block
is contracted first, as one matrix product, and the group law runs once per
point of the rest of the grid, whose character is separable over its axes.
Rows run in blocks and ``f`` on sub-chunks of a block, both sized by one
budget. ``hs_norm_sq`` passes one row per coset of its grid and
``trace_shifted`` one row in all; kernels, traces and norms take one
functional each. The frequency plane runs in mirror pairs ``ell``, ``-ell``,
which share the node decisions and the chart, and it alone applies the mirror
rule: for real ``f`` the value at ``-ell`` is the conjugate of the value at
``ell``. Every pair is decided in one batched pass before any pair runs: it
is skipped if it is not generic (:func:`is_generic` alone decides) or if the
subgroup grid cannot resolve its phase rate. Functions that take jump data default it to the basis's own and
refuse jump data of another spec.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .coadjoint import (
    Functional,
    JumpData,
    _ad_series,
    _bernoulli_series,
    _exp_series,
    _functionals,
    _point_coords,
    _svd_rank,
    is_generic,
    jump_sets,
)
from .errors import (
    DimensionMismatch,
    NilfourierError,
    NonConvergence,
    NotGeneric,
    QuadratureUnderflow,
    SpecMismatch,
)
from .lie_basis import LayeredBasis, json_number
from .polarization import Subalgebra, _layer_rows, generic_polarization
from .tensor_algebra import GradedElement

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
    "thread_count",
]

#: Coordinates (points times algebra dimension) per vectorized array in
#: kernel evaluation. It sizes the blocks of rows that share one pass of
#: per-row work, the chunks of their pairs, the integrand sub-chunks within
#: a block, and the chunks of skew forms the frequency plane decides at once.
#: Arrays much above a megabyte measured slower per point: each chunk then
#: page-faults its fresh temporaries.
_CHUNK_BUDGET = 100_000


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
    per-coset reframed box), ``section_*`` the section/trace integrals, and
    ``t_*`` the transverse frequency plane. The section box is rescaled per
    functional by ``1/|ell_T|``, tightened further on coarse subgroup grids
    (:func:`_section_scale`), so that traces keep uniform coverage and
    resolution across the frequency plane.
    """

    h_nodes: int = 48
    h_halfwidth: float = 8.0
    section_nodes: int = 48
    section_halfwidth: float = 8.0
    t_nodes: int = 64
    t_halfwidth: float = 8.0

    def __post_init__(self) -> None:
        for name in ("h_nodes", "section_nodes", "t_nodes"):
            if getattr(self, name) < 8:
                raise DimensionMismatch(f"{name} must be at least 8")
        for name in ("h_halfwidth", "section_halfwidth", "t_halfwidth"):
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
    pts = np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return pts, functools.reduce(np.multiply.outer, ws, np.ones(())).ravel()


@functools.lru_cache(maxsize=8)
def _cube_grid(nodes: int, halfwidth: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_tensor_grid` with ``dim`` equal axes, built once per key and
    read-only: the grids that depend only on the :class:`QuadratureSpec` (the
    subgroup blocks, the ``u`` grid of :func:`hs_norm_sq`, the frequency
    plane) serve every node and call."""
    pts, w = _tensor_grid([(nodes, halfwidth)] * dim)
    pts.flags.writeable = w.flags.writeable = False
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
        if not np.all((box > 0) & np.isfinite(box)):
            raise DimensionMismatch("decay box half-widths must be positive and finite")
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
    then its orthogonal complement (layer-descending), one block of each per
    layer from the SVD of the subalgebra's rows cut to that layer; the
    subalgebra must be layer-graded. Every prefix of the ordering spans an
    ideal (checked at construction), so the ordered product
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
        h_cols: list[np.ndarray] = []
        s_cols: list[np.ndarray] = []
        for k in range(basis.spec.N, 0, -1):
            sl = basis.layer_slice(k)
            _, s, vt = np.linalg.svd(sub.vectors[:, sl])
            r = _svd_rank(s, 1e-12)
            for cols, rows in ((h_cols, vt[:r]), (s_cols, vt[r:])):
                cols.append(np.zeros((n, len(rows))))
                cols[-1][sl] = rows.T
        self.W = np.hstack(h_cols + s_cols)
        self.q_h = sum(c.shape[1] for c in h_cols)
        self.q = n - self.q_h
        # The layer ranks sum to sub.dim exactly when the span is layer-graded.
        if self.q_h != sub.dim:
            raise NotGeneric("chart construction needs a layer-graded subalgebra")
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


def chart_for(ell: Functional, candidate: Subalgebra | None = None) -> MalcevChart:
    """Chart from the layer-built polarization at a generic functional.

    ``candidate`` hands over the layer-built rows from a caller that has
    already checked that ``ell`` is generic (see :func:`generic_polarization`).
    """
    return MalcevChart(ell.basis, generic_polarization(ell, candidate))


def character(ell: Functional, chart: MalcevChart, a: np.ndarray) -> np.ndarray:
    """Unitary character ``exp(i ell(log gamma_h(a)))`` of the subgroup (batched)."""
    return np.exp(1j * (chart.gamma_h(a) @ ell.flat))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _checked_jump(basis: LayeredBasis, jump: JumpData | None) -> JumpData:
    """``jump``, or :func:`jump_sets` of ``basis`` when it is ``None``. Jump
    data of another spec raises :class:`SpecMismatch`."""
    if jump is None:
        return jump_sets(basis)
    if jump.spec != basis.spec:
        raise SpecMismatch(f"jump data over {jump.spec} does not match the basis over {basis.spec}")
    return jump


def _one_functional(ell: Functional) -> Functional:
    """``ell``, which must be one :class:`Functional` (a tuple or list of them
    raises :class:`DimensionMismatch`)."""
    if not isinstance(ell, Functional):
        raise DimensionMismatch(f"expected one Functional, got {type(ell).__name__}")
    return ell


def _section_scale(ell: Functional, jump: JumpData, qspec: QuadratureSpec) -> float:
    """Per-functional scaling of the section box, from ``|ell_T|``, the norm
    of the transverse coordinates.

    Kernels concentrate on a ridge whose width shrinks like ``1/|ell_T|``,
    so the section box must shrink at the same rate: ``box = halfwidth /
    |ell_T|`` keeps a constant number of integrand widths inside the grid at
    every frequency. The same product ``|ell_T| * box`` also bounds the
    subgroup phase rate at the box edge (conjugating the subgroup probe by a
    section point at distance ``w`` amplifies the character's rate by about
    ``|ell_T| * w``), so when the subgroup grid is coarser than the
    reference resolution the box is tightened further to its resolvable
    rate, trading smooth truncation error for wild aliasing error. At the
    reference resolution the tightening factor is one. At ``ell_T = 0``,
    reached only at the centre node of an abelian plane (whose section grid
    has no axes) or at a non-generic ``ell`` passed in directly, the box
    keeps the finite scale ``tighten``.
    """
    ell = _one_functional(ell)
    norm = float(np.linalg.norm(ell.flat[[ell.basis.flat_index(k, i) for (k, i) in jump.T]]))
    tighten = min(1.0, _resolvable_rate(qspec) / qspec.section_halfwidth)
    return tighten / norm if norm > 0 else tighten


def _resolvable_rate(qspec: QuadratureSpec) -> float:
    """Highest phase rate the subgroup grid can sample (90% of Nyquist)."""
    return 0.9 * math.pi * (qspec.h_nodes - 1) / (2.0 * qspec.h_halfwidth)


def _h_phase_rate(flat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Peak oscillation rate of the subgroup integral for a functional's
    coordinates ``flat`` (batched: ``(..., n)`` with rows ``(..., r, n)``).

    The character contributes ``exp(i a . ell_H)`` inside every subgroup
    integral, an oscillation of rate ``|ell_H|`` that no choice of section
    box can slow down. Frequency nodes whose rate exceeds the subgroup
    grid's resolvable rate produce aliased garbage rather than small values,
    so integrators skip them (coarse grids then integrate a smaller resolved
    frequency box, a smooth truncation instead of a wild error). ``rows`` are
    orthonormal rows spanning the subalgebra, so no chart is needed.
    """
    return np.linalg.norm(rows @ flat[..., None], axis=(-2, -1))


def kernel_values(
    f: SchwartzFunction,
    ell: Functional,
    chart: MalcevChart,
    qspec: QuadratureSpec,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Kernel ``K_f(section(x), section(y))`` for section pairs laid out in rows.

    ``xs`` and ``ys`` have shape ``(R, M, q)``: ``R`` rows of ``M`` pairs, the
    pairs of a row sharing one coset ``H x y^-1``; returns complex values
    ``(R, M)``. A pair list ``(P, q)`` keeps its meaning, each pair a row of
    its own, with values ``(P,)``. ``ell`` is one functional that the chart's
    subalgebra polarizes.

    Coset form: every chart prefix spans an ideal, so ``H`` is normal and
    ``x h y^-1 = (x h x^-1) x y^-1``. Conjugation by ``x`` preserves Haar
    measure on ``H``, hence ``K_f(x, y) = exp(-i lam(log(x y^-1 s^-1)))
    integral over H of f(h s) exp(i lam(log h)) dh`` with ``lam = ell o
    Ad_{x^-1}``, where ``s = section(w)`` is the section point of the coset
    and ``w`` comes from :meth:`MalcevChart.decompose` of the row's first
    ``log(x y^-1)``. The samples ``f(gamma_h(a) s)`` depend on the row alone;
    each pair adds its functional ``lam`` (rates ``lam_h R^-1`` on the grid
    axes) and the unimodular twist, whose argument must lie in ``h``: a row
    whose pairs do not share the coset raises :class:`DimensionMismatch`.

    The subgroup integral runs over a per-row affine reframing ``a = a* + R^-1
    b`` of the chart coordinates, where ``J = QR`` is the Jacobian of ``a ->
    log(gamma_h(a) s)`` at ``a = 0`` and ``a*`` recentres the integrand. The
    substitution is exact (the subgroup's Haar measure is Lebesgue in its
    chart), and it keeps the integrand inside the fixed box even when large
    section values shear it. ``J = B(ad log s) W_h`` with ``B(z) = z / (e^z -
    1)``, the differential of ``bch(., log s)`` at zero (Hall, *Lie Groups,
    Lie Algebras, and Representations*, Thm 5.4). The chart's leading ``q_c``
    subgroup columns ``W_c`` are central and ``ad`` kills them, so ``J = [W_c
    | J_r]`` and ``R = [[I, W_c^T J_r], [0, R_rr]]``, with a QR of ``(I - W_c
    W_c^T) J_r`` only. The grid's central block ``b_c`` then adds ``W_c b_c``
    to a point and ``exp(i ell_c . b_c)`` to its phase (``Ad`` fixes the
    centre, so ``lam_c = ell_c``) for every row alike: both are built once per
    call, and the group law runs once per point of the non-central block
    ``b_r`` of each row. The samples of a row are laid out as (``b_r``,
    ``b_c``); the central block is contracted first, as one matrix product
    (with real ``[Re | Im]`` columns for real samples), then the ``b_r`` axes
    one at a time with per-pair phases, one exponential table per distinct
    rate.

    Rows run in blocks of ``_CHUNK_BUDGET // max(max(m_c, m_r) n, M p)``,
    ``m_c`` and ``m_r`` the point counts of the two grid blocks and ``p =
    max(n, m_r / h_nodes) n`` the coordinates of one pair's adjoint matrix
    and contraction, so that a block's rows and pairs fit the budget: one pass
    of the frame and the group law per block. Within a block ``f`` is
    evaluated on sub-chunks of ``_CHUNK_BUDGET // (m_c m_r n)`` rows, and the
    pairs run on chunks of members that keep rows times members within the
    budget.
    """
    if qspec.h_halfwidth < float(np.max(f.decay_box)):
        raise QuadratureUnderflow(
            f"H box half-width {qspec.h_halfwidth} is smaller than the "
            f"function's decay box {float(np.max(f.decay_box))}"
        )
    flat = _one_functional(ell).flat
    basis = chart.basis
    n, N = basis.dim, basis.spec.N
    q_h, q_c = chart.q_h, chart.q_c
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rows = xs.ndim == 3
    if not rows:
        xs, ys = np.atleast_2d(xs)[:, None], np.atleast_2d(ys)[:, None]
    if xs.shape != ys.shape or xs.ndim != 3 or xs.shape[-1] != chart.q:
        raise DimensionMismatch("xs and ys must pair up with the section dimension")
    R, M = xs.shape[:2]
    bch = basis.bch_coords

    out = np.empty((R, M), dtype=complex)
    if not q_h:
        # A trivial subgroup: the kernel is f itself.
        pairs = (xs.reshape(-1, chart.q), ys.reshape(-1, chart.q))
        out[:] = f(bch(chart.section(pairs[0]), -chart.section(pairs[1]))).reshape(R, M)
    else:
        nodes, weights = _axis(qspec.h_nodes, qspec.h_halfwidth)
        # The grid points b, split into the leading central block b_c, with its
        # product weights, and the rest b_r.
        (grid_c, w_grid_c), (grid_r, _) = (
            _cube_grid(qspec.h_nodes, qspec.h_halfwidth, k) for k in (q_c, q_h - q_c)
        )
        m_c, m_r = grid_c.shape[0], grid_r.shape[0]
        w_c, w_r, w_h = chart.W[:, :q_c], chart.W[:, q_c:q_h], chart.W[:, :q_h]
        # Once per call: the central shift W_c b_c, (n, m_c), and the weighted
        # central characters w(b_c) exp(i ell_c . b_c), as one column.
        shift = w_c @ grid_c.T
        central = (w_grid_c * np.exp(1j * (grid_c @ (flat @ w_c))))[:, None]  # (m_c, 1)
        exp_coeffs, dlog_coeffs = _exp_series(N), _bernoulli_series(N)
        pair_size = max(n, m_r // nodes.size) * n
        block = max(1, _CHUNK_BUDGET // max(max(m_c, m_r) * n, M * pair_size))
        chunk = max(1, _CHUNK_BUDGET // (m_c * m_r * n))
        for lo in range(0, R, block):
            hi = min(R, lo + block)
            cx = chart.section(xs[lo:hi])
            c0 = bch(cx, -chart.section(ys[lo:hi]))  # log(x y^-1), (C, M, n)
            cs = chart.section(chart.decompose(c0[:, 0])[0])  # log s, (C, n)
            # Every pair's twist argument log(x y^-1 s^-1) lies in h.
            twist = bch(c0, -cs[:, None])
            size = (1.0 + np.abs(c0).max(axis=-1) + np.abs(cs).max(axis=-1)[:, None]) ** N
            if np.any(np.abs(twist @ chart.W[:, q_h:]).max(axis=-1, initial=0.0) > 1e-9 * size):
                raise DimensionMismatch("the pairs of a row must share one coset H x y^-1")
            # ad kills the centre, so J = B(ad log s) W_h = [W_c | J_r] = [W_c | Q_r] R
            # with T = W_c^T J_r, J_r - W_c T = Q_r R_rr and R = [[I, T], [0, R_rr]],
            # invertible because B(ad log s) is unipotent.
            jac = _ad_series(basis, cs, dlog_coeffs) @ w_r  # (C, n, q_r)
            top = w_c.T @ jac
            qmat, rmat = np.linalg.qr(jac - w_c @ top)
            rinv = np.linalg.inv(rmat)
            det_r = np.abs(np.prod(np.diagonal(rmat, axis1=-2, axis2=-1), axis=-1))
            # The b_r columns of R^-1 = [[I, -T R_rr^-1], [0, R_rr^-1]], and the
            # recentring a* = -R^-1 Q^T log s.
            cols = np.concatenate([-top @ rinv, rinv], axis=1)  # (C, q_h, q_r)
            astar = -(cols @ np.einsum("cni,cn->ci", qmat, cs)[..., None])[..., 0]
            astar[:, :q_c] -= cs @ w_c
            # The group law runs on the points with b_c = 0, coordinates first:
            # (C, n, m_r), so elementwise steps run over the grid.
            apts = np.swapaxes(astar[..., None] + cols @ grid_r.T, -1, -2)
            pts = np.swapaxes(bch(chart.gamma_h(apts), cs[:, None]), -1, -2)
            vals = []
            for s in range(0, hi - lo, chunk):
                e = min(hi - lo, s + chunk)
                # b_c adds W_c b_c (bch(u + z, c) = bch(u, c) + z for central z).
                # Samples in (row, b_r, b_c) order, coordinates first; the central
                # block of every row in one matrix product (real samples meet
                # the [Re, Im] column pair).
                samples = f(np.moveaxis(pts[s:e, :, :, None] + shift[:, None], 1, -1))
                if np.iscomplexobj(samples):
                    vals.append(samples.reshape(-1, m_c) @ central)
                else:
                    vals.append((samples.reshape(-1, m_c) @ central.view(float)).view(complex))
            vals = np.concatenate(vals).reshape(hi - lo, 1, m_r)  # broadcasts over pairs
            members = max(1, _CHUNK_BUDGET // ((hi - lo) * pair_size))
            for a in range(0, M, members):
                b = min(M, a + members)
                # lam = ell o Ad_{x^-1}, as rows (C, m, n).
                lam = flat @ _ad_series(basis, -cx[:, a:b], exp_coeffs)
                lam_h = lam @ w_h
                # exp(i a . lam_h) = exp(i a* . lam_h) exp(i b_c . ell_c) prod_k
                # exp(i b_k rate_k) over the b_r axes, one table per distinct rate;
                # phases is (C, m, q_r, nodes) (NumPy < 2 returns a flat inverse).
                rate = lam_h @ cols
                rates, index = np.unique(rate, return_inverse=True)
                phases = (weights * np.exp(1j * rates[:, None] * nodes))[index.reshape(rate.shape)]
                arg = (lam_h @ astar[..., None])[..., 0] - np.sum(lam * twist[:, a:b], axis=-1)
                scale = np.exp(1j * arg) / det_r[:, None]  # (C, m)
                # The b_r axes pair by pair, last axis first.
                v = vals
                for k in range(q_h - q_c - 1, -1, -1):
                    v = v.reshape(v.shape[:2] + (-1, nodes.size)) @ phases[:, :, k, :, None]
                out[lo:hi, a:b] = v.reshape(v.shape[:2]) * scale
    return out if rows else out[:, 0]


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
    scale = _section_scale(ell, _checked_jump(chart.basis, jump), qspec)
    nodes, weights = _tensor_grid(
        [(qspec.section_nodes, qspec.section_halfwidth * scale)] * chart.q
    )
    mq = nodes.shape[0]
    xi, yi = np.meshgrid(np.arange(mq), np.arange(mq), indexing="ij")
    kv = kernel_values(f, ell, chart, qspec, nodes[xi.ravel()], nodes[yi.ravel()])
    return KernelOperator(ell, chart, nodes, weights, kv.reshape(mq, mq))


@dataclass(frozen=True, eq=False)
class _CertifiedPoint(GradedElement):
    """A point with its flat coordinates, certified by :func:`invert` once for all nodes."""

    coords: np.ndarray


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
    needed: the integrand is ``exp(-i ell(log h)) K_f(section(w), section(y))``,
    all of it from one :func:`kernel_values` call.
    """
    basis = chart.basis
    cx = x.coords if isinstance(x, _CertifiedPoint) else _point_coords(basis, x)
    scale = _section_scale(ell, _checked_jump(basis, jump), qspec)
    ys, wy = _tensor_grid([(qspec.section_nodes, qspec.section_halfwidth * scale)] * chart.q)
    ws, rem = chart.decompose(basis.bch_coords(cx, chart.section(ys)))
    twist = np.exp(-1j * (rem @ ell.flat))
    # section(w) section(y)^-1 = x section(y) h^-1 section(y)^-1 lies in x H for
    # every node: the pairs form one row.
    kv = kernel_values(f, ell, chart, qspec, ws[None], ys[None])[0]
    return complex(np.sum(wy * (twist * kv)))


# ---------------------------------------------------------------------------
# Skew determinant and inversion
# ---------------------------------------------------------------------------


def d_matrix(ell: Functional, jump: JumpData | None = None) -> np.ndarray:
    """Skew pairing matrix over the jump indices, in Malcev order."""
    idx = [ell.basis.flat_index(k, i) for (k, i) in _checked_jump(ell.basis, jump).S]
    return ell.skew[np.ix_(idx, idx)]


def sqrt_det_d(
    ell: Functional | Sequence[Functional], jump: JumpData | None = None
) -> float | np.ndarray:
    """``sqrt(|det D|)`` for the jump-index skew matrix ``D`` (:func:`d_matrix`).

    A sequence of functionals on one basis gives an array, one entry per
    member, from one stacked determinant; one functional is the one-member
    case and gives a ``float``.
    """
    ells = _functionals(ell)
    jump = _checked_jump(ells[0].basis, jump)
    dmat = np.stack([d_matrix(e, jump) for e in ells])
    sd = np.zeros(len(ells)) if len(jump.S) % 2 else np.sqrt(np.abs(np.linalg.det(dmat)))
    return float(sd[0]) if isinstance(ell, Functional) else sd


def c_norm(basis: LayeredBasis, jump: JumpData | None = None) -> float:
    """Inversion normalization ``(2 pi)^-(n - |S|/2)``."""
    return (2.0 * math.pi) ** (-(basis.dim - len(_checked_jump(basis, jump).S) / 2.0))


def _plane_nodes(
    basis: LayeredBasis, jump: JumpData, qspec: QuadratureSpec, t_nodes: int
) -> tuple[np.ndarray, list]:
    """The frequency plane's weights and the pairs that run, decided in one
    batched pass.

    Node ``i < (M + 1) // 2`` of the plane's ``M`` nodes stands for the pair
    of itself and its mirror ``M - 1 - i``. A pair is skipped for one of two
    reasons: it is not generic (:func:`is_generic`, the paper's condition
    ``Pf_S(ell) != 0``), or its subgroup phase rate ``|ell_h|`` is beyond the
    grid's resolvable rate. Every other pair runs, with ``sqrt(det D)`` as its
    weight. Every layer above the middle lies in the layer-built
    polarization, so ``|ell_h|`` is at least the norm of those layers of
    ``ell``: a pair over the rate limit by that norm alone (beyond a relative
    ``1e-12`` of rounding) cannot run and is decided there. The rest run in
    chunks of ``_CHUNK_BUDGET // n^2`` functionals (one skew form each): one
    stacked :func:`is_generic` and one stacked :func:`sqrt_det_d` per chunk,
    then the layer-built rows (:func:`_layer_rows`) and ``|ell_h|``
    (:func:`_h_phase_rate`) of the generic pairs. The pairs that run come
    back as ``(i, ell, sqrt(det D), candidate)`` in node order, with
    ``candidate`` holding their rows.
    """
    pts, wts = _cube_grid(t_nodes, qspec.t_halfwidth, len(jump.T))
    pairs = (len(wts) + 1) // 2
    flats = np.zeros((pairs, basis.dim))
    flats[:, [basis.flat_index(k, i) for (k, i) in jump.T]] = pts[:pairs]
    rate_limit = _resolvable_rate(qspec)
    N = basis.spec.N
    upper = np.r_[tuple(basis.layer_slice(k) for k in range(N // 2 + 1, N + 1))]
    near = np.flatnonzero(np.linalg.norm(flats[:, upper], axis=-1) <= rate_limit * (1 + 1e-12))
    step = max(1, _CHUNK_BUDGET // basis.dim**2)
    running = []
    for lo in range(0, near.size, step):
        nodes = near[lo : lo + step]
        ells = [Functional(basis, flats[i]) for i in nodes]
        sds = sqrt_det_d(ells, jump)
        live = np.flatnonzero(is_generic(ells))
        if not live.size:
            continue
        for members, rows in _layer_rows(basis, np.stack([ells[j].skew for j in live])):
            resolved = _h_phase_rate(flats[nodes[live[members]]], rows) <= rate_limit
            for j, r in zip(live[members][resolved], rows[resolved]):
                running.append((nodes[j], ells[j], sds[j], Subalgebra(basis, r)))
    return wts, sorted(running, key=lambda node: node[0])


def _frequency_plane(
    f: SchwartzFunction,
    basis: LayeredBasis,
    jump: JumpData,
    qspec: QuadratureSpec,
    t_nodes: int,
    integrand,
) -> list:
    """Weighted parts ``w * sqrt(det D) * integrand(ell, chart)`` of an
    integral over the transverse frequency plane, in node order.

    The plane carries a trapezoid grid of ``t_nodes`` per transverse axis.
    It is symmetric about 0, so node ``i`` has its mirror ``M - 1 - i`` with
    the same weight, and the two run as one pair on one chart. Genericity,
    ``sqrt(det D)``, the chart and the subgroup phase rate are the same at
    ``-ell`` (the skew form only changes sign, and a polarization of ``ell``
    polarizes ``-ell``), so they run once per pair. The mirror's value comes
    from the rule ``pi_{-ell}(f) = conj pi_ell(f)`` for real ``f`` (``-ell``
    carries the contragredient representation): it is the conjugate of
    node ``i``'s value, and ``integrand`` runs once per pair. Whether ``f``
    is real is decided once, from the dtype of ``f`` at the origin; for
    complex ``f`` the mirror's value is ``integrand(-ell, chart)``, with
    ``-ell`` the exact negative of node ``i``'s functional (the grid's
    mirror node agrees with it to an ulp). A centre node (every axis odd) is
    its own mirror.

    Every pair is decided before any runs, in one batched pass
    (:func:`_plane_nodes`), and a node is skipped for one of two reasons.
    Non-generic nodes contribute zero: :func:`is_generic` alone decides, by
    block ranks, so a ``det D`` that is only rounding noise does not count
    and ``sqrt(det D)`` is only the weight. Nodes whose subgroup phase rate
    the grid cannot resolve contribute zero too (see :func:`_h_phase_rate`;
    at the reference resolution no node is dropped). The rate is read from
    the layer-built polarization's rows, built in the same pass, so a skipped
    pair builds no chart, and a pair that runs hands its rows to
    :func:`chart_for`, which checks them once.
    Pairs that run do so on at most NILFOURIER_THREADS workers, and never more
    than there are such pairs; the parts come back in node order either way,
    so reductions do not depend on the count.
    """
    wts, running = _plane_nodes(basis, jump, qspec, t_nodes)
    M = len(wts)
    real = not np.iscomplexobj(f(np.zeros(basis.dim)))

    def pair(node: tuple) -> list:
        """Parts of node ``i`` and, unless it is the centre, its mirror."""
        i, ell, sd, candidate = node
        chart = chart_for(ell, candidate)
        value = integrand(ell, chart)
        if M - 1 - i == i:
            return [wts[i] * sd * value]
        mirror = value.conjugate() if real else integrand(Functional(basis, -ell.flat), chart)
        return [wts[i] * sd * value, wts[M - 1 - i] * sd * mirror]

    workers = min(thread_count(), len(running))
    if workers <= 1:
        results = [pair(node) for node in running]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(pair, running))
    parts: list = [0.0] * M  # skipped nodes contribute zero
    for (i, *_), values in zip(running, results):
        for j, value in zip((i, M - 1 - i), values):
            parts[j] = value
    return parts


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
    :class:`NonConvergence`. The point ``x`` and ``convergence_tol`` (``None``
    or a finite number ``>= 0``, else :class:`DimensionMismatch`) are checked
    before any node runs, so they are checked even when every node is skipped.
    """
    point = _CertifiedPoint(x.spec, x.levels, _point_coords(basis, x))
    if convergence_tol is not None and not 0 <= convergence_tol < math.inf:
        raise DimensionMismatch(f"convergence_tol must be finite and >= 0, got {convergence_tol}")
    if qspec is None:
        qspec = QuadratureSpec.reference()
    jump = jump_sets(basis)
    norm = c_norm(basis, jump)

    def integrand(ell: Functional, chart: MalcevChart) -> complex:
        return trace_shifted(f, ell, chart, qspec, point, jump)

    def run(t_nodes: int) -> complex:
        return norm * sum(_frequency_plane(f, basis, jump, qspec, t_nodes, integrand), 0j)

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

    Integrates ``|K(x, y)|^2`` in rotated coordinates: ``u``, the coset
    ``H section(x) section(y)^-1 = H section(u)`` (fixed box: the kernel
    decays like the function there), and ``v = 2x - u`` (adaptively scaled
    box), which stays uniformly resolved over the frequency plane where a
    plain product grid would alias the diagonal ridge. ``y`` follows from
    ``(u, x)`` through :meth:`MalcevChart.decompose`; on an abelian quotient
    ``G/H`` that is ``u = x - y``, ``v = x + y``. Haar measure on ``G/H`` is
    Lebesgue in the section coordinates, so ``dx dy = dx du = 2^-q du dv``.
    Each ``u`` is one row of :func:`kernel_values`: ``f`` is sampled once per
    coset.
    """
    q = chart.q
    scale = _section_scale(ell, _checked_jump(chart.basis, jump), qspec)
    upts, uw = _cube_grid(qspec.section_nodes, qspec.section_halfwidth, q)
    vpts, vw = _tensor_grid(
        [(qspec.section_nodes, 2.0 * qspec.section_halfwidth * scale)] * q
    )
    xs = 0.5 * (vpts[None] + upts[:, None])  # (mu, mv, q)
    # y with section(x) section(y)^-1 in H section(u): section(y) H =
    # section(u)^-1 section(x) H, which is x - u on an abelian quotient.
    cosets = chart.basis.bch_coords(-chart.section(upts)[:, None], chart.section(xs))
    ys = chart.decompose(cosets)[0]
    kv = kernel_values(f, ell, chart, qspec, xs, ys)  # one row per u
    return float(2.0**-q * (uw @ np.abs(kv) ** 2 @ vw))


def norm_sq_direct(f: SchwartzFunction, qspec: QuadratureSpec) -> float:
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
    lhs = norm_sq_direct(f, qspec)

    def integrand(ell: Functional, chart: MalcevChart) -> float:
        return hs_norm_sq(f, ell, chart, qspec, jump)

    parts = _frequency_plane(f, basis, jump, qspec, qspec.t_nodes, integrand)
    rhs = c_norm(basis, jump) * math.fsum(parts)
    return {"lhs": lhs, "rhs": rhs, "ratio": rhs / lhs if lhs else math.inf}
