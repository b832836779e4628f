"""Tests for the induced-representation transform engine.

The Heisenberg-type group (2 generators, depth 2) admits closed-form
kernels, traces, and norms (see oracles.py), which pin the engine end to
end. Structural properties (chart round trips, equivariance, operator
algebra, adaptive quadrature behavior) are checked on larger groups where
no closed form is available.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest

from nilfourier import (
    Flavor,
    Functional,
    GradedElement,
    GroupSpec,
    LayeredBasis,
    MalcevChart,
    QuadratureSpec,
    SchwartzFunction,
    Subalgebra,
    build_layered_basis,
    build_operator,
    c_norm,
    character,
    chart_for,
    d_matrix,
    generic_polarization,
    hs_norm_sq,
    invert,
    is_generic,
    jump_sets,
    kernel_values,
    plancherel,
    polarization_check,
    sample_generic,
    sqrt_det_d,
    trace_shifted,
    vergne_polarization,
)
from nilfourier.errors import (
    DimensionMismatch,
    NilfourierError,
    NonConvergence,
    NotGeneric,
    NotInLieImage,
    QuadratureUnderflow,
    SpecMismatch,
)
from nilfourier import fourier, polarization
from nilfourier.fourier import (
    _h_phase_rate,
    _resolvable_rate,
    _section_scale,
    thread_count,
)
from nilfourier.tensor_algebra import exp_t, group_inverse, log_t, mul

from oracles import (
    HEISENBERG_C_NORM,
    ORACLE_FRAME_STEP,
    conjugation_route_kernel,
    flat_route_kernel,
    flip_signs,
    frequency_plane_by_node,
    gaussian_hat,
    haar_invariance_check,
    heisenberg_hs_sq,
    heisenberg_kernel,
    heisenberg_trace,
    kirillov_trace,
    pfaffian,
    plane_decisions_by_node,
    tensor_chart_decompose,
    tensor_chart_product,
    tensor_route_kernel,
)


@functools.lru_cache(maxsize=None)
def _basis(d: int, N: int) -> LayeredBasis:
    return build_layered_basis(GroupSpec(d, N))


def _heisenberg_functional(lam: float, a: float = 0.0, b: float = 0.0) -> Functional:
    # flat order puts the top layer first: (bracket, first, second generator)
    return Functional(_basis(2, 2), np.array([lam, a, b]))


def _complex_gaussian(dim: int) -> SchwartzFunction:
    """The unit Gaussian times a plane wave: a function with complex values."""
    gauss = SchwartzFunction.gaussian(dim)
    freq = np.linspace(-0.6, 0.9, dim)
    return SchwartzFunction(dim, lambda c: gauss(c) * np.exp(1j * (c @ freq)), gauss.decay_box)


def _low_res(**overrides) -> QuadratureSpec:
    base = dict(
        h_nodes=8,
        h_halfwidth=8.0,
        section_nodes=8,
        section_halfwidth=8.0,
        t_nodes=8,
        t_halfwidth=8.0,
    )
    base.update(overrides)
    return QuadratureSpec(**base)


# ---------------------------------------------------------------------------
# QuadratureSpec
# ---------------------------------------------------------------------------


def test_quadrature_presets_are_valid_and_distinct():
    ref = QuadratureSpec.reference()
    demo = QuadratureSpec.demo()
    assert ref.h_nodes > demo.h_nodes
    assert ref.t_nodes > demo.t_nodes


@pytest.mark.parametrize(
    "bad",
    [
        {"h_nodes": 4},
        {"section_nodes": 0},
        {"t_nodes": 7},
        {"h_halfwidth": 0.0},
        {"section_halfwidth": -1.0},
        {"t_halfwidth": 0.0},
        {"t_halfwidth": float("inf")},
        {"h_halfwidth": float("inf")},
        {"section_halfwidth": float("nan")},
    ],
)
def test_quadrature_spec_rejects_degenerate_grids(bad):
    with pytest.raises(DimensionMismatch):
        _low_res(**bad)


def test_quadrature_spec_json_round_trip():
    q = _low_res(h_nodes=10, t_halfwidth=5.5)
    again = QuadratureSpec.from_json_dict(q.to_json_dict())
    assert again == q
    # a width may be a JSON integer; it is stored as a float
    wide = QuadratureSpec.from_json_dict({"h_halfwidth": 9})
    assert wide.h_halfwidth == 9.0 and isinstance(wide.h_halfwidth, float)


def test_quadrature_spec_rejects_unknown_json_fields():
    blob = QuadratureSpec.demo().to_json_dict()
    blob["surprise"] = 1
    with pytest.raises(DimensionMismatch):
        QuadratureSpec.from_json_dict(blob)


@pytest.mark.parametrize(
    "field,value",
    [
        ("h_nodes", 12.7),
        ("section_nodes", 12.0),
        ("t_nodes", "16"),
        ("t_nodes", True),
        ("h_halfwidth", "8"),
        ("section_halfwidth", False),
        ("t_halfwidth", None),
    ],
)
def test_quadrature_spec_rejects_mistyped_json_fields(field, value):
    blob = QuadratureSpec.demo().to_json_dict()
    blob[field] = value
    with pytest.raises(DimensionMismatch, match=field):
        QuadratureSpec.from_json_dict(blob)


# ---------------------------------------------------------------------------
# SchwartzFunction
# ---------------------------------------------------------------------------


def test_gaussian_values_and_batch_shapes():
    f = SchwartzFunction.gaussian(3)
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0]])
    vals = f(pts)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(np.exp(-0.5 * 6.0))
    stacked = f(np.stack([pts, pts]))
    assert stacked.shape == (2, 2)
    assert np.allclose(stacked[0], vals)


def test_gaussian_decay_box_suppresses_tails():
    f = SchwartzFunction.gaussian(2, scale=1.0)
    edge = np.array([f.decay_box[0], 0.0])
    assert abs(f(edge[None, :])[0]) < 1e-10


@pytest.mark.parametrize("box", [np.nan, np.inf, -1.0, 0.0])
def test_schwartz_rejects_a_decay_box_that_is_not_positive_and_finite(box):
    with pytest.raises(DimensionMismatch, match="positive and finite"):
        SchwartzFunction(2, lambda c: np.zeros(c.shape[:-1]), np.array([1.0, box]))
    with pytest.raises(DimensionMismatch, match="positive and finite"):
        SchwartzFunction.gaussian(2, scale=box)


def test_schwartz_rejects_wrong_coordinate_count():
    f = SchwartzFunction.gaussian(3)
    with pytest.raises(DimensionMismatch):
        f(np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# Malcev charts
# ---------------------------------------------------------------------------


def test_identity_chart_uses_plain_coordinate_order():
    basis = _basis(2, 2)
    chart = MalcevChart(basis)
    assert chart.q_h == chart.q_c == 0
    assert chart.q == basis.dim
    assert np.allclose(np.abs(chart.W), np.eye(basis.dim))
    # with no subgroup to integrate over, the kernel is f at log(x y^-1)
    f = SchwartzFunction.gaussian(basis.dim)
    rng = np.random.default_rng(2)
    xs, ys = rng.standard_normal((2, 4, basis.dim))
    kv = kernel_values(f, _heisenberg_functional(0.9), chart, _low_res(), xs, ys)
    assert np.array_equal(kv, f(basis.bch_coords(chart.section(xs), -chart.section(ys))))
    # rows of two members take their first pair's coset: f once per row
    points = []
    counted = SchwartzFunction(basis.dim, lambda c: points.append(len(c)) or f(c), f.decay_box)
    ell = _heisenberg_functional(0.9)
    rows = kernel_values(counted, ell, chart, _low_res(), xs.reshape(2, 2, -1), ys[::2])
    assert points == [2] and np.array_equal(rows, np.repeat(kv[::2, None], 2, axis=1))


@pytest.mark.parametrize("d,N", [(2, 2), (3, 3)])
def test_chart_decompose_reconstructs_group_element(d, N):
    basis = _basis(d, N)
    ell = sample_generic(basis, np.random.default_rng(11))
    chart = chart_for(ell)
    rng = np.random.default_rng(3)
    alpha = 0.7 * rng.standard_normal((6, basis.dim))
    g = chart.gamma(alpha)
    sec, rem = chart.decompose(g)
    # the ordered-product coordinates split exactly at the subalgebra boundary
    assert np.allclose(sec, alpha[:, chart.q_h :], atol=1e-10)
    rebuilt = basis.bch_coords(chart.section(sec), rem)
    assert np.allclose(g, rebuilt, atol=1e-10)
    # the remainder lies in the subalgebra's image: no section components
    rem_coords = rem @ chart.W
    assert np.max(np.abs(rem_coords[..., chart.q_h :])) < 1e-10


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (1, 3)])
def test_chart_central_block_is_the_top_layer(d, N):
    # on the abelian line every subgroup column is central
    basis = _basis(d, N)
    if d == 1:
        chart = chart_for(Functional(basis, np.array([0.7])))
        assert chart.q_c == chart.q_h == 1
    else:
        chart = chart_for(sample_generic(basis, np.random.default_rng(11)))
        assert chart.q_c == basis.layers[N - 1].dim
    assert np.all(chart._commutes[: chart.q_c])


def test_chart_decompose_is_left_equivariant_over_the_subgroup():
    basis = _basis(2, 2)
    ell = _heisenberg_functional(0.9)
    chart = chart_for(ell)
    rng = np.random.default_rng(8)
    w = rng.standard_normal((5, chart.q))
    a = rng.standard_normal((5, chart.q_h))
    g = basis.bch_coords(chart.section(w), chart.gamma_h(a))
    sec, rem = chart.decompose(g)
    assert np.allclose(sec, w, atol=1e-10)
    rem_h = rem @ chart.W
    assert np.max(np.abs(rem_h[..., chart.q_h :])) < 1e-10


@pytest.mark.parametrize("d,N", [(2, 2), (3, 3), (2, 3), (3, 2), (2, 4)])
def test_flat_chart_maps_match_tensor_chart_maps(d, N):
    # (3, 2) and (2, 3) have non-abelian subgroups
    basis = _basis(d, N)
    chart = chart_for(sample_generic(basis, np.random.default_rng(11)))
    rng = np.random.default_rng(30 + N)
    a = 0.7 * rng.standard_normal((6, chart.q_h))
    y = 0.7 * rng.standard_normal((6, chart.q))

    def close(flat, element):
        oracle = basis.flat_coords(log_t(element))
        assert np.max(np.abs(flat - oracle)) <= 1e-12 * (1.0 + np.max(np.abs(oracle)))

    close(chart.gamma_h(a), tensor_chart_product(chart, a, 0))
    close(chart.section(y), tensor_chart_product(chart, y, chart.q_h))
    alpha = 0.7 * rng.standard_normal((6, basis.dim))
    g = tensor_chart_product(chart, alpha, 0)
    close(chart.gamma(alpha), g)
    sec, rem = tensor_chart_decompose(chart, g)
    sec_flat, rem_flat = chart.decompose(basis.flat_coords(log_t(g)))
    assert np.max(np.abs(sec_flat - sec)) <= 1e-12 * (1.0 + np.max(np.abs(sec)))
    close(rem_flat, rem)


@pytest.mark.parametrize("d,N,abelian", [(2, 2, True), (3, 3, True), (2, 4, True), (3, 2, False), (2, 3, False)])
def test_abelian_subgroup_chart_is_linear(d, N, abelian):
    basis = _basis(d, N)
    chart = chart_for(sample_generic(basis, np.random.default_rng(11)))
    assert chart._commutes[: chart.q_h, : chart.q_h].all() == abelian
    if not abelian:
        return
    a = 0.7 * np.random.default_rng(d + N).standard_normal((6, chart.q_h))
    flat = chart.gamma_h(a)
    linear = a @ chart.W[:, : chart.q_h].T
    oracle = basis.flat_coords(log_t(tensor_chart_product(chart, a, 0)))
    assert np.max(np.abs(flat - linear)) <= 1e-12 * (1.0 + np.max(np.abs(linear)))
    assert np.max(np.abs(flat - oracle)) <= 1e-12 * (1.0 + np.max(np.abs(oracle)))


def test_chart_rejects_orders_without_nested_ideals():
    basis = _basis(2, 2)
    # span of the first generator alone: the chart order it induces puts that
    # generator first, whose span is not an ideal (its bracket with the other
    # generator leaves it), so chart construction must refuse.
    vec = np.zeros((1, basis.dim))
    vec[0, 1] = 1.0
    with pytest.raises(NotGeneric, match="chart prefix 1 "):
        MalcevChart(basis, Subalgebra(basis, vec))


def test_chart_rejects_subalgebras_that_are_not_layer_graded():
    basis = _basis(2, 2)
    # span{X1 + Z} projects onto layers 1 and 2 with rank 1 each: 2 > dim 1
    vec = np.zeros((1, basis.dim))
    vec[0, basis.flat_index(1, 1)] = vec[0, basis.flat_index(2, 1)] = 1.0
    with pytest.raises(NotGeneric, match="layer-graded"):
        MalcevChart(basis, Subalgebra(basis, vec))


def test_chart_for_routes_by_genericity():
    ell = _heisenberg_functional(1.2)
    assert chart_for(ell).q_h == 2
    basis23 = _basis(2, 3)
    ell23 = sample_generic(basis23, np.random.default_rng(2))
    chart23 = chart_for(ell23)  # layer-built, like every other group
    assert chart23.q_h == vergne_polarization(ell23).dim
    with pytest.raises(NotGeneric):
        chart_for(_heisenberg_functional(0.0, 1.0, 1.0))


def test_character_is_unitary_and_multiplicative_on_the_subgroup():
    basis = _basis(3, 3)
    ell = sample_generic(basis, np.random.default_rng(4))
    chart = chart_for(ell)
    rng = np.random.default_rng(5)
    a1 = 0.6 * rng.standard_normal((7, chart.q_h))
    a2 = 0.6 * rng.standard_normal((7, chart.q_h))
    c1 = character(ell, chart, a1)
    c2 = character(ell, chart, a2)
    assert np.allclose(np.abs(c1), 1.0, atol=1e-12)
    u12 = mul(tensor_chart_product(chart, a1, 0), tensor_chart_product(chart, a2, 0))
    expected = np.exp(1j * ell.evaluate(log_t(u12)))
    assert np.allclose(c1 * c2, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def test_kernel_matches_closed_form():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    qref = QuadratureSpec.reference()
    for lam in (0.6, 1.3, 2.5):
        ell = _heisenberg_functional(lam)
        chart = chart_for(ell)
        xs = np.array([[0.0], [0.7], [-1.1], [0.3]])
        ys = np.array([[0.0], [-0.4], [0.9], [0.3]])
        kv = kernel_values(f, ell, chart, qref, xs, ys)
        expect = heisenberg_kernel(lam, xs[:, 0], ys[:, 0])
        assert np.max(np.abs(kv - expect)) < 1e-9


def test_kernel_framed_quadrature_matches_plain_quadrature():
    # independent route: trapezoid directly over subgroup coordinates with no
    # frame, no recentering, and no substitution
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    qref = QuadratureSpec.reference()
    ell = Functional(basis, np.array([0.7, 0.3, -0.2]))
    chart = chart_for(ell)
    xs = np.array([[0.4], [-0.3]])
    ys = np.array([[-0.2], [0.5]])
    framed = kernel_values(f, ell, chart, qref, xs, ys)

    nodes = np.linspace(-9.0, 9.0, 240)
    w = np.full(nodes.size, nodes[1] - nodes[0])
    w[0] = w[-1] = 0.5 * (nodes[1] - nodes[0])
    a1, a2 = np.meshgrid(nodes, nodes, indexing="ij")
    apts = np.stack([a1.ravel(), a2.ravel()], axis=-1)
    ww = (w[:, None] * w[None, :]).ravel()
    u = tensor_chart_product(chart, apts, 0)
    phase = character(ell, chart, apts)
    for i in range(xs.shape[0]):
        gx = tensor_chart_product(chart, xs[i], chart.q_h)
        gyi = group_inverse(tensor_chart_product(chart, ys[i], chart.q_h))
        inner = mul(mul(gx.broadcast_to((apts.shape[0],)), u), gyi.broadcast_to((apts.shape[0],)))
        naive = np.sum(ww * f(basis.flat_coords(log_t(inner))) * phase)
        assert abs(framed[i] - naive) < 1e-8


def test_kernel_conjugates_under_frequency_sign_flip():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    q = _low_res(h_nodes=16, section_nodes=16)
    xs = np.array([[0.5], [-0.8]])
    ys = np.array([[0.1], [0.6]])
    kp = kernel_values(f, _heisenberg_functional(0.9), chart_for(_heisenberg_functional(0.9)), q, xs, ys)
    km = kernel_values(f, _heisenberg_functional(-0.9), chart_for(_heisenberg_functional(-0.9)), q, xs, ys)
    assert np.allclose(km, np.conj(kp), atol=1e-12)


@pytest.mark.parametrize("d,N,complex_f", [(2, 2, True), (3, 2, False), (2, 3, True)])
def test_kernel_matches_tensor_route_oracle(d, N, complex_f):
    # (2, 2) has an abelian subgroup; (3, 2) and (2, 3) do not
    basis = _basis(d, N)
    ell = sample_generic(basis, np.random.default_rng(7))
    chart = chart_for(ell)
    f = SchwartzFunction.gaussian(basis.dim)
    if complex_f:
        freq = np.linspace(-0.6, 0.9, basis.dim)
        gauss = f
        f = SchwartzFunction(
            basis.dim, lambda c: gauss(c) * np.exp(1j * (c @ freq)), gauss.decay_box
        )
    q = _low_res()
    rng = np.random.default_rng(9)
    xs = 0.8 * rng.standard_normal((3, chart.q))
    ys = 0.8 * rng.standard_normal((3, chart.q))
    kv = kernel_values(f, ell, chart, q, xs, ys)
    oracle = tensor_route_kernel(f, ell, chart, q, xs, ys, ORACLE_FRAME_STEP)
    assert np.max(np.abs(kv - oracle)) <= 1e-10 * np.max(np.abs(oracle))


@pytest.mark.parametrize("d,N", [(2, 4), (1, 3)])
def test_kernel_matches_flat_route_oracle(d, N):
    # (2, 4) folds an abelian subgroup with three central axes; on the
    # abelian line the whole subgroup is central and the rest of the grid empty
    basis = _basis(d, N)
    if d == 1:
        ell = Functional(basis, np.array([0.7]))
    else:
        ell = sample_generic(basis, np.random.default_rng(7))
    chart = chart_for(ell)
    gauss = SchwartzFunction.gaussian(basis.dim)
    freq = np.linspace(-0.6, 0.9, basis.dim)
    f = SchwartzFunction(basis.dim, lambda c: gauss(c) * np.exp(1j * (c @ freq)), gauss.decay_box)
    q = _low_res()
    rng = np.random.default_rng(9)
    xs = 0.8 * rng.standard_normal((3, chart.q))
    ys = 0.8 * rng.standard_normal((3, chart.q))
    kv = kernel_values(f, ell, chart, q, xs, ys)
    oracle = flat_route_kernel(f, ell, chart, q, xs, ys, ORACLE_FRAME_STEP)
    assert np.max(np.abs(kv - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def _coset_rows(chart: MalcevChart, rng: np.random.Generator, rows: int, members: int):
    """Kernel rows on one coset ``H x y^-1 = H section(w)`` each, for a random
    ``w`` per row: the members ``xs`` ``(rows, members, q)`` at random, the
    row's ``y`` ``(rows, q)`` (its first member's), and the ``y`` of every
    pair ``(rows, members, q)``, with ``section(y) H = section(w)^-1
    section(x) H``."""
    w = 0.8 * rng.standard_normal((rows, 1, chart.q))
    xs = 0.8 * rng.standard_normal((rows, members, chart.q))
    ys = chart.decompose(chart.basis.bch_coords(-chart.section(w), chart.section(xs)))[0]
    return xs, ys[:, 0], ys


def _counted_bch(monkeypatch, basis: LayeredBasis) -> list[int]:
    """The point count of every group-law call on ``basis`` from now on."""
    points = []
    bch = basis.bch_coords

    def counted(x, y):
        out = bch(x, y)
        points.append(out[..., 0].size)
        return out

    monkeypatch.setattr(basis, "bch_coords", counted)
    return points


def test_kernel_runs_the_group_law_only_off_the_central_block(monkeypatch):
    basis = _basis(2, 2)
    ell = _heisenberg_functional(0.9, 0.3, -0.2)
    chart = chart_for(ell)
    assert (chart.q_h, chart.q_c, chart.q) == (2, 1, 1)
    R, M = 5, 3
    xs, ys, _ = _coset_rows(chart, np.random.default_rng(4), R, M)
    points = _counted_bch(monkeypatch, basis)
    q = _low_res()
    kernel_values(SchwartzFunction.gaussian(basis.dim), ell, chart, q, xs, ys)
    # log(x y^-1) of every row's first pair and its decompose step (R points
    # each), s^-1 x of every member and its decompose step (R M points each),
    # and the integrand, R h_nodes^(q_h - q_c) points; the frame is exact
    expected = [R, R, R * M, R * M, R * q.h_nodes ** (chart.q_h - chart.q_c)]
    assert sorted(points) == sorted(expected)


def test_kernel_runs_the_group_law_once_per_block_of_pairs(monkeypatch):
    # 100 rows are more than one integrand sub-chunk (57 rows at 24 nodes),
    # but the per-row and per-pair work still takes a single pass
    basis = _basis(2, 2)
    ell = _heisenberg_functional(0.9, 0.3, -0.2)
    chart = chart_for(ell)
    R, M = 100, 2
    xs, ys, _ = _coset_rows(chart, np.random.default_rng(5), R, M)
    points = _counted_bch(monkeypatch, basis)
    rows = []
    gauss = SchwartzFunction.gaussian(basis.dim)
    f = SchwartzFunction(basis.dim, lambda c: rows.append(len(c)) or gauss(c), gauss.decay_box)
    q = _low_res(h_nodes=24)
    kernel_values(f, ell, chart, q, xs, ys)
    assert rows == [57, 43]
    expected = [R, R, R * M, R * M, R * q.h_nodes ** (chart.q_h - chart.q_c)]
    assert sorted(points) == sorted(expected)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("complex_f", [False, True])
def test_kernel_values_do_not_depend_on_how_pairs_are_batched(monkeypatch, d, N, complex_f):
    basis = _basis(d, N)
    ell = sample_generic(basis, np.random.default_rng(7))
    chart = chart_for(ell)
    f = _complex_gaussian(basis.dim) if complex_f else SchwartzFunction.gaussian(basis.dim)
    q = _low_res()
    P = 60
    xs, ys = 0.8 * np.random.default_rng(12).standard_normal((2, P, chart.q))
    cuts = [0, 1, 9, 31, P]
    part = np.concatenate(
        [kernel_values(f, ell, chart, q, xs[a:b], ys[a:b]) for a, b in zip(cuts, cuts[1:])]
    )
    # A pair list is a list of rows of one pair. A budget of 23 rows per block
    # splits the whole batch into uneven blocks (three section calls each: x,
    # y and the coset points), and each block into integrand sub-chunks.
    m_c, m_r = (q.h_nodes**k for k in (chart.q_c, chart.q_h - chart.q_c))
    monkeypatch.setattr(fourier, "_CHUNK_BUDGET", 23 * max(m_c, m_r, basis.dim) * basis.dim)
    sections = []
    section = chart.section

    def counted(y):
        sections.append(len(y))
        return section(y)

    monkeypatch.setattr(chart, "section", counted)
    whole = kernel_values(f, ell, chart, q, xs, ys)
    assert sections == [23] * 6 + [14] * 3
    assert np.max(np.abs(whole - part)) <= 1e-14 * np.max(np.abs(part))


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("complex_f", [False, True])
def test_kernel_values_do_not_depend_on_how_rows_are_batched(monkeypatch, d, N, complex_f):
    basis = _basis(d, N)
    n = basis.dim
    ell = sample_generic(basis, np.random.default_rng(7))
    chart = chart_for(ell)
    f = _complex_gaussian(n) if complex_f else SchwartzFunction.gaussian(n)
    q = _low_res()
    R, M = 12, 5
    xs, ys, _ = _coset_rows(chart, np.random.default_rng(12), R, M)
    want = kernel_values(f, ell, chart, q, xs, ys)
    m_c, m_r = (q.h_nodes**k for k in (chart.q_c, chart.q_h - chart.q_c))
    sections, pairs, sampled = [], [], []
    section, ad_matrix = chart.section, basis.ad_matrix

    def counted_section(y):
        sections.append(len(y))
        return section(y)

    def counted_ad(x):
        if x.ndim == 3:  # the per-pair adjoints: (rows, members, n)
            pairs.append(x.shape[0] * x.shape[1])
        return ad_matrix(x)

    gauss = f
    counted_f = SchwartzFunction(n, lambda c: sampled.append(len(c)) or gauss(c), f.decay_box)
    monkeypatch.setattr(chart, "section", counted_section)
    monkeypatch.setattr(basis, "ad_matrix", counted_ad)
    pair = max(n, m_r // q.h_nodes) * n  # one pair's adjoint and contraction
    row = max(m_c, m_r) * n
    # Blocks of 5 rows whose pairs all fit; then a budget below one row's
    # pairs: a row per block, its members in chunks of 2.
    for budget, blocks in ((5 * max(row, M * pair), [5, 5, 2]), (2 * pair, [1] * R)):
        monkeypatch.setattr(fourier, "_CHUNK_BUDGET", budget)
        sections.clear(), pairs.clear(), sampled.clear()
        got = kernel_values(counted_f, ell, chart, q, xs, ys)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # x, y and the coset points of each block's rows
        assert sections == [b for b in blocks for _ in range(3)]
        # rows times members of every per-pair pass within the budget
        assert sum(pairs) == R * M and all(p * pair <= budget for p in pairs)
        assert sum(sampled) == R
        assert all(s <= max(1, budget // (m_c * m_r * n)) for s in sampled)
    assert max(pairs) == 2


@pytest.mark.parametrize(
    "spec",
    [GroupSpec(2, 2), GroupSpec(3, 2), GroupSpec(2, 2, "FullTensor")],
    ids=["2,2", "3,2", "FullTensor-2,2"],
)
@pytest.mark.parametrize("complex_f", [False, True])
def test_rows_of_pairs_match_rows_of_one_pair(spec, complex_f):
    basis = build_layered_basis(spec)
    rng = np.random.default_rng(3)
    ell = sample_generic(basis, rng)
    chart = chart_for(ell)
    f = _complex_gaussian(basis.dim) if complex_f else SchwartzFunction.gaussian(basis.dim)
    q = _low_res()
    R, M = 4, 6
    xs, ys, pair_ys = _coset_rows(chart, rng, R, M)
    rows = kernel_values(f, ell, chart, q, xs, ys)
    pairs = (xs.reshape(-1, chart.q), pair_ys.reshape(-1, chart.q))
    singles = kernel_values(f, ell, chart, q, *pairs).reshape(rows.shape)
    assert rows.shape == (R, M)
    assert np.max(np.abs(rows - singles)) <= 1e-13 * np.max(np.abs(singles))


def test_f_is_sampled_once_per_coset():
    basis = _basis(2, 2)
    ell = _heisenberg_functional(0.9)
    chart = chart_for(ell)
    q = _low_res(h_nodes=12, section_nodes=10)
    points = []
    gauss = SchwartzFunction.gaussian(basis.dim)
    f = SchwartzFunction(
        basis.dim, lambda c: points.append(c[..., 0].size) or gauss(c), gauss.decay_box
    )
    # one row per coset u of the Hilbert-Schmidt grid, whatever the number of v
    hs_norm_sq(f, ell, chart, q)
    assert sum(points) == q.section_nodes**chart.q * q.h_nodes**chart.q_h
    # every node of a shifted trace lies in the coset of the point
    points.clear()
    x = exp_t(basis.algebra_element(np.array([0.1, 0.3, -0.2])))
    trace_shifted(f, ell, chart, q, x)
    assert sum(points) == q.h_nodes**chart.q_h


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2)])
def test_quadrature_grids_are_cached_read_only_and_change_no_value(d, N):
    # the grids that depend only on the QuadratureSpec are built once per key
    # and shared, so they are read-only; a cold cache gives the same bytes
    basis = _basis(d, N)
    ell = sample_generic(basis, np.random.default_rng(4))
    chart = chart_for(ell)
    q = _low_res()
    f = _complex_gaussian(basis.dim)
    xs, ys = 0.8 * np.random.default_rng(6).standard_normal((2, 6, chart.q))

    def run():
        return kernel_values(f, ell, chart, q, xs, ys), np.float64(hs_norm_sq(f, ell, chart, q))

    warm = run()
    hits = fourier._cube_grid.cache_info().hits
    assert [a.tobytes() for a in run()] == [a.tobytes() for a in warm]
    assert fourier._cube_grid.cache_info().hits > hits
    fourier._cube_grid.cache_clear()
    assert [a.tobytes() for a in run()] == [a.tobytes() for a in warm]
    for dim in (chart.q_c, chart.q_h - chart.q_c):
        pts, w = fourier._cube_grid(q.h_nodes, q.h_halfwidth, dim)
        with pytest.raises(ValueError):
            pts[...] = 0.0
        with pytest.raises(ValueError):
            w[...] = 0.0
        # the general builder gives the same grid, its own to write
        general = fourier._tensor_grid([(q.h_nodes, q.h_halfwidth)] * dim)
        assert all(np.array_equal(a, b) and a.flags.writeable for a, b in zip(general, (pts, w)))


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3)])
def test_kernel_values_do_not_depend_on_the_shape_of_uniques_inverse(monkeypatch, d, N):
    # NumPy 2 gives np.unique's inverse the input's shape, NumPy 1 flattens it.
    basis = _basis(d, N)
    ell = sample_generic(basis, np.random.default_rng(7))
    chart = chart_for(ell)
    f = SchwartzFunction.gaussian(basis.dim)
    xs, ys = 0.8 * np.random.default_rng(12).standard_normal((2, 5, chart.q))
    expected = kernel_values(f, ell, chart, _low_res(), xs, ys)
    unique = np.unique

    def flat_inverse(ar, **kwargs):
        values, inverse = unique(ar, **kwargs)
        return values, inverse.ravel()

    monkeypatch.setattr(np, "unique", flat_inverse)
    assert np.array_equal(kernel_values(f, ell, chart, _low_res(), xs, ys), expected)


def _abelian_ideal_chart(basis: LayeredBasis) -> MalcevChart:
    """The chart of ``span(e_1, [e_j, e_1] for j > 1)``, an abelian ideal whose
    bracket part is central: ``d - 1`` central axes and one other."""
    e = np.eye(basis.dim)[[basis.flat_index(1, j) for j in range(1, basis.spec.d + 1)]]
    rows = np.array([e[0]] + [basis.bracket_coords(v, e[0]) for v in e[1:]])
    return MalcevChart(basis, Subalgebra(basis, rows / np.linalg.norm(rows, axis=1)[:, None]))


@pytest.mark.parametrize(
    "spec,complex_f",
    [
        (GroupSpec(2, 4), False),
        (GroupSpec(2, 2, "FullTensor"), False),
        (GroupSpec(4, 2), False),
        (GroupSpec(4, 2), True),
    ],
    ids=["2,4-real", "FullTensor-2,2-real", "4,2-real", "4,2-complex"],
)
def test_kernel_with_several_central_axes_matches_the_oracles(spec, complex_f):
    # the central block is contracted as one GEMM over all its axes: three on
    # (2, 4) and on the (4, 2) ideal chart, four on FullTensor (2, 2). The
    # generic (4, 2) chart has q_h = 8, 8^8 points a pair at the smallest grid.
    basis = build_layered_basis(spec)
    ell = sample_generic(basis, np.random.default_rng(7))
    chart = _abelian_ideal_chart(basis) if spec.d == 4 else chart_for(ell)
    assert chart.q_c >= 3 and chart.q_h > chart.q_c
    f = _complex_gaussian(basis.dim) if complex_f else SchwartzFunction.gaussian(basis.dim)
    q = _low_res()
    xs, ys = 0.8 * np.random.default_rng(9).standard_normal((2, 2, chart.q))
    kv = kernel_values(f, ell, chart, q, xs, ys)
    route = flat_route_kernel if spec.N > 2 else tensor_route_kernel
    oracle = route(f, ell, chart, q, xs, ys, ORACLE_FRAME_STEP)
    assert np.max(np.abs(kv - oracle)) <= 1e-10 * np.max(np.abs(oracle))


@pytest.mark.parametrize(
    "spec,pairs",
    [
        (GroupSpec(2, 2), 3),
        (GroupSpec(3, 2), 3),
        (GroupSpec(2, 2, "FullTensor"), 3),
        (GroupSpec(4, 2), 3),
        (GroupSpec(2, 4), 1),
    ],
    ids=["2,2", "3,2", "FullTensor-2,2", "4,2-ideal", "2,4"],
)
def test_conjugation_form_matches_where_the_frames_coincide(spec, pairs):
    # h -> x h x^-1 carries the conjugation form's grid onto the coset form's
    # whenever the map a -> log(gamma_h(a) s) is affine: on every depth-2 group
    # and on an abelian subgroup, here (2, 4)'s (about 0.4 s a pair). (4, 2)
    # uses its abelian ideal chart.
    basis = build_layered_basis(spec)
    ell = sample_generic(basis, np.random.default_rng(7))
    chart = _abelian_ideal_chart(basis) if spec.d == 4 else chart_for(ell)
    xs, ys = 0.8 * np.random.default_rng(9).standard_normal((2, pairs, chart.q))
    q = _low_res()
    for f in (SchwartzFunction.gaussian(basis.dim), _complex_gaussian(basis.dim)):
        kv = kernel_values(f, ell, chart, q, xs, ys)
        oracle = conjugation_route_kernel(f, ell, chart, q, xs, ys, ORACLE_FRAME_STEP)
        assert np.max(np.abs(kv - oracle)) <= 1e-10 * np.max(np.abs(oracle))


@pytest.mark.parametrize("complex_f", [False, True])
def test_coset_and_conjugation_forms_converge_together_on_a_non_abelian_subgroup(complex_f):
    # On (2, 3) the subgroup is not abelian, and the two forms place their
    # grids differently: they integrate the same kernel and differ by the
    # quadrature error of the grid. At the fixed half-width 8 that error stalls
    # near 2e-4 of max |K| from 16 nodes on (the conjugation form's sheared
    # integrand is truncated by the box), so the box grows with the node count
    # at a spacing of about one. Measured differences, relative to max |K|, at
    # (half-width, nodes) = (8, 16), (10, 20), (12, 24): 1.2e-6, 2.3e-7,
    # 2.4e-8 for the real f and 5.5e-6, 2.9e-7, 2.8e-8 for the complex one.
    # The bounds are about twice those.
    bounds = [2.4e-6, 4.6e-7, 4.8e-8] if not complex_f else [1.1e-5, 5.8e-7, 5.6e-8]
    grids = [(8.0, 16), (10.0, 20), (12.0, 24)]
    basis = _basis(2, 3)
    ell = sample_generic(basis, np.random.default_rng(7))
    chart = chart_for(ell)
    assert not chart._commutes[: chart.q_h, : chart.q_h].all()
    f = _complex_gaussian(basis.dim) if complex_f else SchwartzFunction.gaussian(basis.dim)
    xs, ys = 0.8 * np.random.default_rng(9).standard_normal((2, 1, chart.q))
    diffs = []
    for (halfwidth, nodes), bound in zip(grids, bounds):
        q = _low_res(h_nodes=nodes, h_halfwidth=halfwidth)
        kv = kernel_values(f, ell, chart, q, xs, ys)
        oracle = conjugation_route_kernel(f, ell, chart, q, xs, ys, ORACLE_FRAME_STEP)
        diffs.append(np.max(np.abs(kv - oracle)) / np.max(np.abs(oracle)))
        assert diffs[-1] <= bound
    assert diffs[0] > diffs[1] > diffs[2]


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_mirror_functional_shares_the_node_set_up(d, N):
    # the frequency plane runs genericity, sqrt(det D), the chart and the
    # phase-rate skip once for ell and -ell
    basis = _basis(d, N)
    jump = jump_sets(basis)
    rng = np.random.default_rng(11)
    for _ in range(5):
        ell = sample_generic(basis, rng)
        neg = Functional(basis, -ell.flat)
        assert is_generic(neg)
        assert sqrt_det_d(neg, jump) == pytest.approx(sqrt_det_d(ell, jump), rel=1e-14)
        chart = chart_for(ell)
        rows = chart.W[:, : chart.q_h].T
        rate = _h_phase_rate(ell.flat, rows)
        assert _h_phase_rate(neg.flat, rows) == pytest.approx(rate, rel=1e-14)
        sub = Subalgebra(basis, chart.W[:, : chart.q_h].T)
        assert polarization_check(sub, ell)["passed"]
        assert polarization_check(sub, neg)["passed"]


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (3, 2)])
def test_mirror_values_do_not_depend_on_the_chart(d, N):
    # for complex f the frequency plane integrates -ell on ell's chart: traces
    # and norms do not depend on the chart, so that is -ell on its own chart
    basis = _basis(d, N)
    jump = jump_sets(basis)
    rng = np.random.default_rng(9)
    ell = sample_generic(basis, rng)
    neg = Functional(basis, -ell.flat)
    charts = (chart_for(ell), chart_for(neg))
    f = _complex_gaussian(basis.dim)
    q = _low_res()
    x = exp_t(basis.algebra_element(0.3 * rng.standard_normal(basis.dim)))
    shared, own = (hs_norm_sq(f, neg, c, q, jump) for c in charts)
    assert abs(shared - own) <= 1e-12 * own
    shared, own = (trace_shifted(f, neg, c, q, x, jump) for c in charts)
    assert abs(shared - own) <= 1e-12 * abs(own)


def test_a_tuple_of_functionals_is_refused():
    # every kernel call takes one functional; the frequency plane pairs them
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    q = _low_res()
    ell = _heisenberg_functional(0.9)
    chart = chart_for(ell)
    xs = np.zeros((2, 1))
    ident = GradedElement.identity(basis.spec)
    calls = {
        "kernel_values": lambda e: kernel_values(f, e, chart, q, xs, xs),
        "trace_shifted": lambda e: trace_shifted(f, e, chart, q, ident),
        "hs_norm_sq": lambda e: hs_norm_sq(f, e, chart, q),
        "build_operator": lambda e: build_operator(f, e, chart, q),
        "_section_scale": lambda e: _section_scale(e, jump_sets(basis), q),
    }
    for name, call in calls.items():
        for bad in ((ell, Functional(basis, -ell.flat)), [ell], ()):
            with pytest.raises(DimensionMismatch, match="expected one Functional"):
                call(bad)
        call(ell)


def test_operator_is_linear_in_the_function():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    g = SchwartzFunction.gaussian(basis.dim, scale=0.6)
    combo = SchwartzFunction(
        basis.dim,
        lambda pts: 2.0 * f(pts) - 0.5 * g(pts),
        decay_box=f.decay_box,
    )
    ell = _heisenberg_functional(1.1)
    chart = chart_for(ell)
    q = _low_res(h_nodes=12, section_nodes=10)
    op_f = build_operator(f, ell, chart, q).matrix
    op_g = build_operator(g, ell, chart, q).matrix
    op_c = build_operator(combo, ell, chart, q).matrix
    assert np.allclose(op_c, 2.0 * op_f - 0.5 * op_g, atol=1e-12)


def test_operator_of_symmetric_function_is_hermitian():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    ell = _heisenberg_functional(0.8)
    op = build_operator(f, ell, chart_for(ell), QuadratureSpec.reference())
    assert op.hermitian_defect() < 1e-8


def test_grid_trace_matches_shifted_trace_at_identity():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    ell = _heisenberg_functional(0.8)
    chart = chart_for(ell)
    qref = QuadratureSpec.reference()
    op = build_operator(f, ell, chart, qref)
    tr_grid = op.trace_grid()
    tr_shift = trace_shifted(f, ell, chart, qref, GradedElement.identity(basis.spec))
    assert abs(tr_grid - tr_shift) < 1e-10 * max(1.0, abs(tr_shift))


def test_trace_matches_closed_form():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    qref = QuadratureSpec.reference()
    ident = GradedElement.identity(basis.spec)
    for lam in (0.25, 0.7, 1.5, 3.0, 5.0):
        ell = _heisenberg_functional(lam)
        tr = trace_shifted(f, ell, chart_for(ell), qref, ident)
        expect = heisenberg_trace(lam)
        assert abs(tr - expect) < 1e-6 * abs(expect) + 1e-12


@pytest.mark.parametrize("lam", [0.01, 0.046, 0.5, 0.92, 2.0])
def test_kirillov_trace_matches_the_closed_form_and_the_kernel_on_heisenberg(lam):
    # measured, relative: at most 9e-15 against the closed form and 1.8e-14
    # against the kernel at the reference grid; small frequencies widen the
    # section box like 1/lam, with no cap
    basis = _basis(2, 2)
    ell = _heisenberg_functional(lam)
    exact = kirillov_trace(ell, jump_sets(basis), gaussian_hat)
    assert exact == pytest.approx(heisenberg_trace(lam), rel=1e-13)
    f = SchwartzFunction.gaussian(basis.dim)
    ident = GradedElement.identity(basis.spec)
    tr = trace_shifted(f, ell, chart_for(ell), QuadratureSpec.reference(), ident)
    assert abs(tr - exact) <= 1e-13 * exact


def _kirillov_nodes(basis: LayeredBasis, count: int) -> list[Functional]:
    """Seeded transverse frequency nodes: each coordinate is a random sign
    times U(0.3, 0.9); the jump coordinates are zero."""
    rng = np.random.default_rng(5)
    t_idx = [basis.flat_index(k, i) for (k, i) in jump_sets(basis).T]
    nodes = []
    for _ in range(count):
        flat = np.zeros(basis.dim)
        flat[t_idx] = rng.choice([-1.0, 1.0], len(t_idx)) * rng.uniform(0.3, 0.9, len(t_idx))
        nodes.append(Functional(basis, flat))
    return nodes


# The node error of trace_shifted at the reference grid, measured against the
# oracle: 2.5e-7, 2.6e-6 and 1.2e-6; each bound is twice that. At h/s = 24/24
# the same nodes read 3.6e-4, 1.4e-3 and 3.1e-6.
@pytest.mark.parametrize("node,rtol", [(0, 5e-7), (1, 5.2e-6), (2, 2.4e-6)])
def test_kernel_trace_converges_to_the_kirillov_trace_on_2_3(node, rtol):
    basis = _basis(2, 3)
    ell = _kirillov_nodes(basis, 3)[node]
    assert is_generic(ell)
    exact = kirillov_trace(ell, jump_sets(basis), gaussian_hat)
    f = SchwartzFunction.gaussian(basis.dim)
    ident = GradedElement.identity(basis.spec)
    chart = chart_for(ell)
    qref = QuadratureSpec.reference()
    errors = [
        abs(trace_shifted(f, ell, chart, q, ident) - exact) / exact
        for q in (qref, replace(qref, h_nodes=24, section_nodes=24))
    ]
    assert errors[0] <= rtol
    assert errors[1] > errors[0]  # the coarser grid is further from the oracle


# A generator sign flip sigma_i (flat D_i, tests/oracles.py::flip_signs) is an
# automorphism that fixes the unit Gaussian, so the node at D_i ell, on its own
# chart, has the Hilbert-Schmidt norm of the node at ell. Measured at a seeded
# generic ell, relative: 2.2e-16 on (2,3) and (3,2), 8.9e-16 on FullTensor
# (2,2) and 1.1e-16 on (2,4) (at h/s = 8/8, about 0.8 s a norm); seeds 1 and
# 2 read up to 6e-15 on (3,2). It checks that charts, frames and twists are
# equivariant, not that the norms are accurate.
@pytest.mark.parametrize(
    "spec,h_nodes,i",
    [
        pytest.param(spec, h_nodes, i, id=f"{name}-flip{i}")
        for name, spec, h_nodes in [
            ("2,3", GroupSpec(2, 3), 12),
            ("3,2", GroupSpec(3, 2), 12),
            ("FullTensor-2,2", GroupSpec(2, 2, Flavor.FULL_TENSOR), 12),
            ("2,4", GroupSpec(2, 4), 8),
        ]
        for i in range(1, spec.d + 1)
    ],
)
def test_hs_norm_is_invariant_under_generator_sign_flips(spec, h_nodes, i):
    basis = build_layered_basis(spec)
    q = replace(QuadratureSpec.demo(), h_nodes=h_nodes, section_nodes=h_nodes)
    f = SchwartzFunction.gaussian(basis.dim)
    ell = sample_generic(basis, np.random.default_rng(0))
    flipped = Functional(basis, flip_signs(basis)[i - 1] * ell.flat)
    assert is_generic(flipped)
    base = hs_norm_sq(f, ell, chart_for(ell), q)
    assert hs_norm_sq(f, flipped, chart_for(flipped), q) == pytest.approx(base, rel=5.1e-15)


# invert(f, sigma_i x) = invert(f, x) for the unit Gaussian: the frequency plane
# is symmetric under every D_i, and so are its node decisions. Measured at a
# seeded point, relative: 1.5e-17 on (2,3) and 1.8e-16 on FullTensor (2,2)
# with t_nodes = 8, t_halfwidth = 4 (0.05 s a call); 4.6e-16 on (3,2) at the
# demo preset (0.5 s a call). Each bound is about twice that.
@pytest.mark.parametrize(
    "spec,t_nodes,t_halfwidth,rtol,i",
    [
        pytest.param(spec, t_nodes, t_halfwidth, rtol, i, id=f"{name}-flip{i}")
        for name, spec, t_nodes, t_halfwidth, rtol in [
            ("2,3", GroupSpec(2, 3), 8, 4.0, 4e-16),
            ("FullTensor-2,2", GroupSpec(2, 2, Flavor.FULL_TENSOR), 8, 4.0, 4e-16),
            ("3,2", GroupSpec(3, 2), 16, 8.0, 1e-15),
        ]
        for i in range(1, spec.d + 1)
    ],
)
def test_invert_is_invariant_under_generator_sign_flips(spec, t_nodes, t_halfwidth, rtol, i):
    basis = build_layered_basis(spec)
    q = replace(QuadratureSpec.demo(), t_nodes=t_nodes, t_halfwidth=t_halfwidth)
    f = SchwartzFunction.gaussian(basis.dim)
    c = np.random.default_rng(11).uniform(-0.3, 0.3, basis.dim)
    base = invert(f, exp_t(basis.algebra_element(c)), basis, q)
    flipped = invert(f, exp_t(basis.algebra_element(flip_signs(basis)[i - 1] * c)), basis, q)
    assert abs(flipped - base) <= rtol * abs(base)


def test_hs_norm_matches_closed_form():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    q = _low_res(h_nodes=24, section_nodes=24, t_nodes=16)
    for lam in (0.5, 2.0):
        ell = _heisenberg_functional(lam)
        hs = hs_norm_sq(f, ell, chart_for(ell), q)
        expect = heisenberg_hs_sq(lam)
        assert hs == pytest.approx(expect, rel=1e-6)
    # small frequencies at the reference grid, where the v box is 16/lam wide:
    # measured 4.4e-15 and 1.2e-14 relative
    for lam in (0.01, 1e-3):
        ell = _heisenberg_functional(lam)
        hs = hs_norm_sq(f, ell, chart_for(ell), QuadratureSpec.reference())
        assert hs == pytest.approx(heisenberg_hs_sq(lam), rel=1e-12)
    # Smaller still, each row's coset is recovered from its first pair, whose
    # section coordinate is about 8/lam, so it carries a rounding error of
    # about eps 8/lam: measured -1.0e-9 and -2.2e-8 relative
    for lam in (1e-7, 1e-8):
        ell = _heisenberg_functional(lam)
        hs = hs_norm_sq(f, ell, chart_for(ell), QuadratureSpec.reference())
        assert hs == pytest.approx(heisenberg_hs_sq(lam), rel=8 * np.finfo(float).eps / lam)


def test_kernel_error_shrinks_fast_under_grid_refinement():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    ell = _heisenberg_functional(1.0)
    chart = chart_for(ell)
    xs = np.array([[0.0], [0.6], [-0.9]])
    ys = np.array([[0.2], [-0.5], [0.1]])
    expect = heisenberg_kernel(1.0, xs[:, 0], ys[:, 0])
    errs = {}
    for nodes in (12, 24):
        q = _low_res(h_nodes=nodes, section_nodes=nodes)
        kv = kernel_values(f, ell, chart, q, xs, ys)
        errs[nodes] = max(np.max(np.abs(kv - expect)), 1e-15)
    assert errs[12] / errs[24] >= 4.0


def test_underflow_guard_rejects_boxes_smaller_than_the_function():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)  # decay box ~ 7.4
    ell = _heisenberg_functional(1.0)
    q = _low_res(h_halfwidth=2.0)
    with pytest.raises(QuadratureUnderflow):
        kernel_values(f, ell, chart_for(ell), q, np.zeros((1, 1)), np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# Pfaffian factor and normalization
# ---------------------------------------------------------------------------


def test_sqrt_det_d_matches_determinant():
    # the reference is the Pfaffian by first-row expansion: Pf(D)^2 = det D
    rng = np.random.default_rng(9)
    for d, N in [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 2), (2, 5)]:
        basis = _basis(d, N)
        jump = jump_sets(basis)
        for _ in range(5):
            ell = sample_generic(basis, rng)
            mat = d_matrix(ell, jump)
            assert mat.shape == (len(jump.S),) * 2
            assert np.allclose(mat, -mat.T, atol=1e-12)
            pf = pfaffian(mat)
            assert pf != 0.0
            assert sqrt_det_d(ell, jump) == pytest.approx(abs(pf), rel=1e-12)


def test_sqrt_det_d_heisenberg_is_frequency_magnitude():
    for lam in (0.3, -2.0, 5.5):
        assert sqrt_det_d(_heisenberg_functional(lam, 0.4, -0.1)) == pytest.approx(abs(lam))


def test_sqrt_det_d_on_depth3_pair_is_top_coordinate_magnitude():
    basis = _basis(2, 3)
    rng = np.random.default_rng(12)
    for _ in range(4):
        flat = rng.standard_normal(basis.dim)
        ell = Functional(basis, flat)
        expect = abs(flat[basis.flat_index(3, 1)])
        assert sqrt_det_d(ell) == pytest.approx(expect, rel=1e-12)


def test_normalization_constant_heisenberg():
    basis = _basis(2, 2)
    assert c_norm(basis, jump_sets(basis)) == pytest.approx(HEISENBERG_C_NORM, rel=1e-14)


# ---------------------------------------------------------------------------
# Adaptive quadrature controls
# ---------------------------------------------------------------------------


def test_section_scale_tracks_inverse_frequency():
    basis = _basis(2, 2)
    jump = jump_sets(basis)
    qref = QuadratureSpec.reference()
    assert _section_scale(_heisenberg_functional(2.0), jump, qref) == pytest.approx(0.5)
    assert _section_scale(_heisenberg_functional(0.05), jump, qref) == pytest.approx(20.0)


def test_section_scale_tightens_on_coarse_subgroup_grids():
    basis = _basis(2, 2)
    jump = jump_sets(basis)
    q16 = _low_res(h_nodes=16)
    rate = _resolvable_rate(q16)
    assert rate < q16.section_halfwidth  # coarse grid: tightening active
    got = _section_scale(_heisenberg_functional(1.0), jump, q16)
    assert got == pytest.approx(rate / q16.section_halfwidth)


def test_phase_rate_equals_subgroup_component_norm():
    # the frequency plane reads |ell_h| from the polarization's rows before
    # any chart is built; it is the chart's |ell_h|
    ell = _heisenberg_functional(1.75)
    rate = _h_phase_rate(ell.flat, generic_polarization(ell).vectors)
    assert rate == pytest.approx(1.75, rel=1e-12)
    rng = np.random.default_rng(13)
    for d, N in [(2, 2), (2, 3), (3, 2), (2, 4)] * 5:
        ell = sample_generic(_basis(d, N), rng)
        chart = chart_for(ell)
        expect = np.linalg.norm((ell.flat @ chart.W)[: chart.q_h])
        got = _h_phase_rate(ell.flat, generic_polarization(ell).vectors)
        assert abs(got - expect) <= 1e-14 * expect


# ---------------------------------------------------------------------------
# Inversion and Plancherel
# ---------------------------------------------------------------------------


def test_invert_demo_preset_roughly_recovers_point_values():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    v = invert(f, GradedElement.identity(basis.spec), basis, QuadratureSpec.demo())
    assert abs(v - 1.0) < 0.2


def test_invert_flags_unconverged_frequency_grids():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    ident = GradedElement.identity(basis.spec)
    with pytest.raises(NonConvergence):
        invert(f, ident, basis, QuadratureSpec.demo(), convergence_tol=1e-3)
    v = invert(f, ident, basis, QuadratureSpec.demo(), convergence_tol=0.2)
    assert abs(v - 1.0) < 0.2
    # the reference grid passes a tight check: doubling its 64 nodes moves
    # the value by 2e-15 (measured 1 - 2.3e-15 and 1 - 4.6e-15)
    v = invert(f, ident, basis, QuadratureSpec.reference(), convergence_tol=1e-9)
    assert abs(v - 1.0) <= 1e-13


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_invert_rejects_a_bad_convergence_tol_before_any_node_runs(monkeypatch, tol):
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    ident = GradedElement.identity(basis.spec)

    def no_plane(*args):
        raise AssertionError("a frequency node ran")

    monkeypatch.setattr(fourier, "_plane_nodes", no_plane)
    with pytest.raises(DimensionMismatch, match="convergence_tol must be finite and >= 0"):
        invert(f, ident, basis, QuadratureSpec.demo(), convergence_tol=tol)
    monkeypatch.undo()
    # zero is a tolerance: the doubled grid moves the demo result
    with pytest.raises(NonConvergence):
        invert(f, ident, basis, QuadratureSpec.demo(), convergence_tol=0.0)


def test_invert_certifies_the_point_on_empty_layers():
    # on one letter the level-2 layer is empty: a level-2 part left by the
    # logarithm means the point is not in the group
    basis = _basis(1, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    x = GradedElement(basis.spec, (np.ones(1), np.array([0.3]), np.array([0.9])))
    with pytest.raises(NotInLieImage):
        invert(f, x, basis, QuadratureSpec.demo())


def test_invert_certifies_its_point_once(monkeypatch):
    # The point is certified before the plane runs; the trace at each running
    # pair reads its coordinates and does not certify it again.
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    x = exp_t(basis.algebra_element(np.linspace(-0.3, 0.2, basis.dim)))
    qspec = _low_res(h_nodes=24, t_halfwidth=4.0)  # 4 pairs run
    ell = sample_generic(basis, np.random.default_rng(2))
    chart = chart_for(ell)
    point = fourier._CertifiedPoint(x.spec, x.levels, fourier._point_coords(basis, x))
    assert trace_shifted(f, ell, chart, qspec, point) == trace_shifted(f, ell, chart, qspec, x)
    counts = dict.fromkeys(("_point_coords", "trace_shifted"), 0)
    for name in counts:
        original = getattr(fourier, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fourier, name, counted)
    invert(f, x, basis, qspec)
    assert counts == {"_point_coords": 1, "trace_shifted": 4}
    counts.update(dict.fromkeys(counts, 0))
    invert(f, x, basis, qspec, convergence_tol=1.0)
    assert counts["_point_coords"] <= 2 and counts["trace_shifted"] > 4


def test_transforms_reject_a_point_of_another_group():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    x = exp_t(GradedElement.from_level1(GroupSpec(2, 3), np.array([0.3, 0.2])))
    with pytest.raises(SpecMismatch):
        invert(f, x, basis, QuadratureSpec.demo())
    # every node of this plane is skipped, so no trace reads the point
    skipped = QuadratureSpec(h_nodes=8, section_nodes=8, t_nodes=8, t_halfwidth=10.0)
    with pytest.raises(SpecMismatch):
        invert(f, x, basis, skipped)
    ell = sample_generic(basis, np.random.default_rng(0))
    with pytest.raises(SpecMismatch):
        trace_shifted(f, ell, chart_for(ell), QuadratureSpec.demo(), x)


def test_jump_data_of_another_spec_is_refused():
    # a FullTensor functional with the jump data of the free group of the same
    # d and N: the jump sets S agree, but T holds one of the four top-layer
    # coordinates, so |ell_T| and the section box would be wrong
    basis = build_layered_basis(GroupSpec(2, 2, Flavor.FULL_TENSOR))
    ell = sample_generic(basis, np.random.default_rng(1))
    chart = chart_for(ell)
    f = SchwartzFunction.gaussian(basis.dim)
    q = QuadratureSpec.demo()
    ident = GradedElement.identity(basis.spec)
    calls = {
        "build_operator": lambda jump: build_operator(f, ell, chart, q, jump).matrix,
        "trace_shifted": lambda jump: trace_shifted(f, ell, chart, q, ident, jump),
        "d_matrix": lambda jump: d_matrix(ell, jump),
        "sqrt_det_d": lambda jump: sqrt_det_d(ell, jump),
        "c_norm": lambda jump: c_norm(basis, jump),
        "hs_norm_sq": lambda jump: hs_norm_sq(f, ell, chart, q, jump),
    }
    other = jump_sets(_basis(2, 2))
    assert other.S == jump_sets(basis).S
    for name, call in calls.items():
        with pytest.raises(SpecMismatch, match="jump data over"):
            call(other)
        # the basis's own jump data is the default, bit for bit
        assert np.array_equal(call(jump_sets(basis)), call(None)), name


def test_invert_abelian_line_is_classical_fourier_inversion():
    # N >= 2 adds empty layers (d = 1): the same group, charted again
    for N in (1, 2, 3, 4):
        basis = _basis(1, N)
        f = SchwartzFunction.gaussian(basis.dim)
        q = _low_res(h_nodes=48, section_nodes=16, t_nodes=48)
        for x in (0.0, 0.4, -1.2):
            g = basis.algebra_element(np.array([x]))
            v = invert(f, exp_t(g), basis, q)
            assert abs(v - np.exp(-0.5 * x * x)) < 1e-8


def test_plancherel_abelian_line_is_parseval():
    for N in (1, 2, 3, 4):
        basis = _basis(1, N)
        f = SchwartzFunction.gaussian(basis.dim)
        q = _low_res(h_nodes=48, section_nodes=48, t_nodes=48)
        res = plancherel(f, basis, q)
        assert res["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_frequency_plane_builds_the_rows_of_a_pair_once(monkeypatch):
    # the plane decides its pairs in one batched pass per chunk: one stacked
    # genericity test and one stacked build of the layer-built rows, which a
    # pair that runs hands to chart_for; so one chart and one polarization
    # check per pair that runs, and no rows are built again
    basis = _basis(2, 2)
    q = _low_res(h_nodes=24)
    calls = {}

    def count(module, name):
        original = getattr(module, name)
        key = f"{module.__name__.rpartition('.')[2]}.{name}"

        def counted(*args, **kwargs):
            # the size of a stacked call: the members of a sequence of
            # functionals, the skew forms of a stack
            arg = args[0] if name != "_layer_rows" else args[1]
            size = len(arg) if isinstance(arg, (list, tuple, np.ndarray)) else 1
            calls.setdefault(key, []).append(size)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # the plane's own calls, and those of the polarization it checks
    for module in (fourier, polarization):
        for name in ("is_generic", "_layer_rows"):
            count(module, name)
    count(fourier, "chart_for")
    count(polarization, "is_subordinate")
    f = SchwartzFunction.gaussian(basis.dim)
    ident = GradedElement.identity(basis.spec)
    serial = invert(f, ident, basis, q)
    # the top coordinate at +-8, +-5.7, +-3.4, +-1.1: the first two pairs
    # oscillate faster than the subgroup grid samples, which the top layer's
    # norm alone shows; the other two are decided in one chunk and run
    assert _resolvable_rate(q) == pytest.approx(4.06, abs=0.01)
    expected = {"fourier.is_generic": [2], "fourier._layer_rows": [2]}
    charts = {"fourier.chart_for": [1, 1], "polarization.is_subordinate": [1, 1]}
    assert calls == {**expected, **charts}
    # chunks of one functional: one decision per chunk, the same charts
    calls.clear()
    monkeypatch.setattr(fourier, "_CHUNK_BUDGET", basis.dim**2 - 1)
    assert invert(f, ident, basis, q) == serial
    expected = {"fourier.is_generic": [1, 1], "fourier._layer_rows": [1, 1]}
    assert calls == {**expected, **charts}


def test_transforms_are_zero_when_every_frequency_node_is_skipped():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    q = _low_res(t_halfwidth=10.0)
    # the frequency plane is the top coordinate, whose smallest node (the
    # grid has no zero) already oscillates faster than the subgroup grid samples
    assert q.t_halfwidth / (q.t_nodes - 1) > _resolvable_rate(q)
    v = invert(f, GradedElement.identity(basis.spec), basis, q)
    assert isinstance(v, complex) and v == 0
    res = plancherel(f, basis, q)
    assert res["rhs"] == 0.0 and res["ratio"] == 0.0


def test_plancherel_demo_preset_is_close():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    res = plancherel(f, basis, QuadratureSpec.demo())
    assert res["lhs"] == pytest.approx(np.pi**1.5, rel=5e-2)
    assert abs(res["ratio"] - 1.0) < 0.1


def test_depth3_transform_smoke():
    # no closed form here: exercise the depth-3 transform end to end
    # at light resolution and check structural facts only
    basis = _basis(2, 3)
    f = SchwartzFunction.gaussian(basis.dim)
    ell = sample_generic(basis, np.random.default_rng(6))
    chart = chart_for(ell)
    assert chart.q_h == basis.dim - 1  # codim = half the generic orbit dim
    q = _low_res()
    tr = trace_shifted(f, ell, chart, q, GradedElement.identity(basis.spec))
    assert np.isfinite(tr)
    op = build_operator(f, ell, chart, q)
    assert op.matrix.shape == (q.section_nodes, q.section_nodes)
    assert np.all(np.isfinite(op.matrix))


def test_thread_env_does_not_change_results(monkeypatch):
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    ident = GradedElement.identity(basis.spec)
    # every pair of the plane runs (see the Plancherel test below)
    q = _low_res(h_nodes=24, t_halfwidth=4.0)
    monkeypatch.setenv("NILFOURIER_THREADS", "1")
    serial = invert(f, ident, basis, q)
    monkeypatch.setenv("NILFOURIER_THREADS", "3")
    threaded = invert(f, ident, basis, q)
    assert serial == threaded  # byte-identical ordered reduction


def test_thread_env_does_not_change_plancherel(monkeypatch):
    basis = _basis(2, 2)
    f = _complex_gaussian(basis.dim)
    # the top coordinate at +-4, +-2.9, +-1.7, +-0.57: every pair is within
    # the subgroup grid's resolvable rate, 4.06, and runs
    q = _low_res(h_nodes=24, t_halfwidth=4.0)
    assert q.t_halfwidth < _resolvable_rate(q)
    workers = []
    pool = fourier.ThreadPoolExecutor

    def recorded(max_workers):
        workers.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(fourier, "ThreadPoolExecutor", recorded)
    monkeypatch.setenv("NILFOURIER_THREADS", "1")
    serial = plancherel(f, basis, q)
    monkeypatch.setenv("NILFOURIER_THREADS", "3")
    threaded = plancherel(f, basis, q)
    assert serial == threaded  # byte-identical ordered reduction
    # 8 nodes make 4 mirror pairs that run, and no more workers than pairs run
    monkeypatch.setenv("NILFOURIER_THREADS", "16")
    assert plancherel(f, basis, q) == serial
    assert workers == [3, 4]


@pytest.mark.parametrize(
    "d,N,qspec",
    [
        (2, 2, QuadratureSpec.demo()),
        (2, 2, _low_res(h_nodes=24, section_nodes=12, t_nodes=9, t_halfwidth=4.0)),  # a centre node
        (2, 3, replace(QuadratureSpec.demo(), t_nodes=8)),
    ],
)
def test_transforms_match_the_plane_integrated_node_by_node(d, N, qspec):
    basis = _basis(d, N)
    f = _complex_gaussian(basis.dim)
    jump = jump_sets(basis)
    x = exp_t(basis.algebra_element(np.linspace(-0.3, 0.2, basis.dim)))
    norm = c_norm(basis, jump)
    rhs = norm * frequency_plane_by_node(
        basis, qspec, lambda ell, chart: hs_norm_sq(f, ell, chart, qspec, jump)
    )
    assert plancherel(f, basis, qspec)["rhs"] == pytest.approx(rhs, rel=1e-13)
    value = norm * frequency_plane_by_node(
        basis, qspec, lambda ell, chart: trace_shifted(f, ell, chart, qspec, x, jump)
    )
    assert abs(invert(f, x, basis, qspec) - value) <= 1e-13 * abs(value)


@pytest.mark.parametrize(
    "spec,qspec",
    [
        (GroupSpec(2, 2), _low_res(h_nodes=24, t_halfwidth=4.0)),
        (GroupSpec(2, 3), replace(QuadratureSpec.demo(), t_nodes=8)),
        # the demo subgroup grid; the demo plane runs 28 pairs (8 s for this
        # test), this one 4
        (
            GroupSpec(2, 2, "FullTensor"),
            replace(QuadratureSpec.demo(), section_nodes=8, t_nodes=8, t_halfwidth=4.0),
        ),
    ],
    ids=["2,2", "2,3", "FullTensor-2,2"],
)
def test_the_plane_gives_the_mirror_node_by_conjugation(monkeypatch, spec, qspec):
    # pi_{-ell}(f) = conj pi_ell(f) for real f: the plane integrates node i
    # alone and conjugates its value for the mirror; f with complex values
    # (even with zero imaginary part) integrates both on the pair's chart
    basis = build_layered_basis(spec)
    jump = jump_sets(basis)
    gauss = SchwartzFunction.gaussian(basis.dim)
    as_complex = SchwartzFunction(basis.dim, lambda c: gauss(c) + 0j, gauss.decay_box)
    x = exp_t(basis.algebra_element(np.linspace(-0.3, 0.2, basis.dim)))
    weights, running = fourier._plane_nodes(basis, jump, qspec, qspec.t_nodes)
    M = weights.size
    assert running and M % 2 == 0  # no centre node
    calls, planes = [], []
    plane = fourier._frequency_plane

    def recorded(*args):
        planes.append(plane(*args))
        return planes[-1]

    monkeypatch.setattr(fourier, "_frequency_plane", recorded)
    for name in ("trace_shifted", "hs_norm_sq"):
        original = getattr(fourier, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args[1].flat.copy())
            return _original(*args, **kwargs)

        monkeypatch.setattr(fourier, name, counted)
    results = {}
    for f in (gauss, as_complex):
        calls.clear(), planes.clear()
        results[f] = (invert(f, x, basis, qspec), plancherel(f, basis, qspec)["rhs"])
        for parts in planes:
            for i, *_ in running:
                node, mirror = parts[i], parts[M - 1 - i]
                if f is gauss:
                    # bit for bit: the weights are symmetric and conj is exact
                    assert np.array_equal(mirror, np.conj(node))
                else:
                    assert abs(mirror - np.conj(node)) <= 1e-13 * abs(node)
        # one integrand call a pair that runs for real f, two for complex f
        ells = [ell.flat for _, ell, _, _ in running]
        expected = ells if f is gauss else [e for ell in ells for e in (ell, -ell)]
        assert [c.tolist() for c in calls] == [e.tolist() for e in expected] * 2
    for real, general in zip(results[gauss], results[as_complex]):
        assert abs(general - real) <= 1e-14 * abs(real)


@pytest.mark.parametrize(
    "spec,qspec,sample,skips_by_rows",
    [
        (GroupSpec(2, 2), QuadratureSpec.demo(), None, False),
        (GroupSpec(2, 3), QuadratureSpec.demo(), None, True),
        (GroupSpec(3, 2), QuadratureSpec.demo(), 150, True),
        (GroupSpec(2, 4), QuadratureSpec.demo(), 150, True),
        (GroupSpec(2, 2, "FullTensor"), QuadratureSpec.demo(), 150, False),
        (GroupSpec(2, 2), _low_res(h_nodes=24, t_nodes=9), None, False),  # a centre node
    ],
    ids=["2,2", "2,3", "3,2", "2,4", "FullTensor-2,2", "2,2-odd"],
)
def test_plane_decisions_match_the_walk_node_by_node(spec, qspec, sample, skips_by_rows):
    # the batched pass decides every pair as the one-functional walk does: the
    # same genericity, the same sqrt(det D) to the bit, the same rate skips,
    # and a pair that runs gets the walk's rows to the bit. Rate skips come
    # from the layers above the middle alone, or (skips_by_rows) also from the
    # rows of pairs within the rate limit on those layers.
    basis = build_layered_basis(spec)
    jump = jump_sets(basis)
    weights, running = fourier._plane_nodes(basis, jump, qspec, qspec.t_nodes)
    pairs = (weights.size + 1) // 2
    pairs_idx = None
    if sample is not None:
        # seeded pairs over the plane, and the pairs nearest its centre, where
        # pairs run and the rate rule decides
        pts = fourier._cube_grid(qspec.t_nodes, qspec.t_halfwidth, len(jump.T))[0][:pairs]
        near = np.argsort(np.linalg.norm(pts, axis=1), kind="stable")[:sample]
        seeded = np.random.default_rng(5).choice(pairs, sample, replace=False)
        pairs_idx = sorted(set(near.tolist()) | set(seeded.tolist()))
    walk = plane_decisions_by_node(basis, qspec, pairs_idx)
    flats, generic, sds, runs, rows = zip(*walk.values())
    ells = [Functional(basis, flat) for flat in flats]
    assert is_generic(ells).tolist() == list(generic)
    assert np.array_equal(sqrt_det_d(ells, jump), sds)
    batched = {i: (sd, candidate) for i, _, sd, candidate in running}
    assert [i in batched for i in walk] == list(runs)
    for i, (_, _, sd, run, walk_rows) in walk.items():
        if run:
            assert batched[i][0] == sd
            assert np.array_equal(batched[i][1].vectors, walk_rows)
    # pairs run, and generic pairs with sqrt(det D) > 0 are skipped for their rate
    assert any(runs)
    skipped = [e for e, g, sd, run in zip(ells, generic, sds, runs) if g and sd > 0 and not run]
    upper = np.r_[tuple(basis.layer_slice(k) for k in range(spec.N // 2 + 1, spec.N + 1))]
    within = [np.linalg.norm(e.flat[upper]) <= _resolvable_rate(qspec) for e in skipped]
    assert skipped and any(within) == skips_by_rows
    if qspec.t_nodes % 2:
        # the centre node is its own mirror, and it is not generic
        assert not walk[pairs - 1][1]
        f = SchwartzFunction.gaussian(basis.dim)
        parts = fourier._frequency_plane(
            f, basis, jump, qspec, qspec.t_nodes, lambda ell, chart: 1.0
        )
        assert parts[pairs - 1] == 0.0


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_malformed_thread_env_is_rejected(monkeypatch, raw):
    monkeypatch.setenv("NILFOURIER_THREADS", raw)
    with pytest.raises(NilfourierError, match=f"NILFOURIER_THREADS.*{raw!r}"):
        thread_count()


# ---------------------------------------------------------------------------
# Haar measure
# ---------------------------------------------------------------------------


def test_chart_measure_is_left_invariant_heisenberg():
    basis = _basis(2, 2)
    report = haar_invariance_check(
        basis, rng=np.random.default_rng(21), n_translates=6, n_samples=200_000
    )
    assert report["passed"]


def test_chart_measure_is_left_invariant_depth3():
    basis = _basis(2, 3)
    report = haar_invariance_check(
        basis, rng=np.random.default_rng(22), n_translates=4, n_samples=100_000
    )
    assert report["passed"]


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda chart: chart.gamma(np.zeros(4)), "^gamma needs 3 coordinates$"),
        (lambda chart: chart.gamma_h(np.zeros(3)), "^gamma_h needs 2 coordinates$"),
        (lambda chart: chart.section(np.zeros(2)), "^section needs 1 coordinates$"),
        (
            lambda chart: kernel_values(
                SchwartzFunction.gaussian(3),
                _heisenberg_functional(0.9),
                chart,
                _low_res(),
                np.zeros((2, 1)),
                np.zeros((3, 1)),
            ),
            r"^xs must be \(R, M, q\) with ys \(R, q\)",
        ),
    ],
    ids=["gamma", "gamma_h", "section", "kernel-values-pairs"],
)
def test_chart_maps_reject_the_wrong_width(call, message):
    with pytest.raises(DimensionMismatch, match=message):
        call(chart_for(_heisenberg_functional(0.9)))
