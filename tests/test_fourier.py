"""Tests for the induced-representation transform engine.

The Heisenberg-type group (2 generators, depth 2) admits closed-form
kernels, traces, and norms (see oracles.py), which pin the engine end to
end. Structural properties (chart round trips, equivariance, operator
algebra, adaptive quadrature behavior) are checked on larger groups where
no closed form is available.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from nilfourier import (
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
    hs_norm_sq,
    invert,
    jump_sets,
    kernel_values,
    plancherel,
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
from nilfourier import fourier
from nilfourier.fourier import (
    _h_phase_rate,
    _resolvable_rate,
    _section_scale,
    haar_invariance_check,
    thread_count,
)
from nilfourier.tensor_algebra import exp_t, group_inverse, log_t, mul

from oracles import (
    HEISENBERG_C_NORM,
    ORACLE_FRAME_STEP,
    flat_route_kernel,
    heisenberg_hs_sq,
    heisenberg_kernel,
    heisenberg_trace,
    pfaffian,
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
    assert ref.section_scale_cap > 0


@pytest.mark.parametrize(
    "bad",
    [
        {"h_nodes": 4},
        {"section_nodes": 0},
        {"t_nodes": 7},
        {"h_halfwidth": 0.0},
        {"section_halfwidth": -1.0},
        {"t_halfwidth": 0.0},
        {"section_scale_cap": 0.0},
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
        ("section_scale_cap", False),
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
    # (2, 3) takes the prefix-radical route; on the abelian line every
    # subgroup column is central
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
    # (2, 3) takes the prefix-radical route (see test_chart_for_routes_by_genericity);
    # (3, 2) has a non-abelian subgroup on the layer-built route
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


def test_chart_for_routes_by_genericity():
    ell = _heisenberg_functional(1.2)
    assert chart_for(ell).q_h == 2
    basis23 = _basis(2, 3)
    ell23 = sample_generic(basis23, np.random.default_rng(2))
    chart23 = chart_for(ell23)  # falls back to the radical construction
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
    # (2, 2) has an abelian subgroup; (3, 2) and the prefix-radical (2, 3) do not
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


def test_kernel_runs_the_group_law_only_off_the_central_block(monkeypatch):
    basis = _basis(2, 2)
    ell = _heisenberg_functional(0.9, 0.3, -0.2)
    chart = chart_for(ell)
    assert (chart.q_h, chart.q_c) == (2, 1)
    points = []
    bch = basis.bch_coords

    def counted(x, y):
        out = bch(x, y)
        points.append(out[..., 0].size)
        return out

    monkeypatch.setattr(basis, "bch_coords", counted)
    q = _low_res()
    P = 5
    xs, ys = np.random.default_rng(4).standard_normal((2, P, chart.q))
    kernel_values(SchwartzFunction.gaussian(basis.dim), ell, chart, q, xs, ys)
    # recentring (P points), integrand (P h_nodes^(q_h - q_c)); the frame is exact
    assert sorted(points) == [P, P * q.h_nodes ** (chart.q_h - chart.q_c)]


def test_kernel_runs_the_group_law_once_per_block_of_pairs(monkeypatch):
    # 200 pairs are more than one integrand sub-chunk (57 pairs at 24 nodes),
    # but the per-pair work still takes a single pass
    basis = _basis(2, 2)
    ell = _heisenberg_functional(0.9, 0.3, -0.2)
    chart = chart_for(ell)
    points = []
    bch = basis.bch_coords

    def counted(x, y):
        out = bch(x, y)
        points.append(out[..., 0].size)
        return out

    monkeypatch.setattr(basis, "bch_coords", counted)
    q = _low_res(h_nodes=24)
    P = 200
    xs, ys = np.random.default_rng(5).standard_normal((2, P, chart.q))
    kernel_values(SchwartzFunction.gaussian(basis.dim), ell, chart, q, xs, ys)
    assert sorted(points) == [P, P * q.h_nodes ** (chart.q_h - chart.q_c)]


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("complex_f", [False, True])
def test_kernel_values_do_not_depend_on_how_pairs_are_batched(monkeypatch, d, N, complex_f):
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
    P = 60
    xs, ys = 0.8 * np.random.default_rng(12).standard_normal((2, P, chart.q))
    cuts = [0, 1, 9, 31, P]
    parts = np.concatenate(
        [kernel_values(f, ell, chart, q, xs[a:b], ys[a:b]) for a, b in zip(cuts, cuts[1:])]
    )
    # A budget of 23 pairs per block splits the whole batch into uneven
    # blocks (two section calls each), and each block into integrand sub-chunks.
    m_c, m_r = (q.h_nodes**k for k in (chart.q_c, chart.q_h - chart.q_c))
    monkeypatch.setattr(fourier, "_CHUNK_BUDGET", 23 * max(m_c, m_r, basis.dim) * basis.dim)
    sections = []
    section = chart.section

    def counted(y):
        sections.append(len(y))
        return section(y)

    monkeypatch.setattr(chart, "section", counted)
    whole = kernel_values(f, ell, chart, q, xs, ys)
    assert sections == [23, 23, 23, 23, 14, 14]
    assert np.max(np.abs(whole - parts)) <= 1e-14 * np.max(np.abs(parts))


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


def test_hs_norm_matches_closed_form():
    basis = _basis(2, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    q = _low_res(h_nodes=24, section_nodes=24, t_nodes=16)
    for lam in (0.5, 2.0):
        ell = _heisenberg_functional(lam)
        hs = hs_norm_sq(f, ell, chart_for(ell), q)
        expect = heisenberg_hs_sq(lam)
        assert hs == pytest.approx(expect, rel=1e-6)


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
    assert _section_scale(_heisenberg_functional(0.05), jump, qref) == pytest.approx(
        qref.section_scale_cap
    )


def test_section_scale_tightens_on_coarse_subgroup_grids():
    basis = _basis(2, 2)
    jump = jump_sets(basis)
    q16 = _low_res(h_nodes=16)
    rate = _resolvable_rate(q16)
    assert rate < q16.section_halfwidth  # coarse grid: tightening active
    got = _section_scale(_heisenberg_functional(1.0), jump, q16)
    assert got == pytest.approx(rate / q16.section_halfwidth)


def test_phase_rate_equals_subgroup_component_norm():
    ell = _heisenberg_functional(1.75)
    chart = chart_for(ell)
    assert _h_phase_rate(ell, chart) == pytest.approx(1.75, rel=1e-12)


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


def test_invert_certifies_the_point_on_empty_layers():
    # on one letter the level-2 layer is empty: a level-2 part left by the
    # logarithm means the point is not in the group
    basis = _basis(1, 2)
    f = SchwartzFunction.gaussian(basis.dim)
    x = GradedElement(basis.spec, (np.ones(1), np.array([0.3]), np.array([0.9])))
    with pytest.raises(NotInLieImage):
        invert(f, x, basis, QuadratureSpec.demo())


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
    # no closed form here: exercise the radical-polarization route end to end
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
    q = _low_res()
    monkeypatch.setenv("NILFOURIER_THREADS", "1")
    serial = invert(f, ident, basis, q)
    monkeypatch.setenv("NILFOURIER_THREADS", "3")
    threaded = invert(f, ident, basis, q)
    assert serial == threaded  # byte-identical ordered reduction


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
