"""Coadjoint action, genericity, orbit dimensions, jump sets."""

import json
import re

import numpy as np
import pytest

from nilfourier import (
    Functional,
    GradedElement,
    GroupSpec,
    build_layered_basis,
    coadjoint_apply,
    dim_km,
    exp_t,
    full_orbit_dim,
    is_generic,
    jump_sets,
    orbit_dim_numeric,
    orbit_dim_numeric_all,
    orbit_dim_quotient_generic,
    quotient_prefix_len,
    sample_generic,
)
from nilfourier.coadjoint import _ad_series, _bernoulli_series, _exp_series, b_matrix_ranks
from nilfourier.errors import DimensionMismatch, IndexOutOfRange

from oracles import FULL_ORBIT_DIMS, JUMP_SET_EXAMPLES


def _basis(d, N):
    return build_layered_basis(GroupSpec(d, N))


def _random_group(basis, rng, scale=1.0):
    return exp_t(basis.algebra_element(scale * rng.standard_normal(basis.dim)))


# ---------------------------------------------------------------------------
# the action itself
# ---------------------------------------------------------------------------


def test_heisenberg_coadjoint_closed_form():
    basis = _basis(2, 2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        lam, alpha, beta = rng.standard_normal(3)
        ell = Functional.from_coords(basis, {(2, 1): lam, (1, 1): alpha, (1, 2): beta})
        x, y, z = rng.standard_normal(3)
        g = exp_t(
            GradedElement.from_level1(basis.spec, np.array([x, y]))
            + _bracket_elt(basis, z)
        )
        moved = coadjoint_apply(g, ell)
        assert abs(moved.coord(2, 1) - lam) < 1e-12
        assert abs(moved.coord(1, 1) - (alpha + y * lam)) < 1e-12
        assert abs(moved.coord(1, 2) - (beta - x * lam)) < 1e-12


def _bracket_elt(basis, z):
    spec = basis.spec
    levels = [np.zeros((s,)) for s in spec.tensor_level_sizes()]
    levels[2] = basis.embed_coords(2, np.array([z]))
    return GradedElement(spec, tuple(levels))


def test_coadjoint_is_group_action():
    basis = _basis(2, 3)
    rng = np.random.default_rng(1)
    ell = Functional(basis, rng.standard_normal(basis.dim))
    g = _random_group(basis, rng)
    h = _random_group(basis, rng)
    one_step = coadjoint_apply(_mul(g, h), ell)
    two_step = coadjoint_apply(g, coadjoint_apply(h, ell))
    np.testing.assert_allclose(one_step.flat, two_step.flat, atol=1e-10)


def _mul(g, h):
    from nilfourier import mul

    return mul(g, h)


@pytest.mark.parametrize("d,N", [(2, 2), (2, 4), (3, 3)])
def test_top_layer_is_invariant(d, N):
    basis = _basis(d, N)
    rng = np.random.default_rng(2)
    ell = Functional(basis, rng.standard_normal(basis.dim))
    g = _random_group(basis, rng)
    moved = coadjoint_apply(g, ell)
    m_top = basis.spec.layer_dims()[-1]
    for i in range(1, m_top + 1):
        assert abs(moved.coord(N, i) - ell.coord(N, i)) < 1e-10


def test_functional_pairing_and_json():
    basis = _basis(2, 3)
    ell = Functional.from_coords(basis, {(3, 1): 2.0, (1, 2): -1.5})
    x = GradedElement.from_level1(basis.spec, np.array([0.0, 4.0]))
    assert abs(ell.evaluate(x) - (-6.0)) < 1e-12
    payload = json.loads(json.dumps(ell.to_json_dict()))
    back = Functional.from_json_dict(payload, basis=basis)
    np.testing.assert_allclose(back.flat, ell.flat)


@pytest.mark.parametrize(
    "row,message",
    [
        ([2.9, 1.2, 0.5], "k in coordinate row"),
        ([2, 1.2, 0.5], "i in coordinate row"),
        ([2, 1, "3"], "value in coordinate row"),
        ([True, 1, 0.5], "k in coordinate row"),
        ([1, 2], "a coordinate row is"),
    ],
)
def test_functional_json_rejects_mistyped_rows(row, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}"):
        Functional.from_json_dict({"spec": {"d": 2, "N": 2}, "coords": [row]})


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_functional_carries_its_skew(d, N):
    basis = _basis(d, N)
    source = np.random.default_rng(d * N).standard_normal(basis.dim)
    ell = Functional(basis, source)
    expected = np.einsum("abt,t->ab", basis.structure_tensor, source)
    np.testing.assert_allclose(ell.skew, expected, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(ell.skew, -ell.skew.T)
    # the skew form is the tangent map of the orbit, whose row-block ranks
    # are the orbit dimensions: d/dh exp(h X_a) . ell = -ell([X_a, .]) at 0
    h = 1e-5
    for a in range(basis.dim):
        step = np.zeros(basis.dim)
        step[a] = h
        plus, minus = (
            coadjoint_apply(exp_t(basis.algebra_element(sign * step)), ell).flat
            for sign in (1.0, -1.0)
        )
        np.testing.assert_allclose((plus - minus) / (2 * h), -ell.skew[a], rtol=0, atol=1e-8)
    # the functional holds a read-only copy of its coordinates
    kept = source.copy()
    source[:] = 0.0
    np.testing.assert_array_equal(ell.flat, kept)
    with pytest.raises(ValueError):
        ell.flat[0] = 1.0


# ---------------------------------------------------------------------------
# genericity and orbit dimensions
# ---------------------------------------------------------------------------

GENERICITY_SPECS = [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (2, 5), (1, 2), (1, 3), (1, 4)]


@pytest.mark.parametrize("d,N", GENERICITY_SPECS)
def test_generic_formula_matches_numeric_orbit_dims(d, N):
    """Rank test and numeric quotient orbit dimensions agree on random duals."""
    basis = _basis(d, N)
    spec = basis.spec
    rng = np.random.default_rng(100 * d + N)
    dims = spec.layer_dims()
    n_ok = 0
    for _ in range(12):
        ell = Functional(basis, rng.standard_normal(basis.dim))
        flagged = is_generic(ell)
        numeric = orbit_dim_numeric_all(ell)
        matches = all(
            numeric[(k, m)] == orbit_dim_quotient_generic(spec, k, m)
            for (k, m) in numeric
        )
        assert flagged == matches
        n_ok += int(flagged)
        # the single-quotient entry point gives the same ranks
        for (k, m), value in numeric.items():
            assert orbit_dim_numeric(ell, k, m) == value
            prefix = quotient_prefix_len(basis, k, m)
            assert orbit_dim_numeric(ell, prefix_len=prefix) == value
        if flagged:
            assert orbit_dim_numeric(ell) == full_orbit_dim(ell)
    assert n_ok > 0  # random functionals are generic almost surely
    with pytest.raises(IndexOutOfRange):
        orbit_dim_numeric(ell, 1)
    for bad in (-1, basis.dim + 1):
        with pytest.raises(IndexOutOfRange):
            orbit_dim_numeric(ell, prefix_len=bad)


@pytest.mark.parametrize("d,N,scale", [(3, 2, 1e-6), (2, 4, 1e-6), (3, 3, 1e-3)])
def test_genericity_matches_orbit_dims_with_a_small_top_layer(d, N, scale):
    """A top layer far smaller than the rest keeps the functional generic, and
    the orbit dimensions still say so."""
    basis = _basis(d, N)
    spec = basis.spec
    rng = np.random.default_rng(3)
    m_top = spec.layer_dims()[-1]
    for _ in range(20):
        flat = rng.standard_normal(basis.dim)
        flat[:m_top] *= scale  # malcev order puts the top layer first
        ell = Functional(basis, flat)
        numeric = orbit_dim_numeric_all(ell)
        matches = all(
            value == orbit_dim_quotient_generic(spec, k, m) for (k, m), value in numeric.items()
        )
        assert is_generic(ell)
        assert matches


def test_full_orbit_dims_of_generic_functionals():
    for (d, N), expected in FULL_ORBIT_DIMS.items():
        basis = _basis(d, N)
        rng = np.random.default_rng(41)
        ell = sample_generic(basis, rng)
        assert full_orbit_dim(ell) == expected
        assert full_orbit_dim(ell) % 2 == 0


@pytest.mark.parametrize("d,N", [(2, 2), (2, 4), (3, 2), (3, 3)])
def test_zero_top_layer_shrinks_orbit(d, N):
    basis = _basis(d, N)
    rng = np.random.default_rng(5)
    flat = rng.standard_normal(basis.dim)
    m_top = basis.spec.layer_dims()[-1]
    flat[:m_top] = 0.0  # malcev order puts the top layer first
    ell = Functional(basis, flat)
    generic_full = 2 * (len(jump_sets(basis).S) // 2)
    assert full_orbit_dim(ell) < generic_full or generic_full == 0
    assert not is_generic(ell)


def test_genericity_invariant_along_orbit():
    basis = _basis(2, 4)
    rng = np.random.default_rng(6)
    ell = sample_generic(basis, rng)
    for _ in range(5):
        g = _random_group(basis, rng)
        moved = coadjoint_apply(g, ell)
        assert is_generic(moved)
        assert full_orbit_dim(moved) == full_orbit_dim(ell)


def test_degenerate_rule_for_2_3():
    basis = _basis(2, 3)
    assert basis.spec.degenerate
    gen = Functional.from_coords(basis, {(3, 1): 0.8, (3, 2): 3.0, (1, 1): 1.0})
    assert is_generic(gen)
    non = Functional.from_coords(basis, {(3, 2): 3.0, (2, 1): 1.0, (1, 1): 1.0})
    assert not is_generic(non)


def test_pairing_blocks_skip_empty_layers():
    # (1, 3) has layers [1, 0, 0]: its one block would pair layer 1 with the
    # empty layer 2, so there is nothing to rank and every functional is generic
    basis = _basis(1, 3)
    ell = Functional(basis, np.array([1.5]))
    assert b_matrix_ranks(ell) == {}
    assert is_generic(ell)
    assert b_matrix_ranks(sample_generic(_basis(2, 4), np.random.default_rng(0))) == {1: 2, 2: 0}


def test_zero_functional_not_generic():
    for d, N in [(2, 2), (2, 3), (3, 2)]:
        basis = _basis(d, N)
        assert not is_generic(Functional(basis, np.zeros(basis.dim)))


def test_dim_km_values_and_bounds():
    spec = GroupSpec(2, 4)  # layers [2, 1, 2, 3]
    assert dim_km(spec, 1, 1) == 1
    assert dim_km(spec, 1, 2) == 2
    assert dim_km(spec, 2, 1) == 0  # middle layer has odd dimension 1
    assert dim_km(spec, 3, 2) == 2
    with pytest.raises(IndexOutOfRange):
        dim_km(spec, 0, 1)
    with pytest.raises(IndexOutOfRange):
        dim_km(spec, 1, 4)  # m exceeds the layer-3 dimension


def test_quotient_prefix_lengths():
    basis = _basis(2, 4)
    # (k, m) keeps layers N..N-k+1 fully and the first m of layer N-k;
    # k = 0 keeps the first m coordinates of the top layer itself
    assert quotient_prefix_len(basis, 0, basis.spec.layer_dims()[-1]) == 3
    assert quotient_prefix_len(basis, 1, 1) == 4  # layer 4 (3 elts) + 1 of layer 3
    assert quotient_prefix_len(basis, 3, 2) == 8  # everything
    bad = [
        ((0, 4), "need 0 <= m <= 3 in the top layer"),
        ((4, 1), "need 0 <= k <= 3, got k=4"),
        ((-1, 1), "need 0 <= k <= 3, got k=-1"),
        ((1, 3), "need 1 <= m <= 2 for layer 3, got m=3"),
        ((3, 0), "need 1 <= m <= 2 for layer 1, got m=0"),
    ]
    for (k, m), message in bad:
        with pytest.raises(IndexOutOfRange, match=f"^{re.escape(message)}$"):
            quotient_prefix_len(basis, k, m)


# ---------------------------------------------------------------------------
# jump sets
# ---------------------------------------------------------------------------


def test_jump_set_examples():
    for (d, N), expected in JUMP_SET_EXAMPLES.items():
        basis = _basis(d, N)
        data = jump_sets(basis)
        assert sorted(data.S) == expected["S"]
        assert sorted(data.T) == expected["T"]
        assert data.degenerate == (d == 2 and N == 3)
        assert len(data.S) % 2 == 0
        assert set(data.S) | set(data.T) == set(basis.malcev_order)
        assert not (set(data.S) & set(data.T))


def test_jump_set_odd_truncation_count():
    # the degenerate (2, 3) spec is excluded: its hand-derived sets are smaller
    for d, N in [(2, 5), (3, 3), (2, 7)]:
        basis = _basis(d, N)
        dims = basis.spec.layer_dims()
        expected = 2 * sum(dims[k - 1] for k in range(1, (N + 1) // 2))
        assert len(jump_sets(basis).S) == expected


def test_jump_set_json():
    data = jump_sets(_basis(2, 2))
    payload = json.loads(json.dumps(data.to_json_dict()))
    assert payload["S"] == [[1, 1], [1, 2]]
    assert payload["T"] == [[2, 1]]
    assert payload["degenerate"] is False


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_generic_is_generic():
    for d, N in [(2, 2), (2, 3), (3, 3)]:
        basis = _basis(d, N)
        rng = np.random.default_rng(9)
        for _ in range(3):
            assert is_generic(sample_generic(basis, rng))


# ---------------------------------------------------------------------------
# the adjoint matrix in the conjugation form of the group law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_adjoint_matrix_conjugates_the_group_law(d, N):
    # x u y^-1 = (x u x^-1)(x y^-1), so bch(Ad_x u, bch(x, -y)) = bch(bch(x, u), -y)
    basis = _basis(d, N)
    rng = np.random.default_rng(40 + 10 * d + N)
    x = rng.standard_normal((5, 1, basis.dim))
    y = rng.standard_normal((5, 1, basis.dim))
    u = rng.standard_normal((5, 7, basis.dim))
    ad_x = _ad_series(basis, x[:, 0], _exp_series(N))
    conj = basis.bch_coords(np.einsum("pij,pmj->pmi", ad_x, u), basis.bch_coords(x, -y))
    direct = basis.bch_coords(basis.bch_coords(x, u), -y)
    assert np.max(np.abs(conj - direct)) <= 1e-12 * (1.0 + np.max(np.abs(direct)))
    # an unbatched left factor broadcasts against a batch on the right
    np.testing.assert_allclose(
        basis.bch_coords(x[0, 0], u[0]), basis.bch_coords(x[0], u[0]), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("d,N", [(2, 3), (3, 3)])
def test_batched_ad_exponential_stacks_unbatched_ones(d, N):
    basis = _basis(d, N)
    x = np.random.default_rng(d + N).standard_normal((3, 4, basis.dim))
    batched = _ad_series(basis, x, _exp_series(N))
    assert batched.shape == (3, 4, basis.dim, basis.dim)
    stacked = np.array([[_ad_series(basis, xi, _exp_series(N)) for xi in row] for row in x])
    np.testing.assert_allclose(batched, stacked, rtol=0, atol=1e-12)


def test_bernoulli_series_coefficients():
    # z / (e^z - 1) = 1 - z/2 + z^2/12 - z^4/720 + z^6/30240 - ...
    expected = [1.0, -1 / 2, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0, -1 / 1209600]
    np.testing.assert_allclose(_bernoulli_series(9), expected, rtol=1e-14, atol=1e-17)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_bernoulli_series_is_the_differential_of_the_group_law(d, N):
    # B(ad c) u = d/dt bch(t u, c) at t = 0. The map is a polynomial of degree
    # N in t, so a central stencil of 2p + 1 points with 2p >= N is exact.
    basis = _basis(d, N)
    rng = np.random.default_rng(60 + 10 * d + N)
    c = rng.standard_normal((4, 1, basis.dim))
    u = np.eye(basis.dim)  # one direction per column of B(ad c)
    p, step = (N + 1) // 2, 0.5
    offsets = step * np.arange(-p, p + 1)
    # stencil weights w with sum_k w_k offsets_k^j = [j == 1] for j = 0 .. 2p
    weights = np.linalg.solve(np.vander(offsets, increasing=True).T, np.eye(2 * p + 1)[1])
    deriv = sum(w * basis.bch_coords(t * u, c) for w, t in zip(weights, offsets))  # (4, n, n)
    exact = _ad_series(basis, c[:, 0], _bernoulli_series(N))
    # deriv[b, j] is the image of direction j, i.e. column j of the matrix
    stencil = np.swapaxes(deriv, -1, -2)
    assert np.max(np.abs(exact - stencil)) <= 1e-12 * np.max(np.abs(stencil))
