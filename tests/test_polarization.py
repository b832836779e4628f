"""Polarization subalgebras: construction, subordination, closure, dimension."""

import numpy as np
import pytest

from nilfourier import (
    DimensionMismatch,
    Functional,
    GroupSpec,
    NotGeneric,
    Subalgebra,
    build_layered_basis,
    chart_for,
    full_orbit_dim,
    generic_polarization,
    is_generic,
    is_subordinate,
    jump_sets,
    polarization_check,
    sample_generic,
    vergne_polarization,
)

from nilfourier.polarization import _layer_rows
from oracles import POLARIZATION_DIMS


def _basis(d, N):
    return build_layered_basis(GroupSpec(d, N))


# ---------------------------------------------------------------------------
# pinned examples
# ---------------------------------------------------------------------------


def test_heisenberg_generic_polarization():
    basis = _basis(2, 2)
    ell = Functional.from_coords(basis, {(2, 1): 1.0})
    sub = generic_polarization(ell)
    assert sub.dim == 2
    # spanned by the bracket element and the first generator
    expected = np.zeros((2, 3))
    expected[0, 0] = 1.0  # bracket coordinate
    expected[1, 1] = 1.0  # first generator
    for row in expected:
        assert sub.contains(row)


def test_pinned_polarization_dimensions():
    for (d, N), expected in POLARIZATION_DIMS.items():
        basis = _basis(d, N)
        rng = np.random.default_rng(17)
        ell = sample_generic(basis, rng)
        sub = generic_polarization(ell)
        assert sub.dim == expected
        report = polarization_check(sub, ell)
        assert report["passed"], report


def test_generic_polarization_closed_form_on_2_3():
    # Layer 3 is spanned by (3,1) = [X1, [X1, X2]] and (3,2) = [[X1, X2], X2],
    # so l([[X1, X2], a X1 + b X2]) = -a l(3,1) + b l(3,2): the polarization
    # is layers 2 and 3 plus the generator l(3,2) X1 + l(3,1) X2.
    basis = _basis(2, 3)
    rng = np.random.default_rng(23)
    for _ in range(5):
        ell = sample_generic(basis, rng)
        upper = [j for k in (2, 3) for j in range(basis.dim)[basis.layer_slice(k)]]
        expected = np.zeros((4, basis.dim))
        expected[range(3), upper] = 1.0
        expected[3, basis.flat_index(1, 1)] = ell.flat[basis.flat_index(3, 2)]
        expected[3, basis.flat_index(1, 2)] = ell.flat[basis.flat_index(3, 1)]
        sub = generic_polarization(ell)
        assert sub.dim == 4
        assert np.all(sub.contains(expected))
        radical = vergne_polarization(ell)
        assert radical.dim == 4 and np.all(radical.contains(sub.vectors))
        assert polarization_check(sub, ell)["passed"]


def test_generic_polarization_refuses_non_generic():
    basis = _basis(2, 2)
    ell = Functional.from_coords(basis, {(1, 1): 1.0})  # no bracket component
    with pytest.raises(NotGeneric):
        generic_polarization(ell)


def test_vergne_handles_zero_functional():
    basis = _basis(2, 3)
    ell = Functional(basis, np.zeros(basis.dim))
    sub = vergne_polarization(ell)
    assert sub.dim == basis.dim  # the whole algebra is subordinate to zero
    assert is_subordinate(sub, ell)
    assert sub.is_bracket_closed()


def test_vergne_works_on_degenerate_spec():
    basis = _basis(2, 3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        ell = sample_generic(basis, rng)
        sub = vergne_polarization(ell)
        report = polarization_check(sub, ell)
        assert report["passed"], report
        assert sub.dim == basis.dim - full_orbit_dim(ell) // 2


# ---------------------------------------------------------------------------
# randomized checks
# ---------------------------------------------------------------------------

SPECS = [(2, 2), (2, 4), (3, 2), (3, 3)]


@pytest.mark.parametrize("d,N", SPECS)
def test_generic_polarizations_random(d, N):
    basis = _basis(d, N)
    rng = np.random.default_rng(50 + d * 10 + N)
    for _ in range(50):
        ell = sample_generic(basis, rng)
        sub = generic_polarization(ell)
        assert is_subordinate(sub, ell)
        assert sub.is_bracket_closed()
        assert sub.dim == basis.dim - full_orbit_dim(ell) // 2


@pytest.mark.parametrize("d,N,scale", [(3, 3, 1e-5), (2, 5, 1e-4)])
def test_generic_polarization_with_a_small_top_layer(d, N, scale):
    """A top layer far smaller than the rest keeps the functional generic, and
    its layer-built polarization has the generic dimension ``dim g - |S|/2``
    and gives a chart, although the numeric rank of the skew form falls
    short there."""
    basis = _basis(d, N)
    half_orbit = len(jump_sets(basis).S) // 2
    rng = np.random.default_rng(3)
    m_top = basis.spec.layer_dims()[-1]
    for _ in range(20):
        flat = rng.standard_normal(basis.dim)
        flat[:m_top] *= scale  # malcev order puts the top layer first
        ell = Functional(basis, flat)
        assert is_generic(ell)
        sub = generic_polarization(ell)
        assert is_subordinate(sub, ell)
        assert sub.is_bracket_closed()
        assert sub.dim == basis.dim - half_orbit
        assert chart_for(ell).q_h == sub.dim


@pytest.mark.parametrize("d,N", SPECS + [(2, 3)])
def test_vergne_polarizations_random(d, N):
    basis = _basis(d, N)
    rng = np.random.default_rng(80 + d * 10 + N)
    for _ in range(15):
        # radical construction works for arbitrary functionals, generic or not
        ell = Functional(basis, rng.standard_normal(basis.dim))
        sub = vergne_polarization(ell)
        assert is_subordinate(sub, ell)
        assert sub.is_bracket_closed()
        assert sub.dim == basis.dim - full_orbit_dim(ell) // 2


def test_odd_truncation_polarization_is_layer_split():
    # for odd N the generic polarization is exactly the upper half of the layers
    basis = _basis(3, 3)
    rng = np.random.default_rng(11)
    slice2 = basis.layer_slice(2)
    slice3 = basis.layer_slice(3)
    for _ in range(5):
        ell = sample_generic(basis, rng)
        sub = generic_polarization(ell)
        for j in range(basis.dim):
            e = np.zeros(basis.dim)
            e[j] = 1.0
            in_upper = slice3.start <= j < slice3.stop or slice2.start <= j < slice2.stop
            assert sub.contains(e) == in_upper


def test_subalgebra_projection_and_layers():
    basis = _basis(2, 3)
    vecs = np.zeros((2, basis.dim))
    vecs[0, 0] = 1.0  # a top-layer element
    vecs[1, 1] = 1.0  # the other top-layer element
    sub = Subalgebra(basis, vecs)
    assert sub.dim == 2
    assert sub.is_bracket_closed()


def test_heisenberg_generators_are_not_bracket_closed():
    # [X1, X2] = Z lies outside span{X1, X2}
    basis = _basis(2, 2)
    vecs = np.zeros((2, basis.dim))
    vecs[0, basis.flat_index(1, 1)] = 1.0
    vecs[1, basis.flat_index(1, 2)] = 1.0
    sub = Subalgebra(basis, vecs)
    assert not sub.is_bracket_closed()
    assert Subalgebra(basis, vecs[:1]).is_bracket_closed()


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_layer_rows_of_a_mixed_stack_match_one_member_stacks(d, N):
    # members whose null spaces differ in size stack in separate groups; each
    # member gets the rows of a stack of itself alone, to the bit
    basis = _basis(d, N)
    rng = np.random.default_rng(17)
    top = basis.layer_slice(N)
    flats = [rng.standard_normal(basis.dim) for _ in range(4)]
    flats += [np.zeros(basis.dim), np.where(np.arange(basis.dim) < top.stop, 1.0, 0.0)]
    flats += [np.where(np.arange(basis.dim) < top.stop, 0.0, f) for f in flats[:2]]
    skews = np.stack([Functional(basis, f).skew for f in flats])
    groups = _layer_rows(basis, skews)
    assert len(groups) > 1
    members = np.concatenate([m for m, _ in groups])
    assert sorted(members.tolist()) == list(range(len(flats)))
    for m, rows in groups:
        for p, r in zip(m, rows):
            [(_, alone)] = _layer_rows(basis, skews[p : p + 1])
            assert np.array_equal(r, alone[0])


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Subalgebra(_basis(2, 2), np.zeros((1, 4))), "must have 3 coordinates"),
        (lambda: Subalgebra(_basis(2, 2), np.zeros(3)), "must have 3 coordinates"),
        (
            lambda: is_subordinate(
                Subalgebra(_basis(2, 2), np.eye(3)[:2]),
                sample_generic(_basis(2, 3), np.random.default_rng(0)),
            ),
            "different bases",
        ),
    ],
    ids=["width", "not-a-matrix", "subordinate-across-bases"],
)
def test_subalgebra_input_errors(call, message):
    with pytest.raises(DimensionMismatch, match=message):
        call()
