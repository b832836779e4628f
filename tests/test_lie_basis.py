"""Layered basis construction: dimensions, brackets, embeddings, JSON."""

import json
from fractions import Fraction

import numpy as np
import pytest

from nilfourier import (
    BracketTree,
    DegreeMismatch,
    DimensionMismatch,
    Flavor,
    GradedElement,
    GroupSpec,
    IndexOutOfRange,
    LayeredBasis,
    NotInLieImage,
    SpecMismatch,
    build_layered_basis,
    left_normed_degree3_words,
    lyndon_words,
    witt_dimension,
)
from nilfourier.lie_basis import _bch_series
from nilfourier.tensor_algebra import exp_t, log_t, mul

from oracles import WITT_EXAMPLES, brute_force_lyndon


# ---------------------------------------------------------------------------
# layer dimensions
# ---------------------------------------------------------------------------


def test_witt_examples():
    for (d, k), expected in WITT_EXAMPLES.items():
        assert witt_dimension(d, k) == expected


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_witt_matches_brute_force_lyndon_enumeration(d):
    words = brute_force_lyndon(d, 6)
    for k in range(1, 7):
        assert witt_dimension(d, k) == len(words[k])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lyndon_generator_matches_brute_force(d):
    expected = brute_force_lyndon(d, 5)
    produced = lyndon_words(d, 5)
    for k in range(1, 6):
        assert [tuple(w) for w in produced[k]] == expected[k]


def test_layer_dims_free_nilpotent():
    assert GroupSpec(2, 3).layer_dims() == [2, 1, 2]
    assert GroupSpec(2, 5).layer_dims() == [2, 1, 2, 3, 6]
    assert GroupSpec(3, 3).layer_dims() == [3, 3, 8]
    assert GroupSpec(5, 1).layer_dims() == [5]


def test_layer_dims_full_tensor():
    spec = GroupSpec(2, 3, Flavor.FULL_TENSOR)
    assert spec.layer_dims() == [2, 4, 8]
    basis = build_layered_basis(spec)
    for k in range(1, 4):
        np.testing.assert_allclose(basis.layers[k - 1].embedding, np.eye(2**k))


# ---------------------------------------------------------------------------
# bracket structure
# ---------------------------------------------------------------------------


def _random_algebra_coords(basis, rng):
    return rng.standard_normal(basis.dim)


@pytest.mark.parametrize("spec", [GroupSpec(2, 4), GroupSpec(3, 3)])
def test_bracket_antisymmetry_and_jacobi(spec):
    basis = build_layered_basis(spec)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = _random_algebra_coords(basis, rng)
        y = _random_algebra_coords(basis, rng)
        z = _random_algebra_coords(basis, rng)
        xy = basis.bracket_coords(x, y)
        yx = basis.bracket_coords(y, x)
        np.testing.assert_allclose(xy, -yx, atol=1e-12)
        jac = (
            basis.bracket_coords(x, basis.bracket_coords(y, z))
            + basis.bracket_coords(y, basis.bracket_coords(z, x))
            + basis.bracket_coords(z, basis.bracket_coords(x, y))
        )
        np.testing.assert_allclose(jac, 0.0, atol=1e-12)


def test_brackets_respect_grading():
    basis = build_layered_basis(GroupSpec(2, 4))
    n = basis.dim
    for a in range(n):
        ka = basis.layer_of_flat(a)[0]
        for b in range(n):
            kb = basis.layer_of_flat(b)[0]
            ea, eb = np.zeros(n), np.zeros(n)
            ea[a], eb[b] = 1.0, 1.0
            br = basis.bracket_coords(ea, eb)
            for t in range(n):
                if abs(br[t]) > 1e-12:
                    assert basis.layer_of_flat(t)[0] == ka + kb


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_bch_coords_matches_tensor_route(d, N):
    basis = build_layered_basis(GroupSpec(d, N))
    rng = np.random.default_rng(10 * d + N)
    x = rng.standard_normal((6, 1, basis.dim))
    y = rng.standard_normal((1, 5, basis.dim))
    z = basis.bch_coords(x, y)
    assert z.shape == (6, 5, basis.dim)
    oracle = basis.flat_coords(
        log_t(mul(exp_t(basis.algebra_element(x)), exp_t(basis.algebra_element(y))))
    )
    assert np.max(np.abs(z - oracle)) <= 1e-12 * (1.0 + np.max(np.abs(oracle)))
    # unbatched against batched, and the inverse is the negative
    np.testing.assert_allclose(basis.bch_coords(x[2, 0], y[0, 3]), z[2, 3], rtol=0, atol=1e-12)
    np.testing.assert_allclose(basis.bch_coords(x, -x), 0.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("N", [2, 3])
def test_bch_coords_on_one_letter_is_addition(N):
    # d = 1: every bracket vanishes, so the compiled steps have no pairs
    basis = build_layered_basis(GroupSpec(1, N))
    rng = np.random.default_rng(N)
    x = rng.standard_normal((4, 1, basis.dim))
    y = rng.standard_normal((3, basis.dim))
    np.testing.assert_array_equal(basis.bch_coords(x, y), x + y)
    np.testing.assert_array_equal(basis.bch_coords(x[0, 0], y[1]), x[0, 0] + y[1])
    assert basis.bch_coords(np.zeros((0, basis.dim)), y[0]).shape == (0, basis.dim)


def test_bch_series_has_the_casas_murua_coefficients():
    # log(e^X e^Y) through degree 4 in the Lyndon basis on X = 1 < Y = 2
    assert dict(_bch_series(4)) == {
        (1,): 1,
        (2,): 1,
        (1, 2): Fraction(1, 2),
        (1, 1, 2): Fraction(1, 12),
        (1, 2, 2): Fraction(1, 12),
        (1, 1, 2, 2): Fraction(1, 24),
    }


def test_malcev_order_prefixes_are_ideals():
    basis = build_layered_basis(GroupSpec(2, 4))
    n = basis.dim
    sc = basis.structure_tensor
    # flat index 0 is the top layer; [g, prefix] must stay inside the prefix
    for p in range(1, n):
        block = sc[:, :p, p:]
        assert np.max(np.abs(block)) < 1e-12


@pytest.mark.parametrize("d,N", [(2, 4), (1, 2), (1, 3)])
def test_layer_slices_tile_the_malcev_order(d, N):
    # with d = 1 every layer above the first is empty and gets an empty slice
    basis = build_layered_basis(GroupSpec(d, N))
    stop = 0
    for k in range(N, 0, -1):
        sl = basis.layer_slice(k)
        assert (sl.start, sl.stop) == (stop, stop + basis.layers[k - 1].dim)
        stop = sl.stop
    assert stop == basis.dim
    for k in (0, N + 1):
        with pytest.raises(IndexOutOfRange):
            basis.layer_slice(k)


def test_heisenberg_structure_table():
    basis = build_layered_basis(GroupSpec(2, 2))
    # Malcev order: bracket, first, second. [X_1, X_2] = bracket element.
    table = basis.structure_table()
    assert table == [[2, 3, 1, 1.0]]


def test_level2_lyndon_bracket_embedding():
    basis = build_layered_basis(GroupSpec(2, 2))
    emb = basis.layers[1].embedding[:, 0]
    # e1 (x) e2 - e2 (x) e1 in row-major level-2 coordinates
    np.testing.assert_allclose(emb, [0.0, 1.0, -1.0, 0.0])


# ---------------------------------------------------------------------------
# user-supplied word bases
# ---------------------------------------------------------------------------


def test_degree3_word_basis_expansion():
    spec = GroupSpec(3, 3)
    basis = build_layered_basis(spec, mode="user", user_words=left_normed_degree3_words())
    words = [tuple(t.foliage()) for t in basis.layers[2].elements]
    target = words.index((3, 1, 2))if (3, 1, 2) in words else None
    assert target is None  # (3,1,2) deliberately not part of the alternative list
    # [X_3, [X_1, X_2]] expands with +1 on (2,1,3) and -1 on (1,2,3)
    x3 = BracketTree(index=3)
    x12 = BracketTree(left=BracketTree(index=1), right=BracketTree(index=2))
    tensor = BracketTree(left=x3, right=x12).embed(3)
    coords = basis.expand_layer(3, tensor)
    got = {tuple(t.foliage()): c for t, c in zip(basis.layers[2].elements, coords)}
    for word, value in got.items():
        if word == (2, 1, 3):
            assert abs(value - 1.0) < 1e-12
        elif word == (1, 2, 3):
            assert abs(value + 1.0) < 1e-12
        else:
            assert abs(value) < 1e-12


def test_wrong_degree_word_raises():
    spec = GroupSpec(2, 2)
    with pytest.raises(DegreeMismatch):
        build_layered_basis(spec, mode="user", user_words={1: [(1,), (2,)], 2: [(1, 2, 2)]})


def test_non_lie_tensor_rejected():
    basis = build_layered_basis(GroupSpec(2, 2))
    bad = np.zeros(4)
    bad[0] = 1.0  # e1 (x) e1 is symmetric, not in the bracket image
    with pytest.raises(NotInLieImage):
        basis.expand_layer(2, bad)


def test_expand_round_trip():
    basis = build_layered_basis(GroupSpec(3, 3))
    rng = np.random.default_rng(3)
    for k in range(1, 4):
        m = basis.layers[k - 1].dim
        coords = rng.standard_normal(m)
        tensor = basis.embed_coords(k, coords)
        back = basis.expand_layer(k, tensor)
        np.testing.assert_allclose(back, coords, atol=1e-10)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (1, 3)])
def test_flat_coords_inverts_algebra_element(d, N):
    # (1, 3) has empty layers 2 and 3, which are expanded (and certified) too
    basis = build_layered_basis(GroupSpec(d, N))
    c = np.random.default_rng(d + N).standard_normal((4, 3, basis.dim))
    back = basis.flat_coords(basis.algebra_element(c))
    assert back.shape == c.shape
    np.testing.assert_allclose(back, c, rtol=0, atol=1e-12)
    one = basis.flat_coords(basis.algebra_element(c[1, 2]))
    np.testing.assert_allclose(one, c[1, 2], rtol=0, atol=1e-12)
    assert basis.flat_coords(basis.algebra_element(c[:0])).shape == (0, 3, basis.dim)


@pytest.mark.parametrize("d,N", [(2, 4), (3, 3), (1, 5)])
def test_flat_coords_scaling_is_exact(d, N):
    # elements far above size 1 are shrunk by a power of two before the
    # membership check and scaled back: the coordinates are those of a plain
    # per-layer expansion, bit for bit
    basis = build_layered_basis(GroupSpec(d, N))
    c = np.random.default_rng(N).standard_normal((5, basis.dim))
    big = basis.algebra_element(c).scale(np.array([1.0, 3.0, 40.0, 700.0, 1e4]))
    plain = np.concatenate([basis.expand_layer(k, big.levels[k]) for k in range(N, 0, -1)], axis=-1)
    assert np.array_equal(basis.flat_coords(big), plain)


def test_flat_coords_certifies_empty_layers_and_checks_the_spec():
    basis = build_layered_basis(GroupSpec(1, 2))
    line = GradedElement.from_level1(basis.spec, np.array([0.3]))
    np.testing.assert_array_equal(basis.flat_coords(line), [0.3])
    # a level-2 part on one letter is not a Lie element
    bad = GradedElement(basis.spec, (np.zeros(1), np.array([0.3]), np.array([0.9])))
    with pytest.raises(NotInLieImage):
        basis.flat_coords(bad)
    other = build_layered_basis(GroupSpec(2, 2))
    with pytest.raises(SpecMismatch):
        other.flat_coords(GradedElement.from_level1(GroupSpec(2, 3), np.array([0.3, 0.2])))


# an infinite entry makes the size scaling divide inf by inf, which numpy
# reports before the membership check raises
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", [1, 3])
def test_flat_coords_rejects_non_finite_input(bad, k):
    basis = build_layered_basis(GroupSpec(2, 3))
    x = basis.algebra_element(np.random.default_rng(3).standard_normal((2, basis.dim)))
    levels = [lv.copy() for lv in x.levels]
    levels[k][1, 0] = bad
    with pytest.raises(NotInLieImage):
        basis.flat_coords(GradedElement(basis.spec, tuple(levels)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_basis_json_round_trip():
    basis = build_layered_basis(GroupSpec(2, 3))
    payload = basis.to_json_dict()
    text = json.dumps(payload)
    restored = LayeredBasis.from_json_dict(json.loads(text))
    assert restored.spec == basis.spec
    for la, lb in zip(basis.layers, restored.layers):
        assert la.elements == lb.elements
        np.testing.assert_allclose(la.embedding, lb.embedding)
    assert basis.structure_table() == restored.structure_table()


def test_spec_json_round_trip():
    spec = GroupSpec(3, 2, Flavor.FULL_TENSOR)
    assert GroupSpec.from_json_dict(spec.to_json_dict()) == spec


@pytest.mark.parametrize(
    "blob,field",
    [
        ({"d": 2.7, "N": 2}, "d"),
        ({"d": 2, "N": True}, "N"),
        ({"d": "2", "N": 2}, "d"),
        ({"d": 2}, "N"),
    ],
)
def test_spec_json_rejects_non_integer_fields(blob, field):
    with pytest.raises(DimensionMismatch, match=f"^{field} must be an integer"):
        GroupSpec.from_json_dict(blob)
