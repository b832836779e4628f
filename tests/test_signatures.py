"""Path signatures: Chen identity, reversal, refinement, membership, CSV."""

import io

import numpy as np
import pytest

from nilfourier import (
    DimensionMismatch,
    GradedElement,
    GroupSpec,
    PiecewiseLinearPath,
    build_layered_basis,
    exp_t,
    group_inverse,
    log_signature,
    mul,
    path_signature,
    read_path_csv,
)
from nilfourier import signatures
from nilfourier.signatures import segment_signature

from oracles import iterated_integral, left_fold_signature

# The acceptance battery's groups, plus a deeper d = 1 group.
COMBOS = [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4), (1, 5)]


def _random_path(rng, d, segments):
    return PiecewiseLinearPath(rng.standard_normal((segments + 1, d)))


# ---------------------------------------------------------------------------
# algebraic identities
# ---------------------------------------------------------------------------


def test_chen_concatenation():
    spec = GroupSpec(3, 4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = _random_path(rng, 3, 4)
        q = _random_path(rng, 3, 3)
        joined = p.concatenated(q)
        lhs = path_signature(spec, joined)
        rhs = mul(path_signature(spec, p), path_signature(spec, q))
        assert lhs.max_abs_diff(rhs) < 1e-10


def test_reversal_gives_inverse():
    spec = GroupSpec(2, 4)
    rng = np.random.default_rng(1)
    p = _random_path(rng, 2, 5)
    sig = path_signature(spec, p)
    rev = path_signature(spec, p.reversed())
    assert rev.max_abs_diff(group_inverse(sig)) < 1e-10


def test_refinement_invariance():
    spec = GroupSpec(3, 3)
    rng = np.random.default_rng(2)
    p = _random_path(rng, 3, 4)
    sig = path_signature(spec, p)
    refined = path_signature(spec, p.refined())
    assert sig.max_abs_diff(refined) < 1e-12


def test_identity_for_constant_path():
    spec = GroupSpec(2, 3)
    p = PiecewiseLinearPath(np.zeros((3, 2)))
    sig = path_signature(spec, p)
    assert sig.max_abs_diff(GradedElement.identity(spec)) < 1e-15


# ---------------------------------------------------------------------------
# batched engine against the sequential oracle
# ---------------------------------------------------------------------------


def _brownian_path(rng, d, segments):
    steps = rng.standard_normal((segments, d)) / np.sqrt(segments)
    return PiecewiseLinearPath(np.vstack([np.zeros(d), np.cumsum(steps, axis=0)]))


def _assert_matches_left_fold(spec, path):
    sig = path_signature(spec, path)
    ref = left_fold_signature(spec, path)
    assert sig.batch_shape == () and sig.role is ref.role
    scale = max(float(np.max(np.abs(lv))) for lv in ref.levels)
    assert sig.max_abs_diff(ref) <= 1e-13 * (1.0 + scale)


@pytest.mark.parametrize("d,N", COMBOS)
def test_batched_segment_signatures_equal_exp_bit_for_bit(d, N):
    spec = GroupSpec(d, N)
    rng = np.random.default_rng(20 + 10 * d + N)
    v = rng.standard_normal((4, 50, d))
    got = segment_signature(spec, v)
    ref = exp_t(GradedElement.from_level1(spec, v))
    assert got.batch_shape == (4, 50) and got.role is ref.role
    assert all(np.array_equal(a, b) for a, b in zip(got.levels, ref.levels))
    single = segment_signature(spec, v[1, 7])
    assert single.batch_shape == ()
    assert all(np.array_equal(a, b) for a, b in zip(single.levels, ref.take((1, 7)).levels))


def test_segment_signature_rejects_wrong_width():
    with pytest.raises(DimensionMismatch):
        segment_signature(GroupSpec(2, 3), np.ones((5, 3)))
    with pytest.raises(DimensionMismatch):
        segment_signature(GroupSpec(2, 3), 1.0)


@pytest.mark.parametrize("d,N", COMBOS)
def test_pairwise_chen_product_matches_left_fold(d, N):
    spec = GroupSpec(d, N)
    rng = np.random.default_rng(40 + 10 * d + N)
    for segments in (1, 2, 3, 7, 64):
        _assert_matches_left_fold(spec, _brownian_path(rng, d, segments))


@pytest.mark.parametrize("d,N", COMBOS)
def test_blocked_chen_product_folds_blocks_in_order(d, N, monkeypatch):
    # Blocks of five segments: 23 segments make four full blocks and a short one.
    spec = GroupSpec(d, N)
    monkeypatch.setattr(signatures, "_BLOCK_BUDGET", 5 * sum(spec.tensor_level_sizes()))
    _assert_matches_left_fold(spec, _brownian_path(np.random.default_rng(60 + d + N), d, 23))


def test_path_longer_than_one_block_matches_left_fold():
    spec = GroupSpec(3, 4)
    block = signatures._BLOCK_BUDGET // sum(spec.tensor_level_sizes())
    _assert_matches_left_fold(spec, _brownian_path(np.random.default_rng(7), 3, 2 * block + 3))


# ---------------------------------------------------------------------------
# explicit values
# ---------------------------------------------------------------------------


def test_l_path_level2():
    # (0,0) -> (1,0) -> (1,1): level 1 = (1,1); level 2 has the ordered-area split
    spec = GroupSpec(2, 2)
    p = PiecewiseLinearPath(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    sig = path_signature(spec, p)
    np.testing.assert_allclose(sig.level(1), [1.0, 1.0], atol=1e-14)
    # row-major (i,j): 11, 12, 21, 22
    np.testing.assert_allclose(sig.level(2), [0.5, 1.0, 0.0, 0.5], atol=1e-14)


def test_square_loop_levy_area():
    # unit square loop: level 1 vanishes, antisymmetric level-2 part is the area
    spec = GroupSpec(2, 2)
    p = PiecewiseLinearPath(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    )
    sig = path_signature(spec, p)
    np.testing.assert_allclose(sig.level(1), [0.0, 0.0], atol=1e-14)
    lvl2 = sig.level(2)
    assert abs(lvl2[1] - lvl2[2] - 2.0) < 1e-14  # S(12) - S(21) = 2 * enclosed area
    basis = build_layered_basis(spec)
    flat = log_signature(p, basis)
    assert abs(flat[0] - 1.0) < 1e-14  # bracket coordinate = area


def test_signature_matches_iterated_integral_oracle():
    spec = GroupSpec(2, 3)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((4, 2))
    p = PiecewiseLinearPath(pts)
    sig = path_signature(spec, p)
    words = {
        1: [(1,), (2,)],
        2: [(1, 1), (1, 2), (2, 1), (2, 2)],
        3: [(1, 1, 2), (2, 1, 2), (1, 2, 2)],
    }
    for k, wlist in words.items():
        lvl = sig.level(k)
        for w in wlist:
            flat = 0
            for letter in w:
                flat = flat * 2 + (letter - 1)
            oracle = iterated_integral(pts, w)
            assert abs(lvl[flat] - oracle) < 1e-6


# ---------------------------------------------------------------------------
# group membership of signatures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,N", [(2, 3), (3, 4), (2, 4)])
def test_signatures_live_in_the_group(d, N):
    # log of a signature must expand in the free nilpotent basis
    spec = GroupSpec(d, N)
    basis = build_layered_basis(spec)
    rng = np.random.default_rng(10 + d + N)
    for _ in range(34):
        p = _random_path(rng, d, 5)
        flat = log_signature(p, basis)  # raises NotInLieImage if outside
        assert flat.shape == (basis.dim,)
        assert np.all(np.isfinite(flat))


@pytest.mark.parametrize(
    "d,N,end", [(2, 5, (20.0, 0.0)), (2, 4, (100.0, 0.0)), (2, 4, (1000.0, 0.0)), (1, 5, (20.0,))]
)
def test_log_signature_of_long_straight_segments(d, N, end):
    # the log of one long segment leaves rounding in levels >= 2 that is tiny
    # next to the signature's levels but not next to the log's own (near 0);
    # on d = 1 those levels are empty layers, certified all the same
    basis = build_layered_basis(GroupSpec(d, N))
    path = PiecewiseLinearPath(np.array([np.zeros(d), end]))
    sig = path_signature(basis.spec, path)
    rebuilt = exp_t(basis.algebra_element(log_signature(path, basis)))
    assert rebuilt.max_abs_diff(sig) <= 1e-12 * max(np.max(np.abs(lv)) for lv in sig.levels)


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------


def test_read_path_csv_with_header():
    text = "x,y\n0,0\n1,0\n1,1\n"
    p = read_path_csv(io.StringIO(text))
    assert p.d == 2
    np.testing.assert_allclose(p.points, [[0, 0], [1, 0], [1, 1]])


def test_read_path_csv_plain():
    text = "0.5,1.5,2.5\n1.0,2.0,3.0\n"
    p = read_path_csv(io.StringIO(text))
    assert p.d == 3
    assert len(p.points) == 2


def test_read_path_csv_ragged_rejected():
    with pytest.raises(DimensionMismatch):
        read_path_csv(io.StringIO("1,2\n3\n"))


def test_non_finite_vertex_rejected():
    pts = np.zeros((4, 2))
    pts[2, 1] = -np.inf
    with pytest.raises(DimensionMismatch, match=r"^path vertex 3 is not finite: \[0\.0, -inf\]$"):
        PiecewiseLinearPath(pts)
    with pytest.raises(DimensionMismatch, match="^path vertex 2 is not finite"):
        read_path_csv(io.StringIO("x,y\n0,0\n1,nan\n"))


def test_read_path_csv_wrong_width_rejected():
    with pytest.raises(DimensionMismatch):
        read_path_csv(io.StringIO("1,2\n3,4\n"), d=3)


def test_signatures_never_compile_the_group_law():
    basis = build_layered_basis(GroupSpec(2, 4))
    path = _random_path(np.random.default_rng(2), 2, 6)
    path_signature(basis.spec, path)
    log_signature(path, basis)
    assert basis._bch is None
