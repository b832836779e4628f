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
    group_inverse,
    log_signature,
    mul,
    path_signature,
    read_path_csv,
)

from oracles import iterated_integral


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


def test_read_path_csv_wrong_width_rejected():
    with pytest.raises(DimensionMismatch):
        read_path_csv(io.StringIO("1,2\n3,4\n"), d=3)


def test_signatures_never_compile_the_group_law():
    basis = build_layered_basis(GroupSpec(2, 4))
    path = _random_path(np.random.default_rng(2), 2, 6)
    path_signature(basis.spec, path)
    log_signature(path, basis)
    assert basis._bch is None
