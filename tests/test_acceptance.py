"""End-to-end acceptance battery.

One test per headline guarantee of the library, each pinned to an explicit
numeric tolerance and (where a budget applies) a wall-clock limit. Running
``pytest tests/test_acceptance.py -v`` prints a single pass/fail line per
guarantee.
"""

from __future__ import annotations

import time

import numpy as np

from nilfourier import (
    BracketTree,
    Functional,
    GradedElement,
    GroupSpec,
    PiecewiseLinearPath,
    QuadratureSpec,
    SchwartzFunction,
    bch,
    build_layered_basis,
    c_norm,
    commutator,
    exp_t,
    full_orbit_dim,
    generic_polarization,
    group_inverse,
    invert,
    is_generic,
    jump_sets,
    left_normed_degree3_words,
    log_signature,
    mul,
    orbit_dim_numeric_all,
    orbit_dim_quotient_generic,
    path_signature,
    plancherel,
    polarization_check,
    sample_generic,
    vergne_polarization,
    witt_dimension,
)
from oracles import (
    HEISENBERG_C_NORM,
    HEISENBERG_INVERT_CASES,
    JUMP_SET_EXAMPLES,
    bch_degree3,
    brute_force_witt,
    haar_invariance_check,
    iterated_integral,
    refine_polyline,
)


# ---------------------------------------------------------------------------
# 1. Layer dimensions: closed formula vs. brute-force word enumeration.
# ---------------------------------------------------------------------------


def test_layer_dimension_formula_matches_word_enumeration():
    start = time.perf_counter()
    for d in range(1, 5):
        for k in range(1, 7):
            assert witt_dimension(d, k) == brute_force_witt(d, k)
    for d in range(2, 5):
        assert witt_dimension(d, 2) == (d * d - d) // 2
        assert witt_dimension(d, 3) == (d**3 - d) // 3
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Group log-product vs. the closed commutator series at depth 3.
# ---------------------------------------------------------------------------


def test_log_of_group_product_matches_closed_depth3_series():
    start = time.perf_counter()
    spec = GroupSpec(3, 3)
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = GradedElement.from_level1(spec, rng.standard_normal(3))
        y = GradedElement.from_level1(spec, rng.standard_normal(3))
        expected = bch_degree3(x, y, commutator)
        assert bch(x, y).max_abs_diff(expected) < 1e-12
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 3. Degree-3 expansion coefficients in the left-normed word basis.
# ---------------------------------------------------------------------------


def test_bracket_expansion_in_word_basis_has_unit_coefficients():
    basis = build_layered_basis(GroupSpec(3, 3), left_normed_degree3_words())
    x3 = BracketTree(index=3)
    x12 = BracketTree(left=BracketTree(index=1), right=BracketTree(index=2))
    tensor = BracketTree(left=x3, right=x12).embed(3)
    coords = basis.expand_layer(3, tensor)
    assert len(coords) == len(basis.layers[2].elements) == 8
    for tree, value in zip(basis.layers[2].elements, coords):
        word = tuple(tree.foliage())
        expected = {(2, 1, 3): 1.0, (1, 2, 3): -1.0}.get(word, 0.0)
        assert abs(value - expected) < 1e-10


# ---------------------------------------------------------------------------
# 4. The algebraic genericity flag is equivalent to numerically maximal
#    orbit dimensions in every quotient.
# ---------------------------------------------------------------------------


def _assert_generic_flag_matches(basis, draws) -> dict:
    """Assert ``is_generic`` is "maximal orbit dimension in every quotient" on
    each draw; return the generic orbit-dimension table."""
    generic_table = None
    for flat in draws:
        ell = Functional(basis, flat)
        numeric = orbit_dim_numeric_all(ell)
        if generic_table is None:
            generic_table = {km: orbit_dim_quotient_generic(basis.spec, *km) for km in numeric}
        matches = all(numeric[km] == generic_table[km] for km in numeric)
        assert is_generic(ell) == matches
    return generic_table


def test_generic_flag_equals_numerically_maximal_orbit_dimensions():
    start = time.perf_counter()
    for d, N in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]:
        basis = build_layered_basis(GroupSpec(d, N))
        spec = basis.spec
        rng = np.random.default_rng(1000 + 10 * d + N)
        # Normal draws, then integer draws in {-2..2}: their exact zeros can
        # make a jump block singular while its whole pairing block keeps rank.
        draws = [rng.standard_normal(basis.dim) for _ in range(100)]
        draws += [rng.integers(-2, 3, basis.dim).astype(float) for _ in range(100)]
        generic_table = _assert_generic_flag_matches(basis, draws)
        # Zeroing the whole top layer must lose dimension in some quotient.
        top = [
            basis.flat_index(spec.N, i)
            for i in range(1, len(basis.layers[spec.N - 1].elements) + 1)
        ]
        for _ in range(10):
            flat = rng.standard_normal(basis.dim)
            flat[top] = 0.0
            ell = Functional(basis, flat)
            assert not is_generic(ell)
            numeric = orbit_dim_numeric_all(ell)
            assert any(numeric[km] < generic_table[km] for km in numeric)
    # Integer draws on (2,5): where their exact zeros kill every true entry of
    # a pairing block, what is left must be exact zeros, not rounding noise.
    basis = build_layered_basis(GroupSpec(2, 5))
    rng = np.random.default_rng(7)
    _assert_generic_flag_matches(
        basis, [rng.integers(-2, 3, basis.dim).astype(float) for _ in range(300)]
    )
    assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# 5. Jump / transverse index sets for the flagship groups.
# ---------------------------------------------------------------------------


def test_jump_and_transverse_sets_match_hand_derivations():
    for spec_key in [(3, 3), (2, 2)]:
        basis = build_layered_basis(GroupSpec(*spec_key))
        jump = jump_sets(basis)
        assert sorted(jump.S) == JUMP_SET_EXAMPLES[spec_key]["S"]
        assert sorted(jump.T) == JUMP_SET_EXAMPLES[spec_key]["T"]
    basis = build_layered_basis(GroupSpec(3, 3))
    jump = jump_sets(basis)
    assert len(jump.S) == 6 and len(jump.T) == 8


# ---------------------------------------------------------------------------
# 6. On the rank-2 depth-3 group, genericity is exactly "first top-layer
#    coordinate nonzero", cross-checked against numeric orbit dimensions.
# ---------------------------------------------------------------------------


def test_depth3_genericity_grid_matches_single_coordinate_rule():
    basis = build_layered_basis(GroupSpec(2, 3))
    spec = basis.spec
    generic_table = None
    axes = [basis.flat_index(3, 1), basis.flat_index(3, 2), basis.flat_index(1, 1)]
    grid = np.linspace(-1.0, 1.0, 10)  # smallest magnitude 1/9, far from 0
    for c31 in grid:
        for c32 in grid:
            for a1 in grid:
                flat = np.zeros(basis.dim)
                flat[axes] = (c31, c32, a1)
                ell = Functional(basis, flat)
                expected = bool(abs(c31) > 1e-6)
                assert is_generic(ell) == expected
                numeric = orbit_dim_numeric_all(ell)
                if generic_table is None:
                    generic_table = {
                        km: orbit_dim_quotient_generic(spec, *km) for km in numeric
                    }
                matches = all(numeric[km] == generic_table[km] for km in numeric)
                assert matches == expected


# ---------------------------------------------------------------------------
# 7. Both polarization constructions produce subordinate subalgebras of the
#    correct dimension; the generic one uses a fixed index pattern when the
#    depth is odd.
# ---------------------------------------------------------------------------


def _support(sub) -> frozenset[int]:
    """Flat coordinate indices a subalgebra's span actually touches."""
    return frozenset(
        int(j) for j in np.nonzero(np.abs(sub.vectors).max(axis=0) > 1e-9)[0]
    )


def test_polarization_constructions_pass_structural_checks():
    start = time.perf_counter()
    for d, N in [(2, 2), (3, 2), (3, 3), (2, 4), (2, 3)]:
        basis = build_layered_basis(GroupSpec(d, N))
        rng = np.random.default_rng(100 * d + N)
        supports = set()
        for _ in range(50):
            ell = sample_generic(basis, rng)
            expected_dim = basis.dim - full_orbit_dim(ell) // 2
            for construct in (generic_polarization, vergne_polarization):
                sub = construct(ell)
                report = polarization_check(sub, ell)
                assert report["passed"], (d, N, construct.__name__, report)
                assert report["dim"] == expected_dim
            supports.add(_support(generic_polarization(ell)))
        if N % 2 == 1:  # odd depth: one fixed coordinate pattern for all
            assert len(supports) == 1, supports
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 8. The layered chart carries Lebesgue measure to the invariant measure.
# ---------------------------------------------------------------------------


def test_chart_measure_is_invariant_under_left_translation():
    for d, N, seed in [(2, 2, 2024), (2, 3, 2025)]:
        basis = build_layered_basis(GroupSpec(d, N))
        result = haar_invariance_check(basis, rng=np.random.default_rng(seed))
        assert result["passed"], (d, N, result)


# ---------------------------------------------------------------------------
# 9. Reference battery on the rank-2 depth-2 group: pointwise inversion,
#    squared-norm identity, and the normalization constant.
# ---------------------------------------------------------------------------


def test_reference_inversion_plancherel_and_normalization():
    start = time.perf_counter()
    basis = build_layered_basis(GroupSpec(2, 2))
    f = SchwartzFunction.gaussian(basis.dim)
    qspec = QuadratureSpec.reference()

    # Pointwise inversion at pinned evaluation points (max |f| = 1).
    for flat, expected in HEISENBERG_INVERT_CASES:
        point = exp_t(basis.algebra_element(np.asarray(flat)))
        value = invert(f, point, basis, qspec)
        assert abs(value - expected) <= 0.03, (flat, value, expected)

    # Squared-norm identity.
    result = plancherel(f, basis, qspec)
    assert abs(result["ratio"] - 1.0) <= 0.02, result

    # Normalization constant: exact formula and the empirical calibration
    # implied by inversion at the identity point.
    assert abs(c_norm(basis) - HEISENBERG_C_NORM) <= 0.01 * HEISENBERG_C_NORM
    identity_value = invert(f, GradedElement.identity(basis.spec), basis, qspec)
    assert abs(identity_value - 1.0) <= 0.01

    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# 10. Signature calculus: concatenation, reversal, refinement invariance,
#     membership of the log in the layered span, and the unit-square area.
# ---------------------------------------------------------------------------


def test_signature_calculus_properties_on_random_paths():
    start = time.perf_counter()
    combos = [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4)]
    bases = {key: build_layered_basis(GroupSpec(*key)) for key in combos}
    rng = np.random.default_rng(7)
    for j in range(100):
        d, N = combos[j % len(combos)]
        spec = bases[(d, N)].spec
        points = rng.standard_normal((6, d))
        path = PiecewiseLinearPath(points)
        sig = path_signature(spec, path)

        # Concatenation: the signature of the whole path is the product of
        # the signatures of its two halves.
        first = path_signature(spec, PiecewiseLinearPath(points[:4]))
        second = path_signature(spec, PiecewiseLinearPath(points[3:]))
        assert mul(first, second).max_abs_diff(sig) < 1e-10

        # Reversal gives the group inverse.
        reverse = path_signature(spec, PiecewiseLinearPath(points[::-1]))
        assert reverse.max_abs_diff(group_inverse(sig)) < 1e-10

        # Inserting collinear vertices does not change the signature.
        refined = path_signature(spec, PiecewiseLinearPath(refine_polyline(points, 3)))
        assert refined.max_abs_diff(sig) < 1e-10

        # The log lies in the layered span and reconstructs the signature.
        coords = log_signature(path, bases[(d, N)])
        rebuilt = exp_t(bases[(d, N)].algebra_element(coords))
        assert rebuilt.max_abs_diff(sig) < 1e-10

    # Unit-square loop: signed area 1, against a quadrature oracle.
    basis = bases[(2, 2)]
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    area = log_signature(PiecewiseLinearPath(square), basis)[basis.flat_index(2, 1)]
    assert abs(area - 1.0) < 1e-12
    quad = 0.5 * (
        iterated_integral(square, (1, 2)) - iterated_integral(square, (2, 1))
    )
    assert abs(area - quad) < 1e-6
    assert time.perf_counter() - start < 60.0
