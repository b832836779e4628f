"""Graded tensor arithmetic: products, exp/log, BCH, adjoint."""

import json

import numpy as np
import pytest

from nilfourier import (
    DimensionMismatch,
    GradedElement,
    GroupSpec,
    Role,
    RoleError,
    SpecMismatch,
    adjoint,
    bch,
    commutator,
    exp_t,
    group_inverse,
    log_t,
    mul,
    scaled_exponential,
)

from oracles import (
    bch_degree3,
    series_adjoint,
    series_bch,
    series_exp_t,
    series_group_inverse,
    series_log_t,
    series_scaled_exponential,
)


def _rand_alg(spec, rng, batch=()):
    return GradedElement.random_algebra(spec, rng, batch=batch)


# ---------------------------------------------------------------------------
# product structure
# ---------------------------------------------------------------------------


def test_product_associative():
    spec = GroupSpec(2, 4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = exp_t(_rand_alg(spec, rng))
        b = exp_t(_rand_alg(spec, rng))
        c = exp_t(_rand_alg(spec, rng))
        left = mul(mul(a, b), c)
        right = mul(a, mul(b, c))
        assert left.max_abs_diff(right) < 1e-12


def test_product_identity_and_roles():
    spec = GroupSpec(3, 2)
    rng = np.random.default_rng(1)
    g = exp_t(_rand_alg(spec, rng))
    e = GradedElement.identity(spec)
    assert mul(g, e).max_abs_diff(g) < 1e-15
    assert mul(e, g).max_abs_diff(g) < 1e-15
    assert g.role is Role.GROUP


def test_truncation_drops_high_levels():
    # multiplying two group elements 1 + v in degree 1 keeps only the linear sum
    spec = GroupSpec(2, 1)
    e = GradedElement.identity(spec)
    a = e + GradedElement.from_level1(spec, np.array([1.0, 2.0]))
    b = e + GradedElement.from_level1(spec, np.array([0.5, -1.0]))
    p = mul(a, b)
    np.testing.assert_allclose(p.level(1), [1.5, 1.0])


# ---------------------------------------------------------------------------
# exponential and logarithm
# ---------------------------------------------------------------------------


def test_exp_log_round_trip():
    spec = GroupSpec(3, 3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = _rand_alg(spec, rng)
        back = log_t(exp_t(x))
        assert back.max_abs_diff(x) < 1e-12
    g = exp_t(_rand_alg(spec, rng))
    again = exp_t(log_t(g))
    assert again.max_abs_diff(g) < 1e-12


def test_log_of_one_plus_e1():
    # log(1 + e1) = e1 - e1 (x) e1 / 2 at truncation level 2
    spec = GroupSpec(2, 2)
    g = GradedElement.identity(spec) + GradedElement.from_level1(spec, np.array([1.0, 0.0]))
    x = log_t(g)
    np.testing.assert_allclose(x.level(1), [1.0, 0.0])
    np.testing.assert_allclose(x.level(2), [-0.5, 0.0, 0.0, 0.0])


def test_exp_log_role_checks():
    spec = GroupSpec(2, 2)
    rng = np.random.default_rng(3)
    x = _rand_alg(spec, rng)
    g = exp_t(x)
    needs_algebra = r"exp_t needs an algebra element \(scalar level 0\)"
    needs_group = r"log_t needs a group element \(scalar level 1\)"
    for call, message in (
        (lambda: exp_t(g), needs_algebra),
        (lambda: log_t(x), needs_group),
        (lambda: bch(g, x), needs_algebra),
        (lambda: bch(x, g), needs_algebra),
        (lambda: group_inverse(x), needs_group),
        (lambda: commutator(g, x), "commutator needs algebra elements"),
        (lambda: commutator(x, g), "commutator needs algebra elements"),
        (lambda: adjoint(g, g), "adjoint acts on algebra elements"),
        (lambda: adjoint(x, x), needs_group),
        (lambda: scaled_exponential(g, np.ones(3)), "scaled_exponential needs an algebra element"),
    ):
        with pytest.raises(RoleError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize(
    "op",
    [
        mul,
        lambda a, b: a + b,
        lambda a, b: a - b,
        commutator,
        bch,
        lambda a, b: adjoint(exp_t(a), b),
    ],
    ids=["mul", "add", "sub", "commutator", "bch", "adjoint"],
)
def test_elements_over_two_specs_are_refused(op):
    # Same level sizes, so only the spec check can tell the two apart.
    rng = np.random.default_rng(14)
    free, full = GroupSpec(2, 2), GroupSpec(2, 2, "FullTensor")
    a, b = _rand_alg(free, rng), _rand_alg(full, rng)
    assert free.tensor_level_sizes() == full.tensor_level_sizes()
    with pytest.raises(SpecMismatch, match="^cannot combine elements over"):
        op(a, b)


def test_scalar_level_within_the_role_tolerance_is_read_as_exact():
    spec = GroupSpec(2, 3)
    rng = np.random.default_rng(15)
    x = _rand_alg(spec, rng, batch=(4,))
    g = exp_t(x)
    for elt, f, offset in ((g, log_t, 1.0 + 5e-13), (x, exp_t, 5e-13)):
        shifted = GradedElement(spec, (np.full((4, 1), offset),) + elt.levels[1:])
        assert shifted.role is elt.role
        got, exact = f(shifted), f(elt)
        assert all(np.array_equal(a, b) for a, b in zip(got.levels, exact.levels))


def test_scaled_exponential_matches_exp():
    spec = GroupSpec(2, 3)
    rng = np.random.default_rng(4)
    x = _rand_alg(spec, rng)
    ts = np.array([-2.0, -0.3, 0.0, 1.0, 2.5])
    batch = scaled_exponential(x, ts)
    assert batch.batch_shape == (5,)
    for i, t in enumerate(ts):
        single = exp_t(x.scale(float(t)))
        assert batch.take(i).max_abs_diff(single) < 1e-13


BIT_SPECS = [(1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (2, 6)]


def _assert_same_bits(got, want):
    assert got.spec == want.spec and len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("flavor", ["FreeNilpotent", "FullTensor"])
@pytest.mark.parametrize("d,N", BIT_SPECS)
def test_series_equal_the_step_by_step_series_bit_for_bit(d, N, flavor):
    # The step-by-step series build an element per term through mul, + and
    # scale; the level-array core must reproduce them exactly.
    spec = GroupSpec(d, N, flavor)
    rng = np.random.default_rng(100 * d + N)
    for batch in ((), (7,), (3, 4)):
        x = _rand_alg(spec, rng, batch=batch)
        y = _rand_alg(spec, rng, batch=batch)
        raw = _rand_alg(spec, rng, batch=batch)
        g = GradedElement(spec, (np.ones(batch + (1,)),) + raw.levels[1:])
        _assert_same_bits(exp_t(x), series_exp_t(x))
        _assert_same_bits(log_t(g), series_log_t(g))
        _assert_same_bits(log_t(exp_t(x)), series_log_t(series_exp_t(x)))
        _assert_same_bits(bch(x, y), series_bch(x, y))
        _assert_same_bits(group_inverse(g), series_group_inverse(g))
        _assert_same_bits(adjoint(g, y), series_adjoint(g, y))
        # scaled_exponential keeps the zero j = 0 row in its contraction, so
        # numpy sums in the same order and the match is bit for bit (d = 1
        # included); dropping the row moves the last bit.
        direction = _rand_alg(spec, rng)
        t = 2.0 * rng.standard_normal(batch)
        _assert_same_bits(scaled_exponential(direction, t), series_scaled_exponential(direction, t))


# ---------------------------------------------------------------------------
# BCH and inverse
# ---------------------------------------------------------------------------


def test_bch_level2_closed_form():
    spec = GroupSpec(2, 2)
    rng = np.random.default_rng(5)
    x = _rand_alg(spec, rng)
    y = _rand_alg(spec, rng)
    z = bch(x, y)
    expected = x + y + commutator(x, y).scale(0.5)
    assert z.max_abs_diff(expected) < 1e-13


def test_bch_degree3_closed_form():
    spec = GroupSpec(3, 3)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = _rand_alg(spec, rng)
        y = _rand_alg(spec, rng)
        z = bch(x, y)
        expected = bch_degree3(x, y, commutator)
        assert z.max_abs_diff(expected) < 1e-12


def test_group_inverse():
    spec = GroupSpec(2, 4)
    rng = np.random.default_rng(7)
    g = exp_t(_rand_alg(spec, rng))
    e = GradedElement.identity(spec)
    assert mul(g, group_inverse(g)).max_abs_diff(e) < 1e-12
    assert mul(group_inverse(g), g).max_abs_diff(e) < 1e-12


# ---------------------------------------------------------------------------
# adjoint action
# ---------------------------------------------------------------------------


def test_adjoint_matches_conjugation():
    spec = GroupSpec(2, 3)
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = exp_t(_rand_alg(spec, rng))
        y = _rand_alg(spec, rng)
        ad = adjoint(g, y)
        conj = log_t(mul(mul(g, exp_t(y)), group_inverse(g)))
        assert ad.max_abs_diff(conj) < 1e-10


def test_adjoint_is_automorphism():
    spec = GroupSpec(3, 3)
    rng = np.random.default_rng(9)
    g = exp_t(_rand_alg(spec, rng))
    y = _rand_alg(spec, rng)
    z = _rand_alg(spec, rng)
    lhs = adjoint(g, commutator(y, z))
    rhs = commutator(adjoint(g, y), adjoint(g, z))
    assert lhs.max_abs_diff(rhs) < 1e-10


# ---------------------------------------------------------------------------
# batching and serialization
# ---------------------------------------------------------------------------


def test_batched_mul_matches_loop():
    spec = GroupSpec(2, 3)
    rng = np.random.default_rng(10)
    a = exp_t(_rand_alg(spec, rng, batch=(6,)))
    b = exp_t(_rand_alg(spec, rng, batch=(6,)))
    prod = mul(a, b)
    for i in range(6):
        single = mul(a.take(i), b.take(i))
        assert prod.take(i).max_abs_diff(single) < 1e-14


@pytest.mark.parametrize("d,N", [(1, 3), (2, 3), (3, 4)])
def test_mul_of_raw_elements_equals_the_outer_product_definition_bit_for_bit(d, N):
    # Scalar levels other than 0 and 1: no unit-scalar shortcut may apply.
    spec = GroupSpec(d, N)
    rng = np.random.default_rng(13 + d + N)

    def raw(p0, batch):
        x = _rand_alg(spec, rng, batch=batch)
        return GradedElement(spec, (np.full(batch + (1,), p0),) + x.levels[1:])

    g, h = raw(2.5, (3, 1)), raw(-0.5, (4,))
    prod = mul(g, h)
    assert g.role is h.role is Role.RAW and prod.batch_shape == (3, 4)
    for k, got in enumerate(prod.levels):
        terms = [
            (g.levels[i][..., :, None] * h.levels[k - i][..., None, :]).reshape((3, 4, d**k))
            for i in range(k + 1)
        ]
        assert np.array_equal(got, sum(terms[1:], terms[0]))


def test_broadcast_batches():
    spec = GroupSpec(2, 2)
    rng = np.random.default_rng(11)
    a = exp_t(_rand_alg(spec, rng))  # unbatched
    b = exp_t(_rand_alg(spec, rng, batch=(4,)))
    prod = mul(a.broadcast_to((4,)), b)
    assert prod.batch_shape == (4,)
    for i in range(4):
        assert prod.take(i).max_abs_diff(mul(a, b.take(i))) < 1e-14


def test_element_json_round_trip():
    spec = GroupSpec(2, 3)
    rng = np.random.default_rng(12)
    g = exp_t(_rand_alg(spec, rng))
    payload = json.loads(json.dumps(g.to_json_dict()))
    back = GradedElement.from_json_dict(payload)
    assert back.role is Role.GROUP
    assert back.max_abs_diff(g) < 1e-15


def test_role_is_read_off_the_scalar_level():
    spec = GroupSpec(2, 3)
    rng = np.random.default_rng(13)
    g = exp_t(_rand_alg(spec, rng))
    built = GradedElement(spec, g.levels)
    assert built.role is Role.GROUP
    assert log_t(built).max_abs_diff(log_t(g)) == 0.0
    x = _rand_alg(spec, rng)
    mixed = GradedElement(spec, tuple(np.stack(pair) for pair in zip(x.levels, g.levels)))
    assert mixed.role is Role.RAW
    assert [mixed.take(i).role for i in range(2)] == [Role.ALGEBRA, Role.GROUP]


def test_element_json_role_is_read_off_the_data_or_checked():
    spec = GroupSpec(2, 2)
    payload = GradedElement.identity(spec).to_json_dict()
    del payload["role"]
    assert GradedElement.from_json_dict(payload).role is Role.GROUP
    payload["levels"][0] = [0.5]
    for role, message in (("group", "group elements need scalar level 1"),
                          ("algebra", "algebra elements need scalar level 0")):
        with pytest.raises(RoleError, match=message):
            GradedElement.from_json_dict({**payload, "role": role})
    assert GradedElement.from_json_dict({**payload, "role": "raw"}).role is Role.RAW
    with pytest.raises(DimensionMismatch, match="^role must be one of"):
        GradedElement.from_json_dict({**payload, "role": "bogus"})


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------

_S22 = GroupSpec(2, 2)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (
            lambda: GradedElement(_S22, (np.ones(1), np.zeros(2))),
            DimensionMismatch,
            "^need 3 levels, got 2$",
        ),
        (
            lambda: GradedElement(_S22, (np.ones(1), np.zeros(3), np.zeros(4))),
            DimensionMismatch,
            "^level 1 must have trailing size 2",
        ),
        (
            lambda: GradedElement(_S22, (np.ones((2, 1)), np.zeros((3, 2)), np.zeros((2, 4)))),
            DimensionMismatch,
            "share one batch shape",
        ),
        (lambda: GradedElement.identity(_S22) * GradedElement.identity(_S22), TypeError, "mul"),
        (
            lambda: GradedElement.identity(_S22, (2,)).to_json_dict(),
            DimensionMismatch,
            "only unbatched elements",
        ),
        (
            lambda: scaled_exponential(
                GradedElement.from_level1(_S22, np.ones((2, 2))), np.linspace(0, 1, 3)
            ),
            DimensionMismatch,
            "unbatched direction",
        ),
    ],
    ids=["level-count", "level-width", "batch-mismatch", "mul-elements", "json-batched",
         "scaled-exp-batched"],
)
def test_graded_element_input_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
