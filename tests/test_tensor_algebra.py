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
    adjoint,
    bch,
    commutator,
    exp_t,
    group_inverse,
    log_t,
    mul,
    scaled_exponential,
)

from oracles import bch_degree3


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
    with pytest.raises(RoleError):
        exp_t(g)
    with pytest.raises(RoleError):
        log_t(x)


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
