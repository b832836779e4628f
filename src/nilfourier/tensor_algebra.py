"""Truncated tensor algebra over ``R^d`` with dense, batched level arrays.

Elements store one dense array per tensor degree ``k = 0..N`` (size ``d^k``,
row-major with the first slot slowest). Arbitrary leading batch axes are
supported throughout, so group operations vectorize over grids of elements.

An element's role is read off its scalar level: algebra elements have
``p_0 = 0``, group elements ``p_0 = 1``, and any other scalar level is raw. The
exponential, logarithm, Baker-Campbell-Hausdorff combination, inverse, and
adjoint action are exact finite series thanks to nilpotency.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, RoleError, SpecMismatch
from .lie_basis import GroupSpec, json_enum

__all__ = [
    "Role",
    "GradedElement",
    "mul",
    "exp_t",
    "log_t",
    "bch",
    "commutator",
    "group_inverse",
    "adjoint",
    "scaled_exponential",
]

_ROLE_TOL = 1e-12


class Role(str, Enum):
    ALGEBRA = "algebra"
    GROUP = "group"
    RAW = "raw"


@dataclass(frozen=True, eq=False)
class GradedElement:
    """A truncated tensor with one dense array per degree.

    ``levels[k]`` has shape ``(*batch, d^k)``; all levels share the batch
    shape. Construction validates trailing sizes; the role is read off ``p_0``.
    """

    spec: GroupSpec
    levels: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        sizes = self.spec.tensor_level_sizes()
        if len(self.levels) != self.spec.N + 1:
            raise DimensionMismatch(
                f"need {self.spec.N + 1} levels, got {len(self.levels)}"
            )
        arrays = [np.asarray(lv, dtype=float) for lv in self.levels]
        batch = arrays[0].shape[:-1]
        for k, (arr, size) in enumerate(zip(arrays, sizes)):
            if arr.ndim == 0 or arr.shape[-1] != size:
                raise DimensionMismatch(
                    f"level {k} must have trailing size {size}, got {arr.shape}"
                )
            if arr.shape[:-1] != batch:
                raise DimensionMismatch("all levels must share one batch shape")
        object.__setattr__(self, "levels", tuple(arrays))

    # -- basic structure ----------------------------------------------------

    @property
    def role(self) -> Role:
        """The role pinned by the scalar level: algebra at 0, group at 1, else raw."""
        p0 = self.levels[0]
        if np.all(np.abs(p0) <= _ROLE_TOL):
            return Role.ALGEBRA
        if np.all(np.abs(p0 - 1.0) <= _ROLE_TOL):
            return Role.GROUP
        return Role.RAW

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.levels[0].shape[:-1]

    def level(self, k: int) -> np.ndarray:
        return self.levels[k]

    def broadcast_to(self, batch: tuple[int, ...]) -> "GradedElement":
        levels = tuple(
            np.broadcast_to(lv, batch + lv.shape[-1:]) for lv in self.levels
        )
        return GradedElement(self.spec, levels)

    def take(self, idx) -> "GradedElement":
        """Index into the batch axes (e.g. ``elt.take(3)`` or ``elt.take((i, j))``)."""
        levels = tuple(lv[idx] for lv in self.levels)
        return GradedElement(self.spec, levels)

    # -- linear operations ----------------------------------------------------

    def __add__(self, other: "GradedElement") -> "GradedElement":
        _check_spec(self, other)
        levels = tuple(a + b for a, b in zip(self.levels, other.levels))
        return GradedElement(self.spec, levels)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        _check_spec(self, other)
        levels = tuple(a - b for a, b in zip(self.levels, other.levels))
        return GradedElement(self.spec, levels)

    def scale(self, c) -> "GradedElement":
        """Multiply every level by a scalar (or batched scalar array)."""
        c = np.asarray(c, dtype=float)
        levels = tuple(c[..., None] * lv if c.ndim else c * lv for lv in self.levels)
        return GradedElement(self.spec, levels)

    def __neg__(self) -> "GradedElement":
        return self.scale(-1.0)

    def __mul__(self, c) -> "GradedElement":
        if isinstance(c, GradedElement):
            raise TypeError("use mul(g, h) for the tensor product")
        return self.scale(c)

    __rmul__ = __mul__

    # -- comparison helpers ---------------------------------------------------

    def max_abs_diff(self, other: "GradedElement") -> float:
        _check_spec(self, other)
        return max(
            float(np.max(np.abs(a - b))) if a.size else 0.0
            for a, b in zip(self.levels, other.levels)
        )

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(spec: GroupSpec, batch: tuple[int, ...] = ()) -> "GradedElement":
        levels = [np.zeros(batch + (s,)) for s in spec.tensor_level_sizes()]
        levels[0] = np.ones(batch + (1,))
        return GradedElement(spec, tuple(levels))

    @staticmethod
    def from_level1(spec: GroupSpec, v: np.ndarray) -> "GradedElement":
        """Algebra element with the given degree-1 part and nothing else."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != spec.d:
            raise DimensionMismatch(f"level-1 part must have trailing size {spec.d}")
        batch = v.shape[:-1]
        levels = [np.zeros(batch + (s,)) for s in spec.tensor_level_sizes()]
        levels[1] = v
        return GradedElement(spec, tuple(levels))

    @staticmethod
    def random_algebra(
        spec: GroupSpec, rng: np.random.Generator, batch: tuple[int, ...] = (), scale: float = 1.0
    ) -> "GradedElement":
        levels = [np.zeros(batch + (1,))]
        for s in spec.tensor_level_sizes()[1:]:
            levels.append(scale * rng.standard_normal(batch + (s,)))
        return GradedElement(spec, tuple(levels))

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.batch_shape != ():
            raise DimensionMismatch("only unbatched elements serialize to JSON")
        return {
            "spec": self.spec.to_json_dict(),
            "role": self.role.value,
            "levels": [lv.tolist() for lv in self.levels],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "GradedElement":
        spec = GroupSpec.from_json_dict(obj["spec"])
        levels = tuple(np.asarray(lv, dtype=float) for lv in obj["levels"])
        elt = GradedElement(spec, levels)
        declared = json_enum("role", obj.get("role", "raw"), Role)
        if declared is not Role.RAW and elt.role is not declared:
            level = 0 if declared is Role.ALGEBRA else 1
            raise RoleError(f"{declared.value} elements need scalar level {level}")
        return elt


def _check_spec(a: GradedElement, b: GradedElement) -> None:
    if a.spec != b.spec:
        raise SpecMismatch(f"cannot combine elements over {a.spec} and {b.spec}")


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat outer product of two batched levels, the first slot slowest."""
    prod = a[..., :, None] * b[..., None, :]
    return prod.reshape(prod.shape[:-2] + (a.shape[-1] * b.shape[-1],))


def mul(g: GradedElement, h: GradedElement) -> GradedElement:
    """Truncated tensor product: levels beyond degree ``N`` are discarded.

    ``p_k(g h) = sum_{i=0}^{k} p_i(g) (x) p_{k-i}(h)``, summed in increasing
    ``i`` and batched with broadcasting over leading axes; the scalar terms
    ``i = 0`` and ``i = k`` are broadcast products with the scalar levels.
    """
    _check_spec(g, h)
    (g0, *gl), (h0, *hl) = g.levels, h.levels
    levels = [g0 * h0]
    for k in range(1, len(gl) + 1):
        acc = g0 * hl[k - 1]
        for i in range(1, k):
            acc = acc + _outer(gl[i - 1], hl[k - i - 1])
        levels.append(acc + gl[k - 1] * h0)
    return GradedElement(g.spec, tuple(levels))


def _powers(x: list[np.ndarray], ratios: list[float]) -> list[list[np.ndarray]]:
    """Levels of ``t_1 = x`` and ``t_j = r_j t_{j-1} (x) x`` for ``r_2, r_3, ...``,
    from levels ``1..N`` of ``x``: entry ``k - 1`` lists level ``k`` of ``t_1..t_k``.
    The scalar level of ``x`` counts as exactly 0, so levels below ``j`` of ``t_j``
    vanish; they are not formed, nor the terms ``i < j - 1`` of ``t_{j-1} (x) x``."""
    by_level = [[lv] for lv in x]
    for j, r in enumerate(ratios, start=2):
        for k in range(j, len(x) + 1):
            acc = _outer(by_level[j - 2][j - 2], x[k - j])
            for i in range(j, k):
                acc = acc + _outer(by_level[i - 1][j - 2], x[k - i - 1])
            by_level[k - 1].append(r * acc)
    return by_level


def exp_t(x: GradedElement) -> GradedElement:
    """Truncated exponential ``1 + x + x^2/2! + ... + x^N/N!`` of an algebra element.
    The scalar level of ``x`` is read as exactly 0, also when up to ``_ROLE_TOL`` off."""
    if x.role is not Role.ALGEBRA:
        raise RoleError("exp_t needs an algebra element (scalar level 0)")
    by_level = _powers(x.levels[1:], [1.0 / k for k in range(2, x.spec.N + 1)])
    levels = [sum(lvs) for lvs in by_level]
    return GradedElement(x.spec, (np.ones(x.batch_shape + (1,)), *levels))


def log_t(g: GradedElement) -> GradedElement:
    """Truncated logarithm ``sum_k (-1)^(k+1) (g - 1)^k / k`` of a group element.
    The scalar level of ``g`` is read as exactly 1, also when up to ``_ROLE_TOL`` off."""
    if g.role is not Role.GROUP:
        raise RoleError("log_t needs a group element (scalar level 1)")
    by_level = _powers(g.levels[1:], [1.0] * (g.spec.N - 1))
    coeffs = [(-1.0) ** (k + 1) / k for k in range(1, g.spec.N + 1)]
    levels = [sum(c * lv for c, lv in zip(coeffs, lvs)) for lvs in by_level]
    return GradedElement(g.spec, (np.zeros(g.batch_shape + (1,)), *levels))


def commutator(x: GradedElement, y: GradedElement) -> GradedElement:
    """Tensor commutator ``x (x) y - y (x) x`` of two algebra elements."""
    if x.role is not Role.ALGEBRA or y.role is not Role.ALGEBRA:
        raise RoleError("commutator needs algebra elements")
    return mul(x, y) - mul(y, x)


def bch(x: GradedElement, y: GradedElement) -> GradedElement:
    """Combined exponent ``log(exp x * exp y)`` via the exact truncated series."""
    return log_t(mul(exp_t(x), exp_t(y)))


def group_inverse(g: GradedElement) -> GradedElement:
    """Group inverse ``exp(-log g)``."""
    return exp_t(-log_t(g))


def adjoint(g: GradedElement, y: GradedElement) -> GradedElement:
    """Adjoint action ``Ad(g) y = sum_k ad(log g)^k y / k!`` (finite series)."""
    if y.role is not Role.ALGEBRA:
        raise RoleError("adjoint acts on algebra elements")
    x = log_t(g)
    acc = y
    term = y
    for k in range(1, y.spec.N):
        term = commutator(x, term).scale(1.0 / k)
        acc = acc + term
    return acc


def scaled_exponential(x: GradedElement, t: np.ndarray) -> GradedElement:
    """Batched ``exp(t x)`` for a fixed unbatched algebra element ``x``.

    Precomputes the powers ``x^j / j!`` once and combines them with powers of
    the (arbitrarily batched) scalar array ``t``, which is much cheaper than
    batched exponentials when the same direction is reused across a grid.
    """
    if x.role is not Role.ALGEBRA:
        raise RoleError("scaled_exponential needs an algebra element")
    if x.batch_shape != ():
        raise DimensionMismatch("scaled_exponential expects an unbatched direction")
    N = x.spec.N
    t = np.asarray(t, dtype=float)
    by_level = _powers(x.levels[1:], [1.0 / j for j in range(2, N + 1)])
    tj = np.stack([t**j for j in range(N + 1)], axis=-1)  # (*batch, N+1)
    levels = []
    for k, lvs in enumerate(by_level, start=1):
        rows = np.zeros((N + 1, lvs[0].size))  # zero rows j = 0 and j > k: one summation order
        rows[1 : k + 1] = lvs
        levels.append(np.tensordot(tj, rows, axes=([-1], [0])))
    return GradedElement(x.spec, (np.ones(t.shape + (1,)), *levels))
