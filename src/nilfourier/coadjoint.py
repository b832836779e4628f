"""Coadjoint action, genericity tests, orbit dimensions, and jump sets.

A linear functional on the layered Lie algebra is stored by its coordinates
against a layered basis. The coadjoint action of a group element ``g`` sends
``ell`` to ``ell . Ad(g^-1)``; since everything is nilpotent the adjoint
series is an exact polynomial in the structure constants.

Genericity of a functional is decided by the ranks of its pairing blocks
``B^k[i, j] = ell([X_i^(k), X_j^(N-k)])`` between complementary layers: a
functional is generic exactly when every block reaches the maximal rank
possible for its shape (with the skew middle block capped at the nearest even
rank). The same ranks drive closed-form orbit dimensions of the quotient
groups obtained by cutting the Malcev ordering and the jump/transverse index
sets that parametrize generic orbits. The orbit dimensions of a given
functional are cross-checked as ranks of row blocks of its skew form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    SamplingExhausted,
    SpecMismatch,
)
from .lie_basis import GroupSpec, LayeredBasis, build_layered_basis, json_number
from .tensor_algebra import GradedElement, Role, log_t

__all__ = [
    "Functional",
    "JumpData",
    "coadjoint_apply",
    "dim_km",
    "is_generic",
    "orbit_dim_quotient_generic",
    "orbit_dim_numeric",
    "orbit_dim_numeric_all",
    "full_orbit_dim",
    "jump_sets",
    "sample_generic",
]

#: Relative singular-value threshold for genericity rank decisions.
GENERIC_RANK_RTOL = 1e-8

#: Absolute floor below which singular values never count toward rank.
RANK_FLOOR = 1e-30


def _rank(mat: np.ndarray, rtol: float) -> int:
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    cutoff = max(rtol * float(s[0]), RANK_FLOOR)
    return int(np.sum(s > cutoff))


@dataclass(frozen=True, eq=False)
class Functional:
    """A linear functional in layered-basis coordinates (flat Malcev order).

    ``flat`` is a read-only copy of the given coordinates, and ``skew`` the
    skew form ``skew[a, b] = ell([X_a, X_b])``, built once at construction.
    """

    basis: LayeredBasis
    flat: np.ndarray
    skew: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.flat, dtype=float)
        if arr.shape != (self.basis.dim,):
            raise DimensionMismatch(
                f"functional needs {self.basis.dim} coordinates, got {arr.shape}"
            )
        arr.flags.writeable = False
        skew = self.basis.structure_tensor @ arr
        skew.flags.writeable = False
        object.__setattr__(self, "flat", arr)
        object.__setattr__(self, "skew", skew)

    @property
    def spec(self) -> GroupSpec:
        return self.basis.spec

    @staticmethod
    def from_coords(basis: LayeredBasis, coords: dict[tuple[int, int], float]) -> "Functional":
        flat = np.zeros(basis.dim)
        for (k, i), value in coords.items():
            flat[basis.flat_index(k, i)] = float(value)
        return Functional(basis, flat)

    def coords(self) -> dict[tuple[int, int], float]:
        """Nonzero coordinates keyed by 1-based ``(layer, index)``."""
        out = {}
        for a, value in enumerate(self.flat):
            if value != 0.0:
                out[self.basis.layer_of_flat(a)] = float(value)
        return out

    def coord(self, k: int, i: int) -> float:
        return float(self.flat[self.basis.flat_index(k, i)])

    def evaluate(self, y: GradedElement) -> np.ndarray:
        """Pair with an algebra element (batched) through its certified flat
        coordinates (:meth:`LayeredBasis.flat_coords`)."""
        if y.spec != self.spec:
            raise SpecMismatch("functional and element specs differ")
        if y.role is not Role.ALGEBRA:
            raise SpecMismatch("functionals pair with algebra elements")
        return self.basis.flat_coords(y) @ self.flat

    def to_json_dict(self) -> dict:
        coords = [
            [k, i, float(self.flat[self.basis.flat_index(k, i)])]
            for k in range(1, self.spec.N + 1)
            for i in range(1, self.basis.layers[k - 1].dim + 1)
            if self.flat[self.basis.flat_index(k, i)] != 0.0
        ]
        return {"spec": self.spec.to_json_dict(), "coords": coords}

    @staticmethod
    def from_json_dict(obj: dict, basis: LayeredBasis | None = None) -> "Functional":
        spec = GroupSpec.from_json_dict(obj["spec"])
        if basis is None:
            basis = build_layered_basis(spec)
        elif basis.spec != spec:
            raise SpecMismatch("supplied basis does not match the functional's spec")
        coords = {}
        for row in obj["coords"]:
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                raise DimensionMismatch(f"a coordinate row is [k, i, value], got {row!r}")
            k, i, value = (
                json_number(f"{name} in coordinate row {row!r}", v, cast)
                for name, v, cast in zip(("k", "i", "value"), row, (int, int, float))
            )
            coords[(k, i)] = value
        return Functional.from_coords(basis, coords)


def _exp_series(N: int) -> list[float]:
    """Coefficients ``1/k!`` of ``e^z`` through degree ``N - 1``."""
    return [1.0 / math.factorial(k) for k in range(N)]


def _bernoulli_series(N: int) -> list[float]:
    """Coefficients of ``z / (e^z - 1)`` through degree ``N - 1``: the
    inverse series of ``(e^z - 1) / z = sum_k z^k / (k + 1)!``."""
    c = [1.0]
    for m in range(1, N):
        c.append(-sum(c[j] / math.factorial(m - j + 1) for j in range(m)))
    return c


def _ad_series(basis: LayeredBasis, x_flat: np.ndarray, coeffs: list[float]) -> np.ndarray:
    """Matrix of ``sum_k coeffs[k] ad(x)^k`` on flat coordinates (batched:
    ``(..., n) -> (..., n, n)``). ``ad(x)^N = 0``, so the sum is exact with
    the coefficients through degree ``N - 1``: ``Ad(exp x)`` takes
    :func:`_exp_series`, the differential of ``log`` :func:`_bernoulli_series`."""
    ad = basis.ad_matrix(x_flat)
    term = np.broadcast_to(np.eye(basis.dim), ad.shape)
    result = coeffs[0] * term
    for c in coeffs[1 : basis.spec.N]:
        term = ad @ term
        result = result + c * term
    return result


def coadjoint_apply(g: GradedElement, ell: Functional) -> Functional:
    """Coadjoint action: ``(g . ell)(Y) = ell(Ad(g^-1) Y)``."""
    basis = ell.basis
    if g.spec != basis.spec:
        raise SpecMismatch("group element and functional specs differ")
    if g.role is not Role.GROUP:
        raise SpecMismatch("coadjoint_apply needs a group element")
    if g.batch_shape != ():
        raise DimensionMismatch("coadjoint_apply expects an unbatched group element")
    x = basis.flat_coords(log_t(g))
    mat = _ad_series(basis, -x, _exp_series(basis.spec.N))
    return Functional(basis, mat.T @ ell.flat)


def _block_rank(spec: GroupSpec, k: int) -> int:
    """Generic rank of the full pairing block ``B^k`` between layers ``k`` and
    ``N-k``: ``min(m_k, m_{N-k})`` (0 when a layer is empty), rounded down to
    even for the skew middle block of an even ``N``."""
    dims = spec.layer_dims()
    rank = min(dims[k - 1], dims[spec.N - k - 1])
    return rank - rank % 2 if 2 * k == spec.N else rank


def _quotient_labels(spec: GroupSpec) -> list[tuple[int, int]]:
    """Quotient labels ``(k, m)`` with ``1 <= k <= N-1`` and ``1 <= m <= m_{N-k}``."""
    dims = spec.layer_dims()
    return [(k, m) for k in range(1, spec.N) for m in range(1, dims[spec.N - k - 1] + 1)]


def _check_km(spec: GroupSpec, k: int, m: int) -> None:
    """Raise unless ``1 <= k <= N-1`` and ``1 <= m <= m_{N-k}``."""
    dims = spec.layer_dims()
    N = spec.N
    if not 1 <= k <= N - 1:
        raise IndexOutOfRange(f"need 1 <= k <= {N - 1}, got k={k}")
    if not 1 <= m <= dims[N - k - 1]:
        raise IndexOutOfRange(
            f"need 1 <= m <= {dims[N - k - 1]} for layer {N - k}, got m={m}"
        )


def dim_km(spec: GroupSpec, k: int, m: int) -> int:
    """Generic rank of the pairing block between layers ``k`` and ``N-k``,
    restricted to the first ``m`` columns: the full block's generic rank
    (:func:`_block_rank`) capped at ``m``."""
    _check_km(spec, k, m)
    return min(_block_rank(spec, k), m)


def b_matrix_ranks(ell: Functional) -> dict[int, int]:
    """Rank of the full pairing block for each ``k = 1 .. floor(N/2)`` whose
    layers ``k`` and ``N-k`` are both nonempty."""
    basis = ell.basis
    N = basis.spec.N
    dims = basis.spec.layer_dims()
    return {
        k: _rank(ell.skew[basis.layer_slice(k), basis.layer_slice(N - k)], GENERIC_RANK_RTOL)
        for k in range(1, N // 2 + 1)
        if dims[k - 1] and dims[N - k - 1]
    }


def is_generic(ell: Functional) -> bool:
    """Whether the functional sits on a maximal-dimension pattern of orbits.

    Generic means every pairing block ``B^k`` (k up to ``floor(N/2)``) attains
    its maximal possible rank. The one degenerate case (d=2, N=3) is decided
    instead by the coordinate on the bracket word ``[1,[1,2]]`` being nonzero,
    which is what the hand analysis of its orbits gives.
    """
    spec = ell.spec
    if spec.degenerate:
        scale = float(np.max(np.abs(ell.flat))) if ell.flat.size else 0.0
        cutoff = max(GENERIC_RANK_RTOL * scale, RANK_FLOOR)
        return abs(ell.coord(3, 1)) > cutoff
    return all(rank == _block_rank(spec, k) for k, rank in b_matrix_ranks(ell).items())


def orbit_dim_quotient_generic(spec: GroupSpec, k: int, m: int) -> int:
    """Generic orbit dimension in the quotient keeping layers ``N..N-k+1``
    plus the first ``m`` dual coordinates of layer ``N-k``.

    ``k = 0`` (cuts inside the top layer) always gives zero; otherwise the
    dimension accumulates one generic block rank per completed layer.
    """
    if k == 0:
        return 0
    if not 1 <= k <= spec.N - 1:
        raise IndexOutOfRange(f"need 0 <= k <= {spec.N - 1}, got k={k}")
    return sum(_block_rank(spec, s) for s in range(1, k)) + dim_km(spec, k, m)


def quotient_prefix_len(basis: LayeredBasis, k: int, m: int) -> int:
    """Flat Malcev prefix length corresponding to the quotient label ``(k, m)``."""
    spec = basis.spec
    dims = spec.layer_dims()
    if k == 0:
        if not 0 <= m <= dims[spec.N - 1]:
            raise IndexOutOfRange(f"need 0 <= m <= {dims[spec.N - 1]} in the top layer")
        return m
    if not 1 <= k <= spec.N - 1:
        raise IndexOutOfRange(f"need 0 <= k <= {spec.N - 1}, got k={k}")
    _check_km(spec, k, m)
    return basis.flat_index(spec.N - k, m) + 1


def _prefix_rank(ell: Functional, p: int) -> int:
    """Orbit dimension of ``ell`` restricted to the ideal spanned by the first
    ``p`` Malcev basis elements: the rank of the row block ``ell.skew[:p]``.

    The Jacobian at ``t`` of the dual flow ``t -> exp(t) . ell``, cut to its
    first ``p`` rows, is ``A ell.skew[:p] Psi`` with ``A`` the coadjoint
    action of ``exp(t)`` on the ideal and ``Psi`` the differential of
    ``exp``; both are invertible, so its rank is the same at every ``t``.
    """
    return _rank(ell.skew[:p], GENERIC_RANK_RTOL)


def orbit_dim_numeric_all(ell: Functional) -> dict[tuple[int, int], int]:
    """Orbit dimensions of every Malcev-prefix quotient at once, as ranks of
    the row blocks of the skew form (:func:`_prefix_rank`).

    Keys are quotient labels ``(k, m)``; the full dual is included under
    ``(N - 1, m_1)``.
    """
    basis = ell.basis
    spec = basis.spec
    labels = [(0, spec.layer_dims()[spec.N - 1])] + _quotient_labels(spec)
    return {(k, m): _prefix_rank(ell, quotient_prefix_len(basis, k, m)) for k, m in labels}


def orbit_dim_numeric(
    ell: Functional,
    k: int | None = None,
    m: int | None = None,
    *,
    prefix_len: int | None = None,
) -> int:
    """Orbit dimension of one Malcev-prefix quotient (:func:`_prefix_rank`).

    With no quotient arguments this is the dimension of the full orbit;
    ``(k, m)`` selects a layer quotient and ``prefix_len`` an arbitrary
    Malcev-prefix quotient.
    """
    basis = ell.basis
    if prefix_len is None:
        if k is None:
            prefix_len = basis.dim
        else:
            if m is None:
                raise IndexOutOfRange("orbit_dim_numeric needs m alongside k")
            prefix_len = quotient_prefix_len(basis, k, m)
    if not 0 <= prefix_len <= basis.dim:
        raise IndexOutOfRange(f"prefix length {prefix_len} outside 0..{basis.dim}")
    return _prefix_rank(ell, prefix_len)


def full_orbit_dim(ell: Functional) -> int:
    """Dimension of the full coadjoint orbit: the rank of the skew form
    ``M[a, b] = ell([X_a, X_b])`` (always even)."""
    return _prefix_rank(ell, ell.basis.dim)


@dataclass(frozen=True)
class JumpData:
    """Jump (``S``) and transverse (``T``) index sets of a generic orbit.

    ``S`` holds the 1-based ``(layer, index)`` positions where the generic
    orbit dimension increases as Malcev prefixes grow; ``T`` is its complement
    and parametrizes the orbit space. ``dim_table`` records the generic block
    ranks ``dim_km(k, m)``. ``degenerate`` flags the hand-derived (2, 3) case.
    """

    spec: GroupSpec
    S: tuple[tuple[int, int], ...]
    T: tuple[tuple[int, int], ...]
    dim_table: dict = field(default_factory=dict)

    @property
    def degenerate(self) -> bool:
        return self.spec.degenerate

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "S": [list(p) for p in self.S],
            "T": [list(p) for p in self.T],
            "dim_table": [[k, m, v] for (k, m), v in sorted(self.dim_table.items())],
            "degenerate": self.degenerate,
        }


def jump_sets(basis: LayeredBasis) -> JumpData:
    """Compute the jump/transverse splitting of the dual basis indices.

    ``S`` collects, for each layer ``k <= N-1``, as many leading indices as
    the generic rank of ``B^k`` (:func:`_block_rank`). For the degenerate
    (2, 3) algebra (flagged via ``degenerate=True``) this is also what the
    hand analysis of its orbits gives.
    """
    spec = basis.spec
    dim_table = {(k, m): dim_km(spec, k, m) for k, m in _quotient_labels(spec)}
    in_S = [(k, i) for k in range(1, spec.N) for i in range(1, _block_rank(spec, k) + 1)]
    s_flagged = set(in_S)
    s_sorted = tuple(sorted(in_S, key=lambda ki: basis.flat_index(*ki)))
    t_sorted = tuple(
        ki for ki in basis.malcev_order if ki not in s_flagged
    )
    data = JumpData(spec, s_sorted, t_sorted, dim_table)
    assert len(data.S) % 2 == 0, "jump sets always pair up"
    if spec.N % 2 == 1:
        half = range(1, (spec.N + 1) // 2)
        expected = 2 * sum(_block_rank(spec, k) for k in half)
        assert len(data.S) == expected
    return data


def sample_generic(
    basis: LayeredBasis,
    rng: np.random.Generator | None = None,
    scale: float = 1.0,
    max_attempts: int = 1000,
) -> Functional:
    """Draw functionals with independent normal coordinates until one is generic."""
    if rng is None:
        rng = np.random.default_rng()
    for _ in range(max_attempts):
        ell = Functional(basis, scale * rng.standard_normal(basis.dim))
        if is_generic(ell):
            return ell
    raise SamplingExhausted(
        f"no generic functional found in {max_attempts} attempts"
    )
