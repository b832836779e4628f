"""Coadjoint action, genericity tests, orbit dimensions, and jump sets.

A linear functional on the layered Lie algebra is stored by its coordinates
against a layered basis. The coadjoint action of a group element ``g`` sends
``ell`` to ``ell . Ad(g^-1)``; since everything is nilpotent the adjoint
series is an exact polynomial in the structure constants. A group point, here
and in the transforms, enters through one helper that certifies it as one
unbatched element of the basis's group.

Genericity of a functional is read from its pairing blocks
``B^k[i, j] = ell([X_i^(k), X_j^(N-k)])`` between complementary layers, each
of generic rank ``r_k``; the jump set ``S`` takes the first ``r_k`` indices of
layers ``k`` and ``N-k``. A functional is generic exactly when every leading
``r_k x r_k`` block is nonsingular: ordered by layer, ``D = ell([X_S, X_S])``
is block anti-triangular with these blocks on its anti-diagonal, so this is
``Pf_S(ell) != 0``, the weight of the inversion formula. The generic ranks give
closed-form orbit dimensions of the Malcev-prefix quotients, cross-checked for
a given functional as ranks of row blocks of its skew form.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
    "b_matrix_ranks",
    "is_generic",
    "orbit_dim_quotient_generic",
    "quotient_prefix_len",
    "orbit_dim_numeric_all",
    "full_orbit_dim",
    "jump_sets",
    "sample_generic",
]

#: Relative singular-value threshold for genericity rank decisions.
GENERIC_RANK_RTOL = 1e-8

#: Absolute floor below which singular values never count toward rank.
RANK_FLOOR = 1e-30

#: Draws :func:`sample_generic` makes before it gives up.
SAMPLE_ATTEMPTS = 1000


def _svd_rank(s: np.ndarray, rtol: float, top: np.ndarray | None = None) -> np.ndarray:
    """Number of singular values ``s`` above ``max(rtol * top, RANK_FLOOR)``,
    batched over leading axes; ``top`` defaults to the largest of ``s``."""
    if top is None:
        top = s.max(axis=-1, initial=0.0)
    return (s > np.maximum(rtol * top, RANK_FLOOR)[..., None]).sum(axis=-1)


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

    def coord(self, k: int, i: int) -> float:
        return float(self.flat[self.basis.flat_index(k, i)])

    def evaluate(self, y: GradedElement) -> np.ndarray:
        """Pair with an algebra element (batched) through its certified flat
        coordinates (:meth:`LayeredBasis.flat_coords`, which also checks the
        spec)."""
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
            if (k, i) in coords:
                raise DimensionMismatch(f"coordinate ({k}, {i}) appears in more than one row")
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


def _point_coords(basis: LayeredBasis, x: GradedElement) -> np.ndarray:
    """Flat log coordinates of one unbatched group element, certified by
    :meth:`LayeredBasis.flat_coords` to lie in the basis's group."""
    if x.role is not Role.GROUP or x.batch_shape != ():
        raise DimensionMismatch("the point must be one unbatched group element")
    return basis.flat_coords(log_t(x))


def coadjoint_apply(g: GradedElement, ell: Functional) -> Functional:
    """Coadjoint action: ``(g . ell)(Y) = ell(Ad(g^-1) Y)``."""
    basis = ell.basis
    mat = _ad_series(basis, -_point_coords(basis, g), _exp_series(basis.spec.N))
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


def _check_label(spec: GroupSpec, k: int, m: int) -> None:
    """Raise unless ``(k, m)`` is a quotient label: ``k = 0`` with ``0 <= m <=
    m_N`` (a cut inside the top layer), else a label :func:`_check_km` accepts."""
    if not 0 <= k <= spec.N - 1:
        raise IndexOutOfRange(f"need 0 <= k <= {spec.N - 1}, got k={k}")
    if k:
        _check_km(spec, k, m)
    elif not 0 <= m <= spec.layer_dims()[-1]:
        raise IndexOutOfRange(f"need 0 <= m <= {spec.layer_dims()[-1]} in the top layer")


def dim_km(spec: GroupSpec, k: int, m: int) -> int:
    """Generic rank of the pairing block between layers ``k`` and ``N-k``,
    restricted to the first ``m`` columns: the full block's generic rank
    (:func:`_block_rank`) capped at ``m``."""
    _check_km(spec, k, m)
    return min(_block_rank(spec, k), m)


def _functionals(ell: Functional | Sequence[Functional]) -> tuple[Functional, ...]:
    """The functionals of one call: ``ell`` itself, or the members of a
    sequence, which must be non-empty and share one basis."""
    ells = (ell,) if isinstance(ell, Functional) else tuple(ell)
    if not ells or any(e.basis is not ells[0].basis for e in ells):
        raise DimensionMismatch("a sequence of functionals must be non-empty and share one basis")
    return ells


def _block_ranks(basis: LayeredBasis, skews: np.ndarray) -> dict[int, np.ndarray]:
    """Rank of the leading ``r_k x r_k`` block of each pairing block ``B^k``
    (``k <= N/2``, layers ``k`` and ``N-k`` nonempty, ``r_k`` from
    :func:`_block_rank`) for a stack of skew forms ``(P, n, n)``, one rank
    per form. The rows and columns of the leading block are the jump indices
    of the two layers. The cut is relative to the largest singular value of
    the whole ``B^k``, so rounding noise in a small leading block is not taken
    for rank.
    """
    spec = basis.spec
    N = spec.N
    dims = spec.layer_dims()
    ranks = {}
    for k in range(1, N // 2 + 1):
        if dims[k - 1] and dims[N - k - 1]:
            block = skews[:, basis.layer_slice(k), basis.layer_slice(N - k)]
            r = _block_rank(spec, k)
            s = np.linalg.svd(block, compute_uv=False)
            top = s.max(axis=-1, initial=0.0)
            if (r, r) != block.shape[1:]:
                s = np.linalg.svd(block[:, :r, :r], compute_uv=False)
            ranks[k] = _svd_rank(s, GENERIC_RANK_RTOL, top)
    return ranks


def b_matrix_ranks(ell: Functional) -> dict[int, int]:
    """:func:`_block_ranks` of one functional."""
    return {k: int(r[0]) for k, r in _block_ranks(ell.basis, ell.skew[None]).items()}


def is_generic(ell: Functional | Sequence[Functional]) -> bool | np.ndarray:
    """Whether the functional is in general position: the leading block of
    every pairing block ``B^k`` (:func:`_block_ranks`) is nonsingular, which
    is ``Pf_S(ell) != 0`` over the jump set ``S``.

    A sequence of functionals on one basis is decided in one stacked pass and
    gives a boolean array, one entry per member; one functional is the
    one-member case and gives a ``bool``.
    """
    ells = _functionals(ell)
    basis = ells[0].basis
    generic = np.ones(len(ells), dtype=bool)
    for k, rank in _block_ranks(basis, np.stack([e.skew for e in ells])).items():
        generic &= rank == _block_rank(basis.spec, k)
    return bool(generic[0]) if isinstance(ell, Functional) else generic


def orbit_dim_quotient_generic(spec: GroupSpec, k: int, m: int) -> int:
    """Generic orbit dimension in the quotient keeping layers ``N..N-k+1``
    plus the first ``m`` dual coordinates of layer ``N-k``.

    ``k = 0`` (cuts inside the top layer) always gives zero; otherwise the
    dimension accumulates one generic block rank per completed layer.
    """
    _check_label(spec, k, m)
    if k == 0:
        return 0
    return sum(_block_rank(spec, s) for s in range(1, k)) + dim_km(spec, k, m)


def quotient_prefix_len(basis: LayeredBasis, k: int, m: int) -> int:
    """Flat Malcev prefix length corresponding to the quotient label ``(k, m)``."""
    _check_label(basis.spec, k, m)
    return m if k == 0 else basis.flat_index(basis.spec.N - k, m) + 1


def _prefix_rank(ell: Functional, p: int) -> int:
    """Orbit dimension of ``ell`` restricted to the ideal spanned by the first
    ``p`` Malcev basis elements: the rank of the row block ``ell.skew[:p]``.

    The Jacobian at ``t`` of the dual flow ``t -> exp(t) . ell``, cut to its
    first ``p`` rows, is ``A ell.skew[:p] Psi`` with ``A`` the coadjoint
    action of ``exp(t)`` on the ideal and ``Psi`` the differential of
    ``exp``; both are invertible, so its rank is the same at every ``t``.
    """
    return int(_svd_rank(np.linalg.svd(ell.skew[:p], compute_uv=False), GENERIC_RANK_RTOL))


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


def full_orbit_dim(ell: Functional) -> int:
    """Dimension of the full coadjoint orbit: the rank of the skew form
    ``M[a, b] = ell([X_a, X_b])`` (always even)."""
    return _prefix_rank(ell, ell.basis.dim)


@dataclass(frozen=True)
class JumpData:
    """Jump (``S``) and transverse (``T``) index sets of a generic orbit.

    ``S`` holds the 1-based ``(layer, index)`` positions where the generic
    orbit dimension increases as Malcev prefixes grow; ``T`` is its complement
    and parametrizes the orbit space. The JSON form adds ``dim_table``, the
    generic block ranks ``dim_km(k, m)`` over the quotient labels.
    """

    spec: GroupSpec
    S: tuple[tuple[int, int], ...]
    T: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "S": [list(p) for p in self.S],
            "T": [list(p) for p in self.T],
            "dim_table": [[k, m, dim_km(self.spec, k, m)] for k, m in _quotient_labels(self.spec)],
        }


def jump_sets(basis: LayeredBasis) -> JumpData:
    """Compute the jump/transverse splitting of the dual basis indices.

    ``S`` collects, for each layer ``k <= N-1``, as many leading indices as
    the generic rank of ``B^k`` (:func:`_block_rank`), on every group. Its
    skew matrix ``ell([X_S, X_S])`` is nonsingular exactly at the generic
    functionals (:func:`is_generic`).
    """
    spec = basis.spec
    in_S = [(k, i) for k in range(1, spec.N) for i in range(1, _block_rank(spec, k) + 1)]
    s_flagged = set(in_S)
    s_sorted = tuple(sorted(in_S, key=lambda ki: basis.flat_index(*ki)))
    t_sorted = tuple(
        ki for ki in basis.malcev_order if ki not in s_flagged
    )
    return JumpData(spec, s_sorted, t_sorted)


def sample_generic(basis: LayeredBasis, rng: np.random.Generator) -> Functional:
    """Draw functionals with independent standard normal coordinates until one
    is generic, at most ``SAMPLE_ATTEMPTS`` times."""
    for _ in range(SAMPLE_ATTEMPTS):
        ell = Functional(basis, rng.standard_normal(basis.dim))
        if is_generic(ell):
            return ell
    raise SamplingExhausted(f"no generic functional found in {SAMPLE_ATTEMPTS} attempts")
