"""Polarizing subalgebras for linear functionals.

A polarization at a functional ``ell`` is a subalgebra that is maximal
isotropic for the skew form ``(x, y) -> ell([x, y])``; its codimension is half
the coadjoint orbit dimension, and it is the ingredient that turns a generic
functional into an induced representation.

Two constructions are provided. The generic construction uses the layer
structure directly, one rule per layer ``k`` of a depth-``N`` algebra: the
whole layer above the middle, the kernels of the nested skew blocks in the
middle layer, and below the middle the rows that ``ell`` pairs to zero with
layer ``N - k``. The second construction builds the canonical polarization
from the radicals of the functional restricted to each Malcev-ordered prefix,
which works for every functional, generic or not. On generic functionals the
two span the same subalgebra (Corwin & Greenleaf, *Representations of
Nilpotent Lie Groups and Their Applications I*, 1990). The generic
construction checks what it returns itself: subordination and closure, held
to the fixed ``CLOSURE_TOL``, and the closed-form generic dimension; the
prefix-radical one leaves the check to its caller (:func:`polarization_check`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coadjoint import (
    GENERIC_RANK_RTOL,
    Functional,
    _svd_rank,
    full_orbit_dim,
    is_generic,
    orbit_dim_quotient_generic,
)
from .errors import DimensionMismatch, NotGeneric
from .lie_basis import LayeredBasis

__all__ = [
    "Subalgebra",
    "is_subordinate",
    "generic_polarization",
    "vergne_polarization",
    "polarization_check",
]

#: Absolute tolerance (scaled by data size) for closure/subordination residuals.
CLOSURE_TOL = 1e-10


def _null_rows(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null spaces of a stack of matrices ``(P, a, b)``: rows ``vt (P, b, b)``
    and ranks ``(P,)``, member ``p``'s null space spanned by the orthonormal
    rows ``vt[p, rank[p]:]`` (all of them when the matrices have no rows)."""
    _, s, vt = np.linalg.svd(mats)
    return vt, _svd_rank(s, GENERIC_RANK_RTOL)


def _nested_null_rows(skews: np.ndarray, sl: slice) -> list:
    """:func:`_null_rows` of every leading ``m x m`` block of the diagonal
    block ``sl`` of a stack of skew forms, for ``m = 1 .. size``, each with
    the columns its rows fill."""
    block = skews[:, sl, sl]
    return [
        (*_null_rows(block[:, :m, :m]), slice(sl.start, sl.start + m))
        for m in range(1, sl.stop - sl.start + 1)
    ]


def _orthonormal_rows(basis: LayeredBasis, parts: list) -> list:
    """Orthonormal rows spanning the null rows of ``parts`` (entries ``(vt,
    rank, cols)`` of :func:`_null_rows` with the columns they fill), member by
    member of the stack, as groups ``(members, rows (G, r, n))``.

    Members with the same ranks stack the same shapes, so each group runs one
    SVD per member as a lone member would, and gets the same rows."""
    patterns: dict[tuple, list] = {}
    for p, pattern in enumerate(zip(*(rank.tolist() for _, rank, _ in parts))):
        patterns.setdefault(pattern, []).append(p)
    groups = []
    for pattern, members in patterns.items():
        blocks = []
        for (vt, _, cols), r in zip(parts, pattern):
            block = np.zeros((len(members), vt.shape[1] - r, basis.dim))
            block[..., cols] = vt[members, r:]
            blocks.append(block)
        _, s, vt = np.linalg.svd(np.concatenate(blocks, axis=1), full_matrices=False)
        rank = _svd_rank(s, 1e-12)
        members = np.array(members)
        groups += [(members[rank == r], vt[rank == r, :r]) for r in sorted(set(rank.tolist()))]
    return groups


@dataclass(frozen=True, eq=False)
class Subalgebra:
    """A subspace of the Lie algebra given by orthonormal rows over the
    flat Malcev coordinates, together with closure helpers."""

    basis: LayeredBasis
    vectors: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.basis.dim:
            raise DimensionMismatch(
                f"subalgebra rows must have {self.basis.dim} coordinates"
            )
        object.__setattr__(self, "vectors", arr)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def contains(self, w: np.ndarray) -> np.ndarray:
        """Whether ``w`` lies in the span: its sup-norm distance to the span
        is within ``CLOSURE_TOL`` (batched over leading axes, with one
        least-squares solve for all vectors)."""
        v = self.vectors
        w = np.asarray(w, dtype=float)
        coef = np.linalg.lstsq(v.T, w.reshape(-1, v.shape[1]).T, rcond=None)[0]
        resid = np.abs(w - (v.T @ coef).T.reshape(w.shape)).max(axis=-1)
        return resid <= CLOSURE_TOL * (1.0 + np.abs(w).max(axis=-1))

    def is_bracket_closed(self) -> bool:
        # every ordered pair at once; [v_j, v_i] = -[v_i, v_j] decides the same
        w = self.basis.bracket_coords(self.vectors[:, None], self.vectors[None])
        return bool(np.all(self.contains(w)))


def is_subordinate(sub: Subalgebra, ell: Functional) -> bool:
    """Whether ``ell`` kills all brackets of the subalgebra, to ``CLOSURE_TOL``."""
    if sub.basis is not ell.basis and sub.basis.spec != ell.basis.spec:
        raise DimensionMismatch("subalgebra and functional use different bases")
    pairing = sub.vectors @ ell.skew @ sub.vectors.T
    scale = 1.0 + (float(np.max(np.abs(ell.flat))) if ell.flat.size else 0.0)
    resid = float(np.max(np.abs(pairing))) if pairing.size else 0.0
    return resid <= CLOSURE_TOL * scale


def generic_polarization(ell: Functional, candidate: Subalgebra | None = None) -> Subalgebra:
    """Layer-built polarization at a generic functional.

    Spans, for each layer ``k`` of a depth-``N`` algebra: the whole layer if
    ``2k > N``; the union of the kernels of the nested leading skew blocks of
    the layer if ``2k = N``; and if ``2k < N`` the rows ``v`` of the layer
    with ``ell([X, v]) = 0`` for every ``X`` in layer ``N - k`` (the whole
    layer when that one is empty). Verifies subordination, closure and the
    generic dimension ``dim g - |S|/2`` (in closed form) a posteriori, and
    raises :class:`NotGeneric` if the candidate fails to polarize (it never
    does on the tested families).

    A caller that has already checked :func:`is_generic` and built the
    candidate's rows (with :func:`_layer_rows`, which decides a whole stack of
    functionals at once, as the frequency plane does) may hand them over as
    ``candidate``; it is then checked, not rebuilt.
    """
    if candidate is None:
        candidate = _layer_polarization(ell)
    N, dims = ell.spec.N, ell.spec.layer_dims()
    expected = ell.basis.dim - orbit_dim_quotient_generic(ell.spec, N - 1, dims[0]) // 2
    polarizes = is_subordinate(candidate, ell) and candidate.is_bracket_closed()
    if not (polarizes and candidate.dim == expected):
        raise NotGeneric(
            "layer-built candidate failed the polarization checks "
            f"(dim {candidate.dim}, expected {expected})"
        )
    return candidate


def _layer_polarization(ell: Functional) -> Subalgebra:
    """The layer-built candidate of :func:`generic_polarization` at one
    functional, unchecked, like :func:`vergne_polarization`; a non-generic
    functional raises :class:`NotGeneric`."""
    if not is_generic(ell):
        raise NotGeneric("generic_polarization needs a generic functional")
    [(_, rows)] = _layer_rows(ell.basis, ell.skew[None])
    return Subalgebra(ell.basis, rows[0])


def _layer_rows(basis: LayeredBasis, skews: np.ndarray) -> list:
    """Orthonormal rows of the layer-built candidate of
    :func:`generic_polarization`, unchecked, at each of a stack of skew forms
    ``(P, n, n)``, grouped as in :func:`_orthonormal_rows`; one functional is
    the one-member stack ``ell.skew[None]``."""
    N = basis.spec.N
    parts = []
    # the layers above the middle, then the middle, then the layers below
    for k in [*range(N // 2 + 1, N + 1), *range(N // 2, 0, -1)]:
        sl = basis.layer_slice(k)
        if 2 * k > N:
            eye = np.eye(sl.stop - sl.start)
            whole = np.broadcast_to(eye, (len(skews),) + eye.shape)
            parts.append((whole, np.zeros(len(skews), dtype=int), sl))
        elif 2 * k == N:
            parts += _nested_null_rows(skews, sl)
        else:
            parts.append((*_null_rows(skews[:, basis.layer_slice(N - k), sl]), sl))
    return _orthonormal_rows(basis, parts)


def vergne_polarization(ell: Functional) -> Subalgebra:
    """Canonical polarization from radicals of Malcev-prefix restrictions.

    Sums, over every prefix of the Malcev ordering, the null space of the
    skew form of ``ell`` restricted to that prefix. Works for arbitrary
    functionals; for the zero functional it returns the whole algebra.
    """
    parts = _nested_null_rows(ell.skew[None], slice(0, ell.basis.dim))
    [(_, rows)] = _orthonormal_rows(ell.basis, parts)
    return Subalgebra(ell.basis, rows[0])


def polarization_check(sub: Subalgebra, ell: Functional) -> dict:
    """Report on whether a subalgebra polarizes a functional.

    Checks subordination, bracket closure, and that the dimension equals
    ``dim g - (full orbit dim) / 2``, a numeric rank (:func:`full_orbit_dim`).
    """
    subordinate = is_subordinate(sub, ell)
    closed = sub.is_bracket_closed()
    expected = ell.basis.dim - full_orbit_dim(ell) // 2
    return {
        "subordinate": bool(subordinate),
        "bracket_closed": bool(closed),
        "dim": int(sub.dim),
        "expected_dim": int(expected),
        "passed": bool(subordinate and closed and sub.dim == expected),
    }
