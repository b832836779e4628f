"""Polarizing subalgebras for linear functionals.

A polarization at a functional ``ell`` is a subalgebra that is maximal
isotropic for the skew form ``(x, y) -> ell([x, y])``; its codimension is half
the coadjoint orbit dimension, and it is the ingredient that turns a generic
functional into an induced representation.

Two constructions are provided. The generic construction uses the layer
structure directly: for odd depth the top half of the layers already
polarizes every generic functional, and for even depth the middle layer
contributes the kernels of its nested skew blocks. The second construction
builds the canonical polarization from the radicals of the functional
restricted to each Malcev-ordered prefix, which works for every functional
(generic or not) and in the one degenerate low-level case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coadjoint import (
    GENERIC_RANK_RTOL,
    RANK_FLOOR,
    Functional,
    full_orbit_dim,
    is_generic,
)
from .errors import DegenerateSpec, DimensionMismatch, NotGeneric
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


def _orthonormal_rows(vectors: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of ``vectors``."""
    if vectors.size == 0:
        return vectors.reshape(0, vectors.shape[-1])
    u, s, vt = np.linalg.svd(vectors, full_matrices=False)
    keep = s > max(rtol * s[0], RANK_FLOOR) if s.size else np.zeros(0, bool)
    return vt[keep]


def _nested_null_rows(skew: np.ndarray) -> np.ndarray:
    """Null vectors of every leading ``m x m`` block of a skew matrix, as
    rows zero-padded to its full size, for ``m = 1 .. size``."""
    size = skew.shape[0]
    rows = []
    for m in range(1, size + 1):
        _, s, vt = np.linalg.svd(skew[:m, :m])
        for v in vt[s <= max(GENERIC_RANK_RTOL * s[0], RANK_FLOOR)]:
            e = np.zeros(size)
            e[:m] = v
            rows.append(e)
    return np.asarray(rows).reshape(len(rows), size)


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

    def project_residual(self, w: np.ndarray) -> np.ndarray:
        """Sup-norm distance from ``w`` to the span of the rows (batched over
        leading axes, with one least-squares solve for all vectors)."""
        v = self.vectors
        w = np.asarray(w, dtype=float)
        coef = np.linalg.lstsq(v.T, w.reshape(-1, v.shape[1]).T, rcond=None)[0]
        return np.abs(w - (v.T @ coef).T.reshape(w.shape)).max(axis=-1)

    def contains(self, w: np.ndarray, tol: float = CLOSURE_TOL) -> np.ndarray:
        """Whether ``w`` lies in the span (batched over leading axes)."""
        w = np.asarray(w, dtype=float)
        return self.project_residual(w) <= tol * (1.0 + np.abs(w).max(axis=-1))

    def is_bracket_closed(self, tol: float = CLOSURE_TOL) -> bool:
        # every ordered pair at once; [v_j, v_i] = -[v_i, v_j] decides the same
        w = self.basis.bracket_coords(self.vectors[:, None], self.vectors[None])
        return bool(np.all(self.contains(w, tol)))

    def layer_dims(self) -> list[int]:
        """Dimension of the projection of the span onto each layer."""
        out = []
        for k in range(1, self.basis.spec.N + 1):
            block = self.vectors[:, self.basis.layer_slice(k)]
            out.append(int(np.linalg.matrix_rank(block)) if block.size else 0)
        return out

    def is_layer_graded(self) -> bool:
        return sum(self.layer_dims()) == self.dim


def is_subordinate(sub: Subalgebra, ell: Functional, tol: float = CLOSURE_TOL) -> bool:
    """Whether ``ell`` kills all brackets of the subalgebra."""
    if sub.basis is not ell.basis and sub.basis.spec != ell.basis.spec:
        raise DimensionMismatch("subalgebra and functional use different bases")
    pairing = sub.vectors @ ell.skew @ sub.vectors.T
    scale = 1.0 + (float(np.max(np.abs(ell.flat))) if ell.flat.size else 0.0)
    resid = float(np.max(np.abs(pairing))) if pairing.size else 0.0
    return resid <= tol * scale


def generic_polarization(ell: Functional) -> Subalgebra:
    """Layer-built polarization at a generic functional.

    The span of all layers above the middle and of every layer whose
    complementary layer is empty (``d = 1``); at even depth also the span of
    the union of the kernels of the nested leading skew blocks of the middle
    layer. Verifies subordination, closure, and
    the expected dimension a posteriori and raises :class:`NotGeneric` if the
    kernel union fails to polarize (it never does on the tested families).
    """
    return _checked_generic_polarization(ell)[0]


def _checked_generic_polarization(ell: Functional) -> tuple[Subalgebra, dict]:
    """:func:`generic_polarization` and the :func:`polarization_check` report
    it passed."""
    basis = ell.basis
    spec = basis.spec
    if spec.degenerate:
        raise DegenerateSpec(
            "the (d=2, N=3) algebra has no layer-built generic polarization; "
            "use vergne_polarization"
        )
    if not is_generic(ell):
        raise NotGeneric("generic_polarization needs a generic functional")
    n = basis.dim
    dims = spec.layer_dims()
    # the layers above the middle, and those that pair with an empty layer
    kept = [k for k in range(1, spec.N + 1) if 2 * k > spec.N or dims[spec.N - k - 1] == 0]
    rows = np.concatenate([np.eye(n)[basis.layer_slice(k)] for k in kept])
    if spec.N % 2 == 0:
        sl = basis.layer_slice(spec.N // 2)
        null_rows = _nested_null_rows(ell.skew[sl, sl])
        middle = np.zeros((null_rows.shape[0], n))
        middle[:, sl] = null_rows
        rows = np.concatenate((rows, middle))
    sub = Subalgebra(basis, _orthonormal_rows(rows))
    report = polarization_check(sub, ell)
    if not report["passed"]:
        raise NotGeneric(
            "layer-built candidate failed the polarization checks "
            f"(dim {sub.dim}, expected {report['expected_dim']})"
        )
    return sub, report


def vergne_polarization(ell: Functional) -> Subalgebra:
    """Canonical polarization from radicals of Malcev-prefix restrictions.

    Sums, over every prefix of the Malcev ordering, the null space of the
    skew form of ``ell`` restricted to that prefix. Works for arbitrary
    functionals; for the zero functional it returns the whole algebra.
    """
    return Subalgebra(ell.basis, _orthonormal_rows(_nested_null_rows(ell.skew)))


def polarization_check(sub: Subalgebra, ell: Functional) -> dict:
    """Report on whether a subalgebra polarizes a functional.

    Checks subordination, bracket closure, and that the dimension equals
    ``dim g - (full orbit dim) / 2``.
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
