"""Truncated signatures of piecewise linear paths.

The signature of a path up to level ``N`` is the group element obtained by
multiplying segment exponentials (each straight segment contributes
``exp`` of its increment placed in degree one). All segment exponentials of a
path are formed in one batched step from their closed form, and Chen's
product is taken in log-depth rounds of batched pairwise products. The
log-signature expands the logarithm of the signature in a layered Lie basis,
certifying on the way that it actually lies in the embedded free Lie algebra.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, SpecMismatch
from .lie_basis import Flavor, GroupSpec, LayeredBasis
from .tensor_algebra import GradedElement, log_t, mul

__all__ = [
    "PiecewiseLinearPath",
    "segment_signature",
    "path_signature",
    "log_signature",
    "read_path_csv",
]

#: Tensor coordinates of segment signatures per block of the Chen product.
#: Long paths are multiplied out block by block, so the batched rounds never
#: hold more than one block of segment signatures at a time.
_BLOCK_BUDGET = 100_000


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """A path given by its vertices, one row per vertex, ``d`` columns.

    At least two vertices are required, all finite; consecutive duplicates
    are allowed (zero segments contribute the identity).
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise DimensionMismatch("a path needs a 2-d array with at least two vertices")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise DimensionMismatch(f"path vertex {bad + 1} is not finite: {pts[bad].tolist()}")
        object.__setattr__(self, "points", pts)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def increments(self) -> np.ndarray:
        return np.diff(self.points, axis=0)

    def reversed(self) -> "PiecewiseLinearPath":
        return PiecewiseLinearPath(self.points[::-1].copy())

    def refined(self) -> "PiecewiseLinearPath":
        """The same path with every segment split at its midpoint."""
        pts = self.points
        mids = 0.5 * (pts[:-1] + pts[1:])
        out = np.empty((2 * len(pts) - 1, pts.shape[1]))
        out[0::2] = pts
        out[1::2] = mids
        return PiecewiseLinearPath(out)

    def concatenated(self, other: "PiecewiseLinearPath") -> "PiecewiseLinearPath":
        """Concatenation after translating ``other`` to start at this path's end."""
        if other.d != self.d:
            raise DimensionMismatch("paths must share the ambient dimension")
        shifted = other.points - other.points[0] + self.points[-1]
        return PiecewiseLinearPath(np.vstack([self.points, shifted[1:]]))


def segment_signature(spec: GroupSpec, increments: np.ndarray) -> GradedElement:
    """Signatures of straight segments: ``exp`` of each increment in degree 1.

    ``increments`` has shape ``(..., d)`` and the result has the batch shape
    ``(...)``. Level ``k`` is the closed form ``v^{(x)k} / k!``, built by
    repeated outer products; each row equals
    ``exp_t(GradedElement.from_level1(spec, v))`` bit for bit.
    """
    v = np.asarray(increments, dtype=float)
    if v.ndim == 0 or v.shape[-1] != spec.d:
        raise DimensionMismatch(f"increments must have trailing size {spec.d}")
    batch = v.shape[:-1]
    levels = [np.ones(batch + (1,)), v]
    for k in range(2, spec.N + 1):
        outer = levels[-1][..., :, None] * v[..., None, :]
        levels.append(outer.reshape(batch + (-1,)) * (1.0 / k))
    return GradedElement(spec, tuple(levels))


def _ordered_product(sig: GradedElement) -> GradedElement:
    """Ordered product of a batch ``(m,)`` of group elements.

    Each round multiplies neighbouring pairs in one batched ``mul``; an odd
    last element is carried to the next round unchanged.
    """
    while (m := sig.batch_shape[0]) > 1:
        paired = mul(sig.take(slice(0, m - 1, 2)), sig.take(slice(1, m, 2)))
        if m % 2:
            levels = tuple(
                np.concatenate((p, lv[-1:])) for p, lv in zip(paired.levels, sig.levels)
            )
            paired = GradedElement(sig.spec, levels)
        sig = paired
    return sig.take(0)


def path_signature(spec: GroupSpec, path: PiecewiseLinearPath) -> GradedElement:
    """Signature of the whole path: the ordered product of segment signatures.

    Segments are taken in blocks of about ``_BLOCK_BUDGET`` tensor
    coordinates; each block is multiplied out by :func:`_ordered_product` and
    the block products are folded left to right.
    """
    if path.d != spec.d:
        raise DimensionMismatch(
            f"path lives in R^{path.d} but the spec says d={spec.d}"
        )
    increments = path.increments()
    block = max(1, _BLOCK_BUDGET // sum(spec.tensor_level_sizes()))
    sig = None
    for lo in range(0, len(increments), block):
        part = _ordered_product(segment_signature(spec, increments[lo : lo + block]))
        sig = part if sig is None else mul(sig, part)
    return sig


def log_signature(path: PiecewiseLinearPath, basis: LayeredBasis) -> np.ndarray:
    """Log-signature coordinates in the layered basis, flat Malcev order.

    Requires the free nilpotent flavor: the logarithm of a signature is a Lie
    element, and the expansion certifies this with the membership residual.
    """
    spec = basis.spec
    if spec.flavor is not Flavor.FREE_NILPOTENT:
        raise SpecMismatch("log-signature coordinates need the free nilpotent flavor")
    return basis.flat_coords(log_t(path_signature(spec, path)))


def read_path_csv(source: str | Path | io.TextIOBase, d: int | None = None) -> PiecewiseLinearPath:
    """Read path vertices from CSV: one row per vertex, ``d`` columns.

    An optional single header row (any non-numeric first row) is skipped.
    If ``d`` is given the column count must match.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            rows = list(csv.reader(fh))
    else:
        rows = list(csv.reader(source))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DimensionMismatch("empty path CSV")

    def _parse(row: list[str]) -> list[float] | None:
        try:
            return [float(cell) for cell in row]
        except ValueError:
            return None

    start = 0
    if _parse(rows[0]) is None:
        start = 1
    data = []
    for idx, row in enumerate(rows[start:], start=start + 1):
        vals = _parse(row)
        if vals is None:
            raise DimensionMismatch(f"non-numeric value in CSV row {idx}")
        data.append(vals)
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise DimensionMismatch(f"inconsistent column counts in path CSV: {sorted(widths)}")
    arr = np.asarray(data, dtype=float)
    if d is not None and arr.shape[1] != d:
        raise DimensionMismatch(f"path CSV has {arr.shape[1]} columns, expected {d}")
    return PiecewiseLinearPath(arr)
