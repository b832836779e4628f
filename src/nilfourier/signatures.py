"""Truncated signatures of piecewise linear paths.

The signature of a path up to level ``N`` is the group element obtained by
multiplying segment exponentials (each straight segment contributes
``exp`` of its increment placed in degree one). The log-signature expands the
logarithm of the signature in a layered Lie basis, certifying on the way that
it actually lies in the embedded free Lie algebra.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coadjoint import _log_coords
from .errors import DimensionMismatch, SpecMismatch
from .lie_basis import Flavor, GroupSpec, LayeredBasis
from .tensor_algebra import GradedElement, exp_t, mul

__all__ = [
    "PiecewiseLinearPath",
    "segment_signature",
    "path_signature",
    "log_signature",
    "read_path_csv",
]


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """A path given by its vertices, one row per vertex, ``d`` columns.

    At least two vertices are required; consecutive duplicates are allowed
    (zero segments contribute the identity).
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise DimensionMismatch("a path needs a 2-d array with at least two vertices")
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


def segment_signature(spec: GroupSpec, increment: np.ndarray) -> GradedElement:
    """Signature of one straight segment: ``exp`` of the increment in degree 1."""
    increment = np.asarray(increment, dtype=float)
    if increment.shape != (spec.d,):
        raise DimensionMismatch(f"increment must have shape ({spec.d},)")
    return exp_t(GradedElement.from_level1(spec, increment))


def path_signature(spec: GroupSpec, path: PiecewiseLinearPath) -> GradedElement:
    """Signature of the whole path: the ordered product of segment signatures."""
    if path.d != spec.d:
        raise DimensionMismatch(
            f"path lives in R^{path.d} but the spec says d={spec.d}"
        )
    sig = GradedElement.identity(spec)
    for inc in path.increments():
        sig = mul(sig, segment_signature(spec, inc))
    return sig


def log_signature(path: PiecewiseLinearPath, basis: LayeredBasis) -> np.ndarray:
    """Log-signature coordinates in the layered basis, flat Malcev order.

    Requires the free nilpotent flavor: the logarithm of a signature is a Lie
    element, and the expansion certifies this with the membership residual.
    """
    spec = basis.spec
    if spec.flavor is not Flavor.FREE_NILPOTENT:
        raise SpecMismatch("log-signature coordinates need the free nilpotent flavor")
    return _log_coords(basis, path_signature(spec, path))


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
