"""Truncated signatures of piecewise linear paths.

The signature of a path up to level ``N`` is the group element obtained by
multiplying segment exponentials (each straight segment contributes
``exp`` of its increment placed in degree one). All segment exponentials of a
path are formed in one batched step from their closed form, and Chen's
product is their left fold, taken level by level as prefix sums over the
segments on plain level arrays ``1..N``; the scalar level is exactly 1 and
stays implicit. The log-signature expands the logarithm of the signature in a
layered Lie basis, certifying on the way that it actually lies in the embedded
free Lie algebra. A path's width is checked against the spec in one place,
:func:`path_signature`, which every signature and log-signature goes through.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, SpecMismatch
from .lie_basis import Flavor, GroupSpec, LayeredBasis
from .tensor_algebra import GradedElement, _outer, log_t

__all__ = [
    "PiecewiseLinearPath",
    "segment_signature",
    "path_signature",
    "log_signature",
    "read_path_csv",
]

#: Tensor coordinates of segment signatures per block of the left fold: long
#: paths are folded block by block, so the prefix sums hold one block at a time.
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
        levels.append(_outer(levels[-1], v) * (1.0 / k))
    return GradedElement(spec, tuple(levels))


def path_signature(spec: GroupSpec, path: PiecewiseLinearPath) -> GradedElement:
    """Signature of the whole path: the left fold ``((E_1 E_2) E_3) ...`` of its
    segment signatures ``E_j``, level by level over all segments at once.

    By Chen's identity level ``k`` of the prefix ``S_j = S_{j-1} E_j`` is that
    of ``S_{j-1}`` plus ``E_j^{(k)} + sum_{i=1}^{k-1} S_{j-1}^{(i)} (x) E_j^{(k-i)}``,
    so it is one cumulative sum over the segments once levels ``1..k-1`` are
    known. The terms are added in the order of ``mul``, so the result is the
    fold by ``mul`` bit for bit. Segments go in blocks of about ``_BLOCK_BUDGET``
    tensor coordinates, each block's sums continuing from the signature so far.
    """
    if path.d != spec.d:
        raise DimensionMismatch(f"path lives in R^{path.d} but the spec says d={spec.d}")
    increments = path.increments()
    block = max(1, _BLOCK_BUDGET // sum(spec.tensor_level_sizes()))
    sig = [np.zeros(size) for size in spec.tensor_level_sizes()[1:]]
    for lo in range(0, len(increments), block):
        seg = segment_signature(spec, increments[lo : lo + block]).levels[1:]
        prefix = []  # prefix[i - 1][j]: level i of the signature before segment j + 1
        for k in range(1, spec.N + 1):
            delta = seg[k - 1]
            for i in range(1, k):
                delta = delta + _outer(prefix[i - 1][:-1], seg[k - i - 1])
            rows = np.concatenate((sig[k - 1][None], delta))
            prefix.append(np.cumsum(rows, axis=0, out=rows))
        sig = [lv[-1] for lv in prefix]
    return GradedElement(spec, (np.ones(1), *sig))


def log_signature(path: PiecewiseLinearPath, basis: LayeredBasis) -> np.ndarray:
    """Log-signature coordinates in the layered basis, flat Malcev order.

    Requires the free nilpotent flavor: the logarithm of a signature is a Lie
    element, and the expansion certifies this with the membership residual.
    """
    spec = basis.spec
    if spec.flavor is not Flavor.FREE_NILPOTENT:
        raise SpecMismatch("log-signature coordinates need the free nilpotent flavor")
    return basis.flat_coords(log_t(path_signature(spec, path)))


def read_path_csv(source: str | Path | io.TextIOBase) -> PiecewiseLinearPath:
    """Read path vertices from CSV: one row per vertex, one column per
    coordinate, the same count in every row.

    An optional single header row (any non-numeric first row) is skipped. The
    width is checked against a spec where the path meets one, in
    :func:`path_signature`.
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
    return PiecewiseLinearPath(np.asarray(data, dtype=float))
