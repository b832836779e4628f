"""Graded bases for free nilpotent Lie algebras of truncated tensors.

This module builds explicit layered bases of the Lie algebra of the group of
level-``N`` truncated tensors over ``R^d``:

* the free nilpotent flavor uses bracket words (Lyndon words with their
  standard-factorization bracketing by default, or a user-supplied word list),
  embedded as antisymmetrized coordinate tensors of each degree;
* the full tensor flavor uses all coordinate tensors of each degree.

Alongside the embeddings the module computes structure constants, the strong
Malcev ordering (top layer first) whose every prefix spans an ideal, and
expansion of arbitrary tensors in the embedded basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DegreeMismatch,
    DependentBasis,
    DimensionMismatch,
    IndexOutOfRange,
    NotInLieImage,
    SpecMismatch,
)

__all__ = [
    "Flavor",
    "GroupSpec",
    "BracketTree",
    "Layer",
    "LayeredBasis",
    "witt_dimension",
    "lyndon_words",
    "lyndon_bracket",
    "build_layered_basis",
    "left_normed_degree3_words",
]

#: Relative residual tolerance for membership in the embedded Lie image.
EXPAND_RTOL = 1e-10

#: Relative singular-value cutoff for declaring an embedding rank deficient.
RANK_RTOL = 1e-10

_MAX_LEVEL = 20


def json_number(name: str, value, cast: type):
    """``value`` read from JSON as ``cast``: an ``int`` field takes only a JSON
    integer and a ``float`` field any JSON number. Booleans are neither."""
    allowed = (int,) if cast is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        kind = "an integer" if cast is int else "a number"
        raise DimensionMismatch(f"{name} must be {kind}, got {value!r}")
    return cast(value)


def json_enum(name: str, value, enum: type[Enum]):
    """``value`` read from JSON as the member of ``enum`` with that value."""
    try:
        return enum(value)
    except ValueError:
        allowed = ", ".join(repr(member.value) for member in enum)
        raise DimensionMismatch(f"{name} must be one of {allowed}, got {value!r}") from None


class Flavor(str, Enum):
    """Which Lie algebra the layered basis spans."""

    FREE_NILPOTENT = "FreeNilpotent"
    FULL_TENSOR = "FullTensor"


def _mobius(n: int) -> int:
    """Moebius function via trial factorization (n is tiny here)."""
    if n == 1:
        return 1
    count = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        else:
            p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


@functools.cache
def witt_dimension(d: int, k: int) -> int:
    """Dimension of the degree-``k`` layer of the free Lie algebra on ``d`` letters.

    Computed by the necklace/Witt formula ``(1/k) * sum_{n | k} mu(n) d^(k/n)``.
    """
    if d < 1 or k < 1:
        raise IndexOutOfRange(f"witt_dimension needs d >= 1 and k >= 1, got d={d}, k={k}")
    total = sum(_mobius(n) * d ** (k // n) for n in range(1, k + 1) if k % n == 0)
    assert total % k == 0
    return total // k


@dataclass(frozen=True)
class GroupSpec:
    """Specification of a truncated tensor group: dimension ``d`` and level ``N``."""

    d: int
    N: int
    flavor: Flavor = Flavor.FREE_NILPOTENT

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DimensionMismatch(f"need d >= 1, got {self.d}")
        if not 1 <= self.N <= _MAX_LEVEL:
            raise DimensionMismatch(f"need 1 <= N <= {_MAX_LEVEL}, got {self.N}")
        object.__setattr__(self, "flavor", Flavor(self.flavor))

    @property
    def degenerate(self) -> bool:
        """True for the one low-level free nilpotent case (d=2, N=3) whose
        genericity analysis does not follow the general rank pattern."""
        return self.d == 2 and self.N == 3 and self.flavor is Flavor.FREE_NILPOTENT

    def layer_dims(self) -> list[int]:
        """Dimensions ``[m_1, ..., m_N]`` of the graded layers."""
        if self.flavor is Flavor.FULL_TENSOR:
            return [self.d**k for k in range(1, self.N + 1)]
        return [witt_dimension(self.d, k) for k in range(1, self.N + 1)]

    @property
    def group_dim(self) -> int:
        """Total dimension of the Lie algebra / group."""
        return sum(self.layer_dims())

    def tensor_level_sizes(self) -> list[int]:
        """Sizes ``d^k`` of the dense tensor levels for k = 0..N."""
        return [self.d**k for k in range(self.N + 1)]

    def to_json_dict(self) -> dict:
        return {"d": self.d, "N": self.N, "flavor": self.flavor.value}

    @staticmethod
    def from_json_dict(obj: dict) -> "GroupSpec":
        d, N = (json_number(name, obj.get(name), int) for name in ("d", "N"))
        return GroupSpec(d, N, json_enum("flavor", obj.get("flavor", "FreeNilpotent"), Flavor))


@dataclass(frozen=True)
class BracketTree:
    """A bracket word: either a single generator or a bracket of two subtrees.

    Leaves carry 1-based generator indices. Serialized form: a leaf is the bare
    integer ``i``; an internal node is the two-element list ``[L, R]``.
    """

    index: int | None = None
    left: "BracketTree | None" = None
    right: "BracketTree | None" = None

    def __post_init__(self) -> None:
        if (self.index is None) == (self.left is None):
            raise DegreeMismatch("a bracket tree is either a leaf or has two children")
        if self.left is not None and self.right is None:
            raise DegreeMismatch("internal bracket nodes need both children")

    @property
    def is_leaf(self) -> bool:
        return self.index is not None

    @property
    def degree(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.degree + self.right.degree  # type: ignore[union-attr]

    def foliage(self) -> tuple[int, ...]:
        """Generator indices read off the leaves, left to right."""
        if self.is_leaf:
            return (self.index,)  # type: ignore[return-value]
        return self.left.foliage() + self.right.foliage()  # type: ignore[union-attr]

    def serialize(self):
        if self.is_leaf:
            return self.index
        return [self.left.serialize(), self.right.serialize()]  # type: ignore[union-attr]

    @staticmethod
    def deserialize(obj) -> "BracketTree":
        if isinstance(obj, int):
            return BracketTree(index=obj)
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            return BracketTree(
                left=BracketTree.deserialize(obj[0]), right=BracketTree.deserialize(obj[1])
            )
        raise DegreeMismatch(f"cannot parse bracket tree from {obj!r}")

    def __str__(self) -> str:
        if self.is_leaf:
            return str(self.index)
        return f"[{self.left},{self.right}]"

    def embed(self, d: int) -> np.ndarray:
        """Dense coordinate tensor of this bracket word in ``R^(d^degree)``.

        A leaf ``i`` is the ``i``-th coordinate vector; a node is the
        commutator ``L (x) R - R (x) L`` of its children's embeddings, laid out
        row-major with the first tensor slot slowest.
        """
        if self.is_leaf:
            if not 1 <= self.index <= d:  # type: ignore[operator]
                raise IndexOutOfRange(f"leaf index {self.index} outside 1..{d}")
            v = np.zeros(d)
            v[self.index - 1] = 1.0  # type: ignore[index]
            return v
        lv = self.left.embed(d)  # type: ignore[union-attr]
        rv = self.right.embed(d)  # type: ignore[union-attr]
        return np.kron(lv, rv) - np.kron(rv, lv)


def left_normed_bracket(word: Sequence[int]) -> BracketTree:
    """Left-normed bracketing ``[x_{i1}, [x_{i2}, [... x_{ik}]]]`` of a word."""
    if len(word) == 1:
        return BracketTree(index=word[0])
    return BracketTree(left=BracketTree(index=word[0]), right=left_normed_bracket(word[1:]))


def left_normed_degree3_words() -> dict[int, list[Sequence[int]]]:
    """The alternative hand-picked degree-3 word list for d=3 bases.

    Layer 3 uses the eight left-normed words
    (1,1,2), (1,1,3), (1,2,3), (2,1,2), (2,1,3), (2,2,3), (3,1,3), (3,2,3),
    each read as ``[X_i, [X_j, X_s]]``; layers 1 and 2 are the usual ones.
    """
    return {
        1: [(1,), (2,), (3,)],
        2: [(1, 2), (1, 3), (2, 3)],
        3: [
            (1, 1, 2),
            (1, 1, 3),
            (1, 2, 3),
            (2, 1, 2),
            (2, 1, 3),
            (2, 2, 3),
            (3, 1, 3),
            (3, 2, 3),
        ],
    }


def lyndon_words(d: int, max_len: int) -> dict[int, list[tuple[int, ...]]]:
    """All Lyndon words on the alphabet ``{1..d}`` grouped by length.

    Uses Duval's generation; within each length the words come out in
    lexicographic order. Returns ``{length: [word, ...]}``.
    """
    words: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(1, max_len + 1)}
    w = [0]
    while w:
        if len(w) <= max_len:
            words[len(w)].append(tuple(x + 1 for x in w))
        # Duval: extend periodically to max length, then increment the last
        # letter that can grow and drop everything after it.
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == d - 1:
            w.pop()
        if w:
            w[-1] += 1
        else:
            break
    return words


def _is_lyndon(word: Sequence[int]) -> bool:
    return all(tuple(word) < tuple(word[i:]) for i in range(1, len(word)))


def lyndon_bracket(word: Sequence[int]) -> BracketTree:
    """Standard-factorization bracketing of a Lyndon word.

    A word of length >= 2 splits as ``u v`` where ``v`` is its longest proper
    Lyndon suffix; the bracketing is ``[bracket(u), bracket(v)]``.
    """
    word = tuple(word)
    if not _is_lyndon(word):
        raise DegreeMismatch(f"{word} is not a Lyndon word")
    if len(word) == 1:
        return BracketTree(index=word[0])
    for i in range(1, len(word)):
        if _is_lyndon(word[i:]):
            return BracketTree(left=lyndon_bracket(word[:i]), right=lyndon_bracket(word[i:]))
    raise AssertionError("unreachable: every Lyndon word has a standard factorization")


@dataclass(frozen=True, eq=False)
class Layer:
    """One graded layer: its basis elements and their dense embeddings.

    ``embedding`` has shape ``(d^k, m_k)`` with full column rank; column ``i``
    is the coordinate tensor of element ``i``. For the full tensor flavor the
    elements are bare words and the embedding is the identity.
    """

    k: int
    elements: tuple
    embedding: np.ndarray
    pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.embedding.ndim != 2 or self.embedding.shape[1] != len(self.elements):
            raise DimensionMismatch("embedding must be (d^k, m_k) with one column per element")
        object.__setattr__(self, "pinv", np.linalg.pinv(self.embedding))

    @property
    def dim(self) -> int:
        return len(self.elements)


class LayeredBasis:
    """A layered basis of the (free or full) graded Lie algebra up to level N.

    Provides Malcev ordering (top layer first, so every prefix of the ordering
    spans an ideal), structure constants over the basis, and tensor expansion.
    """

    def __init__(self, spec: GroupSpec, layers: Sequence[Layer]):
        if len(layers) != spec.N:
            raise DimensionMismatch(f"expected {spec.N} layers, got {len(layers)}")
        self.spec = spec
        self.layers = list(layers)
        expected = spec.layer_dims()
        for layer, m_k in zip(self.layers, expected):
            if layer.dim != m_k:
                raise DependentBasis(
                    f"layer {layer.k} has {layer.dim} elements but needs {m_k} for "
                    f"a basis of the {spec.flavor.value} algebra"
                )
            if layer.dim == 0:
                continue
            s = np.linalg.svd(layer.embedding, compute_uv=False)
            if s[-1] <= RANK_RTOL * s[0]:
                raise DependentBasis(f"layer {layer.k} embedding is rank deficient")
        self.dim = sum(layer.dim for layer in self.layers)
        # Malcev order: all of layer N first, then layer N-1, ..., then layer 1.
        self.malcev_order: list[tuple[int, int]] = [
            (k, i)
            for k in range(spec.N, 0, -1)
            for i in range(1, self.layers[k - 1].dim + 1)
        ]
        self._flat_of = {ki: a for a, ki in enumerate(self.malcev_order)}
        # Layer k sits after every layer above it.
        self._slices = []
        for k in range(1, spec.N + 1):
            start = sum(layer.dim for layer in self.layers[k:])
            self._slices.append(slice(start, start + self.layers[k - 1].dim))
        self._sc: np.ndarray | None = None
        self._bch: list[tuple] | None = None

    # -- indexing ---------------------------------------------------------

    def flat_index(self, k: int, i: int) -> int:
        """0-based position of element ``(k, i)`` (both 1-based) in Malcev order."""
        if (k, i) not in self._flat_of:
            raise IndexOutOfRange(f"no basis element ({k}, {i})")
        return self._flat_of[(k, i)]

    def layer_of_flat(self, a: int) -> tuple[int, int]:
        """Inverse of :meth:`flat_index`."""
        if not 0 <= a < self.dim:
            raise IndexOutOfRange(f"flat index {a} outside 0..{self.dim - 1}")
        return self.malcev_order[a]

    def layer_slice(self, k: int) -> slice:
        """Slice of flat Malcev coordinates occupied by layer ``k`` (empty for
        an empty layer)."""
        if not 1 <= k <= self.spec.N:
            raise IndexOutOfRange(f"no layer {k}")
        return self._slices[k - 1]

    # -- expansion --------------------------------------------------------

    def expand_layer(self, k: int, tensors: np.ndarray) -> np.ndarray:
        """Coordinates of degree-``k`` tensors in this layer's elements.

        ``tensors`` has shape ``(..., d^k)``; returns ``(..., m_k)``. Raises
        :class:`NotInLieImage` when the reconstruction residual exceeds
        ``1e-10 * (1 + |t|)`` or is not a number (non-finite input).
        """
        layer = self.layers[k - 1]
        tensors = np.asarray(tensors, dtype=float)
        if tensors.shape[-1] != layer.embedding.shape[0]:
            raise DimensionMismatch(
                f"layer {k} tensors must have trailing size {layer.embedding.shape[0]}"
            )
        coords = tensors @ layer.pinv.T
        recon = coords @ layer.embedding.T
        resid = np.linalg.norm(recon - tensors, axis=-1)
        norms = np.linalg.norm(tensors, axis=-1)
        if not np.all(resid <= EXPAND_RTOL * (1.0 + norms)):
            worst = float(np.max(resid / (1.0 + norms)))
            raise NotInLieImage(
                f"degree-{k} tensor is not in the embedded basis span "
                f"(relative residual {worst:.3e})"
            )
        return coords

    def flat_coords(self, x: "GradedElement") -> np.ndarray:
        """Flat Malcev coordinates of a (batched) algebra element: the inverse
        of :meth:`algebra_element`.

        Every layer, empty ones included, goes through :meth:`expand_layer`,
        which certifies that ``x`` lies in the embedded Lie algebra. Level
        ``k`` of each element is first divided by ``s^k``, with the power of
        two ``s = 2^ceil(log2 max(1, rho))`` and ``rho = max_k (max|x_k|)^(1/k)``,
        so it is held to ``EXPAND_RTOL * (s^k + |x_k|)``, a bound that
        dilations carry along. Powers of two scale exactly: the coordinates do
        not depend on ``s``.
        """
        if x.spec != self.spec:
            raise SpecMismatch(f"element over {x.spec} does not match the basis over {self.spec}")
        levels = x.levels[1:]
        rho = np.maximum.reduce(
            [np.abs(lv).max(axis=-1) ** (1.0 / k) for k, lv in enumerate(levels, 1)]
        )
        s = np.exp2(np.ceil(np.log2(np.maximum(rho, 1.0))))[..., None]
        flat = np.empty(x.batch_shape + (self.dim,))
        for k, (lv, sl) in enumerate(zip(levels, self._slices), 1):
            scale = s**k
            flat[..., sl] = self.expand_layer(k, lv / scale) * scale
        return flat

    def embed_coords(self, k: int, coords: np.ndarray) -> np.ndarray:
        """Dense degree-``k`` tensor of layer coordinates (inverse of expand)."""
        coords = np.asarray(coords, dtype=float)
        return coords @ self.layers[k - 1].embedding.T

    def algebra_element(self, flat: np.ndarray) -> "GradedElement":
        """Lie algebra element with the given flat Malcev coordinates (batched)."""
        from .tensor_algebra import GradedElement

        flat = np.asarray(flat, dtype=float)
        if flat.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"flat coordinates must have trailing size {self.dim}"
            )
        levels = [np.zeros(flat.shape[:-1] + (1,))]
        levels += [self.embed_coords(k, flat[..., sl]) for k, sl in enumerate(self._slices, 1)]
        return GradedElement(self.spec, tuple(levels))

    # -- structure constants ---------------------------------------------

    @property
    def structure_tensor(self) -> np.ndarray:
        """Dense structure constants ``sc[a, b, t]`` over flat Malcev indices.

        ``[X_a, X_b] = sum_t sc[a, b, t] X_t``; graded (only layers
        ``deg a + deg b <= N`` contribute) and antisymmetric in ``(a, b)``.
        """
        if self._sc is None:
            n = self.dim
            d = self.spec.d
            sc = np.zeros((n, n, n))
            embedded = {
                (k, i): self.layers[k - 1].embedding[:, i - 1]
                for (k, i) in self.malcev_order
            }
            for a, (k1, i1) in enumerate(self.malcev_order):
                for b, (k2, i2) in enumerate(self.malcev_order):
                    if b <= a:
                        continue
                    k = k1 + k2
                    if k > self.spec.N:
                        continue
                    u = embedded[(k1, i1)]
                    v = embedded[(k2, i2)]
                    w = np.kron(u, v) - np.kron(v, u)
                    coords = self.expand_layer(k, w)
                    sl = self.layer_slice(k)
                    sc[a, b, sl] = coords
                    sc[b, a, sl] = -coords
            self._sc = sc
        return self._sc

    def bracket_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bracket of two flat Malcev coordinate vectors (batched, broadcasting)."""
        return (self.ad_matrix(x) @ np.asarray(y, dtype=float)[..., None])[..., 0]

    def bch_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flat coordinates of ``log(exp x exp y)`` (batched, broadcasting).

        Sums the Baker-Campbell-Hausdorff series through degree ``N`` in the
        Lyndon basis on two letters, evaluating each bracket word with the
        graded sparse bracket of this basis. The law is compiled on first use.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[-1] != self.dim or y.shape[-1] != self.dim:
            raise DimensionMismatch(f"flat coordinates must have trailing size {self.dim}")
        # Coordinates first, so that every step runs over the batch.
        nd = max(x.ndim, y.ndim)
        front = (nd - 1,) + tuple(range(nd - 1))
        words = [v.reshape((1,) * (nd - v.ndim) + v.shape).transpose(front) for v in (x, y)]
        z = words[0] + words[1]
        for left, right, coeff, a, b, table in self._bch_law():
            prod = words[left][a] * words[right][b]
            # Explicit sizes: a step may have no allowed pairs (a.size == 0).
            flat = prod.reshape(a.size, math.prod(prod.shape[1:]))
            words.append((table @ flat).reshape(table.shape[:1] + prod.shape[1:]))
            if coeff:
                z += coeff * words[-1]
        return z.transpose(tuple(range(1, nd)) + (0,))

    def _bch_law(self) -> list[tuple]:
        """The compiled group law, built on first use and cached on the basis.

        One step per bracket word of the series (or factor of one), in order
        of degree: the positions of its two factors among the evaluated words,
        its series coefficient, and the nonzero bracket pairs ``(a, b)`` with
        their structure constants (as columns). A factor of degree ``p`` has no component
        below layer ``p``, and ``[layer i, layer j]`` lands in layer ``i + j``,
        so only pairs the grading allows are kept.
        """
        if self._bch is None:
            sc = self.structure_tensor
            layer = np.array([k for k, _ in self.malcev_order])
            nonzero = np.any(sc != 0.0, axis=-1)
            coeffs = dict(_bch_series(self.spec.N))
            needed = set()
            stack = [lyndon_bracket(w) for w in coeffs if len(w) > 1]
            while stack:
                tree = stack.pop()
                needed.add(tree.foliage())
                stack.extend(t for t in (tree.left, tree.right) if not t.is_leaf)
            position = {(1,): 0, (2,): 1}
            steps = []
            for w in sorted(needed, key=lambda w: (len(w), w)):
                tree = lyndon_bracket(w)
                u, v = tree.left.foliage(), tree.right.foliage()
                allowed = (layer[:, None] >= len(u)) & (layer[None, :] >= len(v)) & nonzero
                a, b = np.nonzero(allowed)
                coeff = float(coeffs.get(w, 0))
                steps.append((position[u], position[v], coeff, a, b, sc[a, b].T))
                position[w] = len(position)
            self._bch = steps
        return self._bch

    def ad_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ``ad(x) = [x, .]`` acting on flat Malcev coordinates (batched)."""
        sc = self.structure_tensor
        return np.einsum("...a,abt->...tb", np.asarray(x, dtype=float), sc)

    # -- serialization ----------------------------------------------------

    def structure_table(self) -> list[list]:
        """Nonzero structure constants as ``[a, b, target, coeff]`` rows.

        Indices are 1-based positions in the Malcev order; only rows with
        ``a < b`` are listed (antisymmetry supplies the rest).
        """
        sc = self.structure_tensor
        rows = []
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                for t in np.nonzero(np.abs(sc[a, b]) > 1e-12)[0]:
                    coeff = float(sc[a, b, t])
                    snapped = round(coeff)
                    if abs(coeff - snapped) < 1e-9:
                        coeff = float(snapped)
                    rows.append([a + 1, b + 1, int(t) + 1, coeff])
        return rows

    def to_json_dict(self) -> dict:
        layers = []
        for layer in self.layers:
            if self.spec.flavor is Flavor.FULL_TENSOR:
                elements = [{"word": list(w)} for w in layer.elements]
            else:
                elements = [tree.serialize() for tree in layer.elements]
            layers.append({"k": layer.k, "elements": elements})
        return {
            "spec": self.spec.to_json_dict(),
            "layers": layers,
            "structure": self.structure_table(),
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "LayeredBasis":
        spec = GroupSpec.from_json_dict(obj["spec"])
        if spec.flavor is Flavor.FULL_TENSOR:
            return build_layered_basis(spec)
        trees = {
            int(layer["k"]): [BracketTree.deserialize(e) for e in layer["elements"]]
            for layer in obj["layers"]
        }
        return _basis_from_trees(spec, trees)


def _word_product(a: dict, b: dict, N: int) -> dict:
    """Product of two noncommutative polynomials (word -> coefficient), truncated at length N."""
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) <= N:
                out[u + v] = out.get(u + v, 0) + cu * cv
    return out


def _add_words(a: dict, b: dict, scale) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + scale * c
    return out


@functools.lru_cache(maxsize=None)
def _bch_series(N: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Nonzero coefficients of ``log(e^X e^Y) = sum_w c_w P_w`` through degree N.

    ``w`` runs over the Lyndon words in ``X = 1 < Y = 2`` and ``P_w`` is the
    standard bracketing of ``w``. The series is read off one Lyndon word at a
    time: ``P_w`` is ``w`` plus lexicographically larger words, so taking the
    words in increasing order makes the extraction triangular (Casas and
    Murua, arXiv:0810.2656). It is formed in exact rational arithmetic on
    words so that a vanishing coefficient is exactly zero and the remainder
    after extraction is exactly zero, which certifies a Lie element.
    """
    g = {
        (1,) * i + (2,) * j: Fraction(1, math.factorial(i) * math.factorial(j))
        for i in range(N + 1)
        for j in range(N + 1 - i)
        if i + j
    }
    z: dict = {}
    power: dict = {(): Fraction(1)}
    for k in range(1, N + 1):
        power = _word_product(power, g, N)
        z = _add_words(z, power, Fraction((-1) ** (k + 1), k))
    series = []
    for words in lyndon_words(2, N).values():
        for w in words:
            c = z.get(w, 0)
            if c:
                series.append((w, c))
                bracket = lyndon_bracket(w).embed(2)
                words_k = _full_tensor_words(2, len(w))
                z = _add_words(z, {u: int(v) for u, v in zip(words_k, bracket) if v}, -c)
    assert not any(z.values()), "the BCH series is a Lie element"
    return tuple(series)


def _full_tensor_words(d: int, k: int) -> list[tuple[int, ...]]:
    words = [()]
    for _ in range(k):
        words = [w + (i,) for w in words for i in range(1, d + 1)]
    # row-major: first slot slowest, matching the dense level layout
    return words


def _basis_from_trees(spec: GroupSpec, trees: dict[int, list[BracketTree]]) -> LayeredBasis:
    layers = []
    for k in range(1, spec.N + 1):
        elems = trees.get(k, [])
        for tree in elems:
            if tree.degree != k:
                raise DegreeMismatch(
                    f"bracket word {tree} has degree {tree.degree}, expected {k}"
                )
        if elems:
            emb = np.column_stack([tree.embed(spec.d) for tree in elems])
        else:
            emb = np.zeros((spec.d**k, 0))
        layers.append(Layer(k=k, elements=tuple(elems), embedding=emb))
    return LayeredBasis(spec, layers)


def build_layered_basis(
    spec: GroupSpec,
    mode: str = "lyndon",
    user_words: dict[int, list] | None = None,
) -> LayeredBasis:
    """Build a layered basis for ``spec``.

    For the free nilpotent flavor, ``mode`` selects between the Lyndon default
    (standard-factorization bracketing of Lyndon words, lexicographic order
    within each layer) and ``"user"`` with an explicit ``{layer: [word, ...]}``
    dictionary, where each word is either a :class:`BracketTree`, a nested-list
    serialization, or a flat tuple of generator indices read as a left-normed
    bracket. The full tensor flavor ignores ``mode`` and uses coordinate
    tensors with identity embeddings.

    Raises :class:`DependentBasis` if a layer's elements do not span it and
    :class:`DegreeMismatch` if a word sits in the wrong layer.
    """
    if spec.flavor is Flavor.FULL_TENSOR:
        layers = []
        for k in range(1, spec.N + 1):
            words = _full_tensor_words(spec.d, k)
            emb = np.eye(spec.d**k)
            layers.append(Layer(k=k, elements=tuple(words), embedding=emb))
        return LayeredBasis(spec, layers)

    if mode == "lyndon":
        words = lyndon_words(spec.d, spec.N)
        trees = {k: [lyndon_bracket(w) for w in ws] for k, ws in words.items()}
        return _basis_from_trees(spec, trees)

    if mode == "user":
        if user_words is None:
            raise DependentBasis("user mode needs a {layer: [word, ...]} dictionary")
        trees: dict[int, list[BracketTree]] = {}
        for k, entries in user_words.items():
            out = []
            for entry in entries:
                if isinstance(entry, BracketTree):
                    out.append(entry)
                elif isinstance(entry, tuple) or (
                    isinstance(entry, list) and all(isinstance(x, int) for x in entry)
                ):
                    out.append(left_normed_bracket(tuple(entry)))
                else:
                    out.append(BracketTree.deserialize(entry))
            trees[int(k)] = out
        return _basis_from_trees(spec, trees)

    raise DependentBasis(f"unknown basis mode {mode!r}")
