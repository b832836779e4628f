"""Independent oracles and frozen expected values for the test suite.

Everything here is computed by definition-level brute force (enumeration,
fine Riemann sums, closed forms worked out by hand) without touching the
package's own algorithms, so tests compare two genuinely different routes.
The exceptions are the chart maps :func:`tensor_chart_product` and
:func:`tensor_chart_decompose` and the kernel :func:`tensor_route_kernel`
built on them, which compose group elements in the package's dense tensor
algebra instead of its flat-coordinate group law;
:func:`flat_route_kernel`, which composes every integrand point of the
package's coset form with its flat-coordinate group law and chart maps, but
without the kernel's adjoint matrices or its split of the subgroup grid;
:func:`conjugation_route_kernel`, the same on the conjugation form that the
coset form replaced;
:func:`left_fold_signature`, which multiplies segment exponentials one at a
time through public ``mul`` on whole elements instead of in prefix sums over
the segments; :func:`series_exp_t`,
:func:`series_log_t` and :func:`series_scaled_exponential`, which run the
truncated series step by step through public ``mul``, ``+`` and ``scale`` on
whole elements instead of the level-array power-series core; and
:func:`frequency_plane_by_node`,
which integrates the frequency plane through the package's public
single-functional calls, one node and one chart at a time, instead of in
mirror pairs; :func:`plane_decisions_by_node`, which decides the plane's
nodes one functional at a time from the package's skew forms, with SVDs and
determinants of its own, instead of in stacked batches; and
:func:`kirillov_trace`, which integrates Kirillov's character formula over the
coadjoint orbit, with the adjoint action built from tensor commutators read
through the package's flat coordinates, not from its structure constants,
charts or kernels; and :func:`flip_signs`, the generator sign flips read off
the basis embeddings. The Monte Carlo
check :func:`haar_invariance_check` integrates through the package's chart
map ``MalcevChart.gamma`` and group law, since the chart measure is what it
checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from nilfourier import (
    Functional,
    LayeredBasis,
    MalcevChart,
    chart_for,
    is_generic,
    jump_sets,
    segment_signature,
    sqrt_det_d,
)
from nilfourier.tensor_algebra import (
    GradedElement,
    commutator,
    exp_t,
    group_inverse,
    log_t,
    mul,
    scaled_exponential,
)

# ---------------------------------------------------------------------------
# Lyndon words by definition: strictly smaller than all proper rotations.
# ---------------------------------------------------------------------------


def brute_force_lyndon(d: int, max_len: int) -> dict[int, list[tuple[int, ...]]]:
    """Enumerate all words over {1..d} up to ``max_len`` and keep Lyndon ones."""
    out: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(1, max_len + 1)}
    for k in range(1, max_len + 1):
        for code in range(d**k):
            word = []
            c = code
            for _ in range(k):
                word.append(c % d + 1)
                c //= d
            word = tuple(reversed(word))
            rotations = [word[i:] + word[:i] for i in range(1, k)]
            if all(word < r for r in rotations):
                out[k].append(word)
        out[k].sort()
    return out


def brute_force_witt(d: int, k: int) -> int:
    return len(brute_force_lyndon(d, k)[k])


# Hand-checked layer dimension examples.
WITT_EXAMPLES = {
    (3, 2): 3,
    (3, 3): 8,
    (2, 1): 2,
    (2, 2): 1,
    (2, 3): 2,
    (2, 4): 3,
    (2, 5): 6,
    (5, 1): 5,
}


# ---------------------------------------------------------------------------
# Degree-3 Baker-Campbell-Hausdorff closed form.
# ---------------------------------------------------------------------------


def bch_degree3(x, y, commutator):
    """``x + y + [x,y]/2 + [x,[x,y]]/12 - [y,[x,y]]/12`` using caller-supplied ops.

    ``x`` and ``y`` must support ``+`` and scalar ``*``; ``commutator`` is a
    binary bracket. Exact for nilpotency degree <= 3.
    """
    c = commutator(x, y)
    return x + y + 0.5 * c + (1.0 / 12.0) * commutator(x, c) + (-1.0 / 12.0) * commutator(y, c)


# ---------------------------------------------------------------------------
# Signatures of a piecewise linear path: cumulative Riemann sums of iterated
# integrals, and the sequential Chen product of segment exponentials.
# ---------------------------------------------------------------------------


def refine_polyline(points: np.ndarray, per_segment: int) -> np.ndarray:
    """Sample each segment of a polyline at ``per_segment`` equal steps."""
    points = np.asarray(points, dtype=float)
    rows = [points[0]]
    for a, b in zip(points[:-1], points[1:]):
        for s in range(1, per_segment + 1):
            rows.append(a + (b - a) * (s / per_segment))
    return np.array(rows)


def iterated_integral(points: np.ndarray, word: tuple[int, ...], per_segment: int = 4000) -> float:
    """Coefficient of ``word`` in the signature, via nested cumulative sums.

    Uses the recursion ``F_j(t) = integral of F_{j-1} d(path component w_j)``
    with trapezoid accumulation on a fine refinement; the result converges at
    second order in the step, independent of any group machinery.
    """
    fine = refine_polyline(points, per_segment)
    increments = np.diff(fine, axis=0)
    f = np.ones(fine.shape[0])
    for letter in word:
        dcomp = increments[:, letter - 1]
        mid = 0.5 * (f[:-1] + f[1:])
        f = np.concatenate([[0.0], np.cumsum(mid * dcomp)])
    return float(f[-1])


def left_fold_signature(spec, path) -> GradedElement:
    """Signature as the left fold ``((S_1 S_2) S_3) ...`` of segment exponentials,
    each formed by ``exp_t`` of its increment in degree one."""
    sig = GradedElement.identity(spec)
    for inc in path.increments():
        sig = mul(sig, exp_t(GradedElement.from_level1(spec, inc)))
    return sig


# ---------------------------------------------------------------------------
# Truncated series step by step on whole elements: each term is one public
# ``mul``, ``scale`` and ``+``, in the order of the series.
# ---------------------------------------------------------------------------


def series_exp_t(x: GradedElement) -> GradedElement:
    """``1 + x + x^2/2! + ... + x^N/N!``, with ``x^k/k! = (x^(k-1)/(k-1)!) x / k``."""
    acc = GradedElement.identity(x.spec, x.batch_shape) + x
    term = x
    for k in range(2, x.spec.N + 1):
        term = mul(term, x).scale(1.0 / k)
        acc = acc + term
    return acc


def series_log_t(g: GradedElement) -> GradedElement:
    """``sum_k (-1)^(k+1) (g - 1)^k / k``."""
    x = g - GradedElement.identity(g.spec, g.batch_shape)
    acc = x
    term = x
    for k in range(2, g.spec.N + 1):
        term = mul(term, x)
        acc = acc + term.scale((-1.0) ** (k + 1) / k)
    return acc


def series_bch(x: GradedElement, y: GradedElement) -> GradedElement:
    return series_log_t(mul(series_exp_t(x), series_exp_t(y)))


def series_group_inverse(g: GradedElement) -> GradedElement:
    return series_exp_t(-series_log_t(g))


def series_adjoint(g: GradedElement, y: GradedElement) -> GradedElement:
    """``sum_k ad(log g)^k y / k!``, each term the commutator of the last."""
    x = series_log_t(g)
    acc = y
    term = y
    for k in range(1, y.spec.N):
        term = commutator(x, term).scale(1.0 / k)
        acc = acc + term
    return acc


def series_scaled_exponential(x: GradedElement, t: np.ndarray) -> GradedElement:
    """``exp(t x)`` as powers of ``t`` contracted with the elements ``x^j / j!``,
    ``j = 0..N`` (the identity at ``j = 0``)."""
    t = np.asarray(t, dtype=float)
    powers = [GradedElement.identity(x.spec), x]
    for j in range(2, x.spec.N + 1):
        powers.append(mul(powers[-1], x).scale(1.0 / j))
    tj = np.stack([t**j for j in range(x.spec.N + 1)], axis=-1)
    levels = [
        np.tensordot(tj, np.stack([p.levels[k] for p in powers]), axes=([-1], [0]))
        for k in range(x.spec.N + 1)
    ]
    return GradedElement(x.spec, tuple(levels))


# ---------------------------------------------------------------------------
# Heisenberg closed forms (flat coordinate order: bracket, first, second).
#
# With the one-dimensional section chart used by the package, the kernel of
# the standard Gaussian at frequency ``lam`` on the bracket coordinate is
# separable in x - y and x + y, and every downstream quantity integrates in
# closed form.
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi


def heisenberg_kernel(lam: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form kernel of exp(-|c|^2/2) at frequency ``lam``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (
        TWO_PI
        * np.exp(-0.5 * (x - y) ** 2)
        * math.exp(-0.5 * lam**2)
        * np.exp(-0.125 * lam**2 * (x + y) ** 2)
    )


def heisenberg_trace(lam: float) -> float:
    """Closed-form trace of the Gaussian's kernel operator at ``lam``."""
    return TWO_PI * math.exp(-0.5 * lam**2) * math.sqrt(TWO_PI) / abs(lam)


def heisenberg_hs_sq(lam: float) -> float:
    """Closed-form squared Hilbert-Schmidt norm at ``lam``."""
    return TWO_PI**2 * math.exp(-(lam**2)) * math.pi / abs(lam)


# invert() targets: flat coordinates are (bracket, first, second).
HEISENBERG_INVERT_CASES = [
    # (flat log coordinates, expected value of exp(-|c|^2/2))
    ((0.0, 0.0, 0.0), 1.0),
    ((0.0, 0.3, 0.0), math.exp(-0.045)),
    ((0.1, 0.0, 0.2), math.exp(-0.025)),
]

# ||f||_2^2 for the standard Gaussian on R^3, and the Plancherel right side.
HEISENBERG_NORM_SQ = math.pi**1.5

# The inversion normalization constant for the Heisenberg group.
HEISENBERG_C_NORM = (TWO_PI) ** -2


# ---------------------------------------------------------------------------
# Frozen structural expectations.
# ---------------------------------------------------------------------------

# Jump (S) and transverse (T) index sets, as sorted (layer, position) pairs.
JUMP_SET_EXAMPLES = {
    (3, 3): {
        "S": [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)],
        "T": [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8)],
    },
    (2, 2): {
        "S": [(1, 1), (1, 2)],
        "T": [(2, 1)],
    },
    (3, 2): {
        "S": [(1, 1), (1, 2)],
        "T": [(1, 3), (2, 1), (2, 2), (2, 3)],
    },
    # m_2 < m_1: layer 1 holds one jump index, paired with layer 2.
    (2, 3): {
        "S": [(1, 1), (2, 1)],
        "T": [(1, 2), (3, 1), (3, 2)],
    },
}

# Expected polarization dimensions: n - (full generic orbit dim) / 2.
POLARIZATION_DIMS = {
    (2, 2): 2,  # n=3, orbit 2
    (2, 3): 4,  # n=5, orbit 2 (layer 1 adds the left kernel of its pairing with layer 2)
    (2, 4): 6,  # n=8, orbit 4
    (3, 2): 5,  # n=6, orbit 2 (the skew form lives on layer 1 alone, rank 2)
    (3, 3): 11,  # n=14, orbit 6
}

# Full generic orbit dimensions (twice the number of S pairs).
FULL_ORBIT_DIMS = {
    (2, 2): 2,
    (2, 3): 2,
    (2, 4): 4,
    (3, 2): 2,
    (3, 3): 6,
    (2, 5): 6,
}


# ---------------------------------------------------------------------------
# Pfaffian by first-row expansion.
# ---------------------------------------------------------------------------


def pfaffian(a: np.ndarray) -> float:
    """Pfaffian of a real skew matrix, ``sum_j (-1)^(j+1) a[0, j] Pf(a without
    rows and columns 0, j)``; zero for odd order, one for order zero."""
    m = a.shape[0]
    if m % 2:
        return 0.0
    if m == 0:
        return 1.0
    total = 0.0
    for j in range(1, m):
        rest = [k for k in range(1, m) if k != j]
        total += (-1) ** (j + 1) * a[0, j] * pfaffian(a[np.ix_(rest, rest)])
    return total


# ---------------------------------------------------------------------------
# Exact node traces from Kirillov's character formula.
# ---------------------------------------------------------------------------


def gaussian_hat(xi: np.ndarray) -> np.ndarray:
    """``F^(xi) = integral of F(X) exp(i xi . X) dX`` for the unit Gaussian
    ``F(X) = exp(-|X|^2 / 2)`` of the flat coordinates: ``(2 pi)^(n/2)
    exp(-|xi|^2 / 2)``."""
    return TWO_PI ** (xi.shape[-1] / 2) * np.exp(-0.5 * np.sum(xi * xi, axis=-1))


def _dense_ad(basis: LayeredBasis, a: int) -> np.ndarray:
    """Matrix of ``ad(X_a)`` on flat coordinates, column ``b`` the flat
    coordinates of the tensor commutator ``[X_a, X_b]`` of the embedded
    elements (no structure constants)."""
    e = np.eye(basis.dim)
    return basis.flat_coords(commutator(basis.algebra_element(e[a]), basis.algebra_element(e))).T


def kirillov_trace(ell, jump, f_hat, nodes: int = 121, halfwidth: float = 12.0) -> float:
    """``tr pi_ell(f)`` by Kirillov's character formula, ``f`` given by the
    Fourier transform ``f_hat`` of ``F = f o exp`` in flat coordinates.

    The orbit is parametrized over the jump indices ``S`` by ``t -> xi(t) =
    exp(t_1 X_s1) ... exp(t_k X_sk) . ell``, whose Jacobian ``|det d xi_S /
    d t|`` is ``Pf_S(ell)^2``, so the trace is ``(2 pi)^(-k/2) |Pf_S(ell)|
    integral of f_hat(xi(t)) dt``. The integral is a trapezoid rule of
    ``nodes`` points per axis on ``|t_j| <= halfwidth / |Pf_S(ell)|``, a box
    that ``xi_S`` crosses at a rate of order ``Pf``. ``Ad(exp(-t X))`` is
    the finite series of ``exp(-t ad X)``, with ``ad`` from tensor
    commutators.
    """
    basis = ell.basis
    idx = [basis.flat_index(k, i) for (k, i) in jump.S]
    ads = [_dense_ad(basis, a) for a in idx]
    pf = abs(pfaffian(np.array([[ell.flat @ ad[:, b] for b in idx] for ad in ads])))
    t = np.linspace(-halfwidth / pf, halfwidth / pf, nodes)
    w = np.full(nodes, t[1] - t[0])
    w[[0, -1]] *= 0.5
    # xi^T = ell^T Ad(exp(-t_k X_sk)) ... Ad(exp(-t_1 X_s1)): one grid axis per factor
    xi = ell.flat
    for ad in reversed(ads):
        power = np.broadcast_to(np.eye(basis.dim), (nodes, basis.dim, basis.dim))
        adjoint = power
        for p in range(1, basis.spec.N):
            power = power @ (-t[:, None, None] * ad) / p
            adjoint = adjoint + power
        xi = np.einsum("...a,tab->...tb", xi, adjoint)
    values = f_hat(xi)
    for _ in idx:
        values = values @ w
    return float(TWO_PI ** (-len(idx) / 2) * pf * values)


def flip_signs(basis: LayeredBasis) -> np.ndarray:
    """The generator sign flips ``sigma_i: e_i -> -e_i`` on flat coordinates,
    as rows ``D (d, n)`` of signs: ``D[i - 1, a] = (-1)^(number of i in the
    word of element a)``.

    Every basis element is multi-homogeneous, so its word is read off one
    nonzero entry of its embedding (the largest), not from the basis's labels.
    """
    d = basis.spec.d
    signs = np.empty((d, basis.dim))
    for a, (k, i) in enumerate(basis.malcev_order):
        column = basis.layers[k - 1].embedding[:, i - 1]
        word = np.unravel_index(np.argmax(np.abs(column)), (d,) * k)
        signs[:, a] = (-1.0) ** np.bincount(np.array(word, dtype=int), minlength=d)
    return signs


# ---------------------------------------------------------------------------
# Chart maps and kernel values through the dense tensor algebra.
# ---------------------------------------------------------------------------


def tensor_chart_product(chart, coeffs, first):
    """``exp(c_{m-1} W_{first+m-1}) ... exp(c_0 W_first)`` as a dense tensor
    group element (batched): ``gamma`` from ``first = 0`` with all chart
    coordinates, ``gamma_h`` with the subgroup ones, ``section`` from
    ``first = chart.q_h``."""
    basis = chart.basis
    coeffs = np.asarray(coeffs, dtype=float)
    g = GradedElement.identity(basis.spec, coeffs.shape[:-1])
    for j in range(coeffs.shape[-1] - 1, -1, -1):
        column = basis.algebra_element(chart.W[:, first + j])
        g = mul(g, scaled_exponential(column, coeffs[..., j]))
    return g


def tensor_chart_decompose(chart, g):
    """Split the dense group element ``g = section(y) h`` by peeling the
    section coordinates top-down with ``mul``; returns ``y`` and ``h``."""
    basis = chart.basis
    sec = np.empty(g.batch_shape + (chart.q,))
    for j in range(basis.dim - 1, chart.q_h - 1, -1):
        coeff = basis.flat_coords(log_t(g)) @ chart.W[:, j]
        sec[..., j - chart.q_h] = coeff
        g = mul(scaled_exponential(basis.algebra_element(chart.W[:, j]), -coeff), g)
    return sec, g


#: Central-difference step of the oracle kernels' frame Jacobian. The package
#: takes the exact differential instead.
ORACLE_FRAME_STEP = 1e-3


def _framed_kernel(f, chart, qspec, xs, ys, step, route):
    """``K_f(section(x), section(y))`` one pair at a time on a reframed grid.

    ``route(x, y)`` returns the map from subgroup coordinates ``a`` of shape
    ``(m, q_h)`` to the log coordinates of the integrand's points and their
    unimodular phases. The frame is the package's kind, with the Jacobian of
    the point map at ``a = 0`` taken by central differences with step
    ``step``: QR, recentering, identity frame when ``R`` is rank deficient, on
    the same trapezoid grid.
    """
    n, q_h = chart.basis.dim, chart.q_h
    nodes = np.linspace(-qspec.h_halfwidth, qspec.h_halfwidth, qspec.h_nodes)
    w = np.full(nodes.size, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    bpts = np.stack([m.ravel() for m in np.meshgrid(*[nodes] * q_h, indexing="ij")], axis=-1)
    bw = np.ones(1)
    for _ in range(q_h):
        bw = np.outer(bw, w).ravel()
    out = []
    for x, y in zip(xs, ys):
        integrand = route(x, y)
        c0 = integrand(np.zeros((1, q_h)))[0][0]
        probes = step * np.eye(q_h)
        jac = (integrand(probes)[0] - integrand(-probes)[0]).T / (2.0 * step)
        qmat, rmat = np.linalg.qr(jac)
        diag = np.abs(np.diag(rmat))
        if diag.min() <= 1e-12 * max(diag.max(), 1.0):
            qmat, rmat = np.eye(n, q_h), np.eye(q_h)
        rinv = np.linalg.inv(rmat)
        apts = -rinv @ (qmat.T @ c0) + bpts @ rinv.T
        points, phases = integrand(apts)
        total = np.sum(bw * f(points) * phases)
        out.append(total / abs(np.prod(np.diag(rmat))))
    return np.array(out)


def tensor_route_kernel(f, ell, chart, qspec, xs, ys, step):
    """``K_f(section(x), section(y))`` one pair at a time in coset form, on
    dense tensors.

    With ``s = section(w)`` the section point of the coset ``H x y^-1``
    (``w`` from :func:`tensor_chart_decompose`), the points are ``log(gamma_h(a)
    s)``, the character is ``lam = ell o Ad_{x^-1}``, read as ``ell(log(x^-1 u
    x))``, and the twist is ``exp(-i lam(log(x y^-1 s^-1)))``: the package's
    construction, on its frame and trapezoid grid (see :func:`_framed_kernel`),
    with every product, inverse and log taken by ``mul``, ``group_inverse`` and
    ``flat_coords(log_t(.))``.
    """
    basis = chart.basis

    def route(x, y):
        gx = tensor_chart_product(chart, x, chart.q_h)
        gxi = group_inverse(gx)
        g0 = mul(gx, group_inverse(tensor_chart_product(chart, y, chart.q_h)))
        gs = tensor_chart_product(chart, tensor_chart_decompose(chart, g0)[0], chart.q_h)

        def lam(u):
            m = u.batch_shape
            conj = mul(mul(gxi.broadcast_to(m), u), gx.broadcast_to(m))
            return basis.flat_coords(log_t(conj)) @ ell.flat

        twist = np.exp(-1j * lam(mul(g0, group_inverse(gs)).broadcast_to((1,))))

        def integrand(a):
            gh = tensor_chart_product(chart, a, 0)
            points = basis.flat_coords(log_t(mul(gh, gs.broadcast_to((a.shape[0],)))))
            return points, twist * np.exp(1j * lam(gh))

        return integrand

    return _framed_kernel(f, chart, qspec, xs, ys, step, route)


def flat_route_kernel(f, ell, chart, qspec, xs, ys, step):
    """``K_f(section(x), section(y))`` one pair at a time in coset form, in
    flat coordinates.

    The construction of :func:`tensor_route_kernel`, composed with the chart
    maps and :meth:`LayeredBasis.bch_coords`: points ``bch(gamma_h(a), log s)``
    on the full grid, the character ``ell(bch(bch(-log x, log u), log x))``
    and the twist; no adjoint matrices and no split of the grid into its
    central block and the rest.
    """
    bch = chart.basis.bch_coords

    def route(x, y):
        cx = chart.section(x)
        c0 = bch(cx, -chart.section(y))
        cs = chart.section(chart.decompose(c0)[0])

        def lam(c):
            return bch(bch(-cx, c), cx) @ ell.flat

        twist = np.exp(-1j * lam(bch(c0, -cs)))

        def integrand(a):
            u = chart.gamma_h(a)
            return bch(u, cs), twist * np.exp(1j * lam(u))

        return integrand

    return _framed_kernel(f, chart, qspec, xs, ys, step, route)


def conjugation_route_kernel(f, ell, chart, qspec, xs, ys, step):
    """``K_f(section(x), section(y))`` one pair at a time in conjugation form,
    in flat coordinates.

    Points ``bch(bch(section(x), gamma_h(a)), -section(y))`` on the full
    grid, with the character ``exp(i ell(gamma_h(a)))`` and no twist, on the
    frame of that map (see :func:`_framed_kernel`): the package's kernel before
    the coset form. It integrates the same kernel over another parametrization
    of ``H``: on an abelian subgroup and on every depth-2 group the two frames
    give the same grid; elsewhere they differ by the grid's quadrature error.
    """
    bch = chart.basis.bch_coords

    def route(x, y):
        sx, syi = chart.section(x), -chart.section(y)

        def integrand(a):
            u = chart.gamma_h(a)
            return bch(bch(sx, u), syi), np.exp(1j * (u @ ell.flat))

        return integrand

    return _framed_kernel(f, chart, qspec, xs, ys, step, route)


# ---------------------------------------------------------------------------
# The frequency plane one node at a time.
# ---------------------------------------------------------------------------


def frequency_plane_by_node(basis, qspec, integrand):
    """``sum of w * sqrt(det D) * integrand(ell, chart)`` over the transverse
    frequency plane, without the normalization.

    Every node of the trapezoid grid (``t_nodes`` per transverse axis) runs on
    its own: its grid functional, its own ``chart_for`` and one
    single-functional ``integrand`` call. The skip rules are the package's:
    non-generic nodes, ``sqrt(det D) = 0``, and subgroup phase rates
    ``|ell_h|`` above 90% of the subgroup grid's Nyquist rate.
    """
    jump = jump_sets(basis)
    t_idx = [basis.flat_index(k, i) for (k, i) in jump.T]
    axis = np.linspace(-qspec.t_halfwidth, qspec.t_halfwidth, qspec.t_nodes)
    w = np.full(axis.size, axis[1] - axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    rate_limit = 0.9 * math.pi * (qspec.h_nodes - 1) / (2.0 * qspec.h_halfwidth)
    total = 0.0
    for node in itertools.product(range(axis.size), repeat=len(t_idx)):
        flat = np.zeros(basis.dim)
        flat[t_idx] = axis[list(node)]
        ell = Functional(basis, flat)
        if not is_generic(ell):
            continue
        sd = sqrt_det_d(ell, jump)
        if sd <= 0.0:
            continue
        chart = chart_for(ell)
        if np.linalg.norm((ell.flat @ chart.W)[: chart.q_h]) > rate_limit:
            continue
        total += math.prod(w[list(node)]) * sd * integrand(ell, chart)
    return total


# ---------------------------------------------------------------------------
# The frequency plane's node decisions, one functional at a time.
# ---------------------------------------------------------------------------


def _rank(s, top, rtol):
    return int(np.count_nonzero(s > max(rtol * top, 1e-30)))


def _null_space_rows(mat):
    _, s, vt = np.linalg.svd(mat)
    return vt[_rank(s, s.max(initial=0.0), 1e-8) :]


def layer_rows_by_node(ell):
    """Orthonormal rows of the layer-built candidate polarization at one
    functional, built layer by layer from its own SVDs: every layer above the
    middle, the null rows of every leading block of the middle layer's skew
    block, and below the middle the null rows of the pairing with layer
    ``N - k``; then one SVD of all of them, cut at a relative ``1e-12``."""
    basis = ell.basis
    n, N = basis.dim, basis.spec.N
    blocks = []
    for k in [*range(N // 2 + 1, N + 1), *range(N // 2, 0, -1)]:
        sl = basis.layer_slice(k)
        size = sl.stop - sl.start
        if 2 * k > N:
            pieces = [(np.eye(size), size)]
        elif 2 * k == N:
            pieces = [(_null_space_rows(ell.skew[sl, sl][:m, :m]), m) for m in range(1, size + 1)]
        else:
            pieces = [(_null_space_rows(ell.skew[basis.layer_slice(N - k), sl]), size)]
        for rows, width in pieces:
            block = np.zeros((rows.shape[0], n))
            block[:, sl.start : sl.start + width] = rows
            blocks.append(block)
    _, s, vt = np.linalg.svd(np.concatenate(blocks), full_matrices=False)
    return vt[: _rank(s, s.max(initial=0.0), 1e-12)]


def plane_decisions_by_node(basis, qspec, pairs=None):
    """The frequency plane's decisions, one grid functional at a time.

    For each pair index ``i`` (node ``i`` of the plane's trapezoid grid and its
    mirror; all pairs, or those in ``pairs``) this returns ``(flat, generic,
    sqrt(det D), runs, rows)``, with ``flat`` the node's coordinates.
    ``generic`` asks that the leading ``r_k x r_k`` block of every pairing
    block ``B^k`` between layers ``k`` and ``N - k`` (``r_k = min(m_k,
    m_{N-k})``, rounded down to even when ``2k = N``) have rank ``r_k``,
    singular values cut at ``1e-8`` of the whole block's largest;
    ``sqrt(det D)`` is ``sqrt(|det|)`` of the skew form over the jump indices;
    a generic pair with ``sqrt(det D) > 0`` runs when ``|ell_h|``, the norm of
    :func:`layer_rows_by_node` applied to ``ell``, is at most 90% of the
    subgroup grid's Nyquist rate, and then ``rows`` are its rows (else
    ``None``). Every node is decided in full: no rate bound, no stacking.
    """
    spec = basis.spec
    N, dims = spec.N, spec.layer_dims()
    jump = jump_sets(basis)
    t_idx = [basis.flat_index(k, i) for (k, i) in jump.T]
    s_idx = [basis.flat_index(k, i) for (k, i) in jump.S]
    axis = np.linspace(-qspec.t_halfwidth, qspec.t_halfwidth, qspec.t_nodes)
    nodes = list(itertools.product(range(axis.size), repeat=len(t_idx)))
    rate_limit = 0.9 * math.pi * (qspec.h_nodes - 1) / (2.0 * qspec.h_halfwidth)
    out = {}
    for i in range((len(nodes) + 1) // 2) if pairs is None else pairs:
        flat = np.zeros(basis.dim)
        flat[t_idx] = axis[list(nodes[i])]
        ell = Functional(basis, flat)
        generic = True
        for k in range(1, N // 2 + 1):
            if dims[k - 1] and dims[N - k - 1]:
                r = min(dims[k - 1], dims[N - k - 1])
                r -= r % 2 if 2 * k == N else 0
                block = ell.skew[basis.layer_slice(k), basis.layer_slice(N - k)]
                top = np.linalg.svd(block, compute_uv=False).max(initial=0.0)
                s = np.linalg.svd(block[:r, :r], compute_uv=False)
                generic &= _rank(s, top, 1e-8) == r
        dmat = ell.skew[np.ix_(s_idx, s_idx)]
        sd = math.sqrt(abs(np.linalg.det(dmat))) if s_idx else 1.0
        rows = None
        if generic and sd > 0.0:
            rows = layer_rows_by_node(ell)
            if np.linalg.norm(rows @ flat) > rate_limit:
                rows = None
        out[i] = (flat, generic, sd, rows is not None, rows)
    return out


# ---------------------------------------------------------------------------
# The chart measure against Haar measure, by Monte Carlo.
# ---------------------------------------------------------------------------


#: Monte Carlo samples per vectorized chunk in :func:`haar_invariance_check`.
_HAAR_CHUNK = 250_000


def _three_sigma(total: float, total_sq: float, n: int, vol: float) -> dict:
    """Scaled mean and standard error of ``n`` paired differences from their
    sum and sum of squares, and whether the mean is within three errors of 0."""
    mean = total / n
    var = max(total_sq / n - mean**2, 0.0) / n
    dev = vol * mean
    se = vol * math.sqrt(var)
    return {"deviation": dev, "se": se, "passed": abs(dev) <= 3.0 * se + 1e-12}


def haar_invariance_check(
    basis: LayeredBasis,
    rng: np.random.Generator | None = None,
    n_translates: int = 10,
    n_samples: int = 1_000_000,
    box: float = 12.0,
    translate_scale: float = 0.3,
) -> dict:
    """Monte Carlo check that the chart pushes Lebesgue measure to Haar measure.

    Integrates a fixed Gaussian observable of the exponential coordinates
    against the chart measure, then against its pullback by random left
    translations (paired samples), and against the one-shot exponential
    parametrization. All estimates must agree within three standard errors.
    """
    if rng is None:
        rng = np.random.default_rng()
    chart = MalcevChart(basis)  # identity chart: plain Malcev ordering
    n = basis.dim

    def observable(coords: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * np.sum(coords * coords, axis=-1))

    # log coordinates of the translates exp(translate_scale * v)
    translates = [translate_scale * rng.standard_normal(n) for _ in range(n_translates)]
    base_sum = 0.0
    trans_sum = np.zeros(n_translates)
    trans_sq = np.zeros(n_translates)
    exp_sum = 0.0
    exp_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(_HAAR_CHUNK, n_samples - done)
        alpha = rng.uniform(-box, box, size=(m, n))
        c = chart.gamma(alpha)
        phi = observable(c)
        base_sum += float(np.sum(phi))
        # one-shot exponential parametrization of the same coordinates
        diff = observable(alpha) - phi
        exp_sum += float(np.sum(diff))
        exp_sq += float(np.sum(diff * diff))
        for t, c0 in enumerate(translates):
            phi_t = observable(basis.bch_coords(c0, c))
            diff = phi_t - phi
            trans_sum[t] += float(np.sum(diff))
            trans_sq[t] += float(np.sum(diff * diff))
        done += m

    vol = (2.0 * box) ** n
    base = vol * base_sum / n_samples
    results = [_three_sigma(s, sq, n_samples, vol) for s, sq in zip(trans_sum, trans_sq)]
    exp = _three_sigma(exp_sum, exp_sq, n_samples, vol)
    return {
        "base_integral": base,
        "translates": results,
        "exp_chart_deviation": exp["deviation"],
        "exp_chart_se": exp["se"],
        "passed": bool(all(r["passed"] for r in results) and exp["passed"]),
    }
