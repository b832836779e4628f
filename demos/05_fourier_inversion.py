"""Operator-valued Fourier analysis on the rank-2 depth-2 group.

Builds the transform of a Gaussian at a generic frequency, then runs the
two headline numerical identities at the fast demo resolution: pointwise
inversion and the squared-norm (Plancherel) identity. The reference
resolution used by the test suite drives both to machine precision; the
demo preset trades accuracy for a couple of seconds of runtime.
"""

import time

import numpy as np

from nilfourier import (
    GradedElement,
    GroupSpec,
    QuadratureSpec,
    SchwartzFunction,
    build_layered_basis,
    build_operator,
    c_norm,
    chart_for,
    exp_t,
    invert,
    plancherel,
    sample_generic,
)

basis = build_layered_basis(GroupSpec(2, 2))
f = SchwartzFunction.gaussian(basis.dim)
qspec = QuadratureSpec.demo()
print(f"Quadrature: {qspec.h_nodes} subgroup nodes, {qspec.section_nodes} section "
      f"nodes, {qspec.t_nodes} frequency nodes per axis")
print()

ell = sample_generic(basis, np.random.default_rng(3))
chart = chart_for(ell)
op = build_operator(f, ell, chart, qspec)
print("The transform at one generic frequency is an integral operator on the")
print(f"polarizing subgroup; its kernel matrix here is {op.matrix.shape[0]}x"
      f"{op.matrix.shape[1]} with Hermitian defect {op.hermitian_defect():.2e}.")
print()

print("Pointwise inversion of the standard Gaussian (exact value e^{-|c|^2/2}):")
start = time.perf_counter()
for flat in ([0.0, 0.0, 0.0], [0.0, 0.3, 0.0], [0.1, 0.0, 0.2]):
    point = exp_t(basis.algebra_element(np.asarray(flat)))
    exact = float(np.exp(-0.5 * np.dot(flat, flat)))
    value = invert(f, point, basis, qspec)
    print(f"  point exp{tuple(flat)}: inverted {value:+.6f}, exact {exact:+.6f}, "
          f"error {abs(value - exact):.2e}")
print(f"  ({time.perf_counter() - start:.1f}s)")
print()

print("Squared-norm identity (frequency-side integral vs. direct L2 norm):")
start = time.perf_counter()
result = plancherel(f, basis, qspec)
print(f"  direct   ||f||^2 = {result['lhs']:.6f}")
print(f"  spectral ||f||^2 = {result['rhs']:.6f}")
print(f"  ratio = {result['ratio']:.4f}   ({time.perf_counter() - start:.1f}s)")
print()
print(f"Normalization constant for this group: {c_norm(basis):.8f} "
      f"(closed form (2*pi)^-2 = {(2 * np.pi) ** -2:.8f})")
print()
print("Tighter grids converge: QuadratureSpec.reference() reproduces the")
print("point values and the ratio to ~1e-15 in well under a second (see the")
print("acceptance tests), and the fourier-demo CLI prints a convergence")
print("table across grid refinements.")
