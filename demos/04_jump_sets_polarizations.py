"""Jump/transverse index splittings and explicit polarizations.

The dual basis indices split into a jump set S (where generic orbit
dimensions grow along the quotient tower) and a transverse set T that
parametrizes generic orbits. Polarizations are maximal subalgebras
subordinate to a functional; both constructions are checked structurally.
"""

import numpy as np

from nilfourier import (
    GroupSpec,
    build_layered_basis,
    full_orbit_dim,
    generic_polarization,
    jump_sets,
    polarization_check,
    sample_generic,
    vergne_polarization,
)

print("Jump (S) and transverse (T) index sets, as (layer, position) pairs:")
for d, N in [(2, 2), (3, 2), (3, 3), (2, 3)]:
    basis = build_layered_basis(GroupSpec(d, N))
    jump = jump_sets(basis)
    print(f"  d={d}, N={N}:")
    print(f"    S = {sorted(jump.S)}")
    print(f"    T = {sorted(jump.T)}")
print()
print("|S| is twice the number of independent directions a generic orbit")
print("uses, so generic orbit dimension = |S| and dim(orbit space) = |T|.")
print("A functional is generic exactly when its skew form on S is nonsingular")
print("(Pf_S(ell) != 0); on d=2, N=3 that is ell([X1, [X1, X2]]) != 0.")
print()

rng = np.random.default_rng(5)
print("Polarizations at a random generic functional:")
for d, N in [(2, 2), (2, 3), (3, 3), (2, 4)]:
    basis = build_layered_basis(GroupSpec(d, N))
    ell = sample_generic(basis, rng)
    target = basis.dim - full_orbit_dim(ell) // 2
    print(f"  d={d}, N={N}: dim(g) = {basis.dim}, "
          f"orbit dim = {full_orbit_dim(ell)}, target dim = {target}")
    for construct in (generic_polarization, vergne_polarization):
        report = polarization_check(construct(ell), ell)
        print(f"    {construct.__name__:>21}: dim {report['dim']}, "
              f"subordinate={report['subordinate']}, "
              f"closed={report['bracket_closed']}, passed={report['passed']}")
