"""Coadjoint orbit dimensions and the genericity stratification.

Samples functionals on the dual of two nilpotent algebras, compares the
algebraic genericity test with the orbit dimensions read off each
functional's skew form, and shows how zeroing coordinates drops a functional
out of the generic stratum.
"""

import numpy as np

from nilfourier import (
    Functional,
    GroupSpec,
    build_layered_basis,
    full_orbit_dim,
    is_generic,
    orbit_dim_numeric_all,
    orbit_dim_quotient_generic,
    sample_generic,
)

rng = np.random.default_rng(12)

for d, N in [(2, 2), (3, 3)]:
    basis = build_layered_basis(GroupSpec(d, N))
    spec = basis.spec
    ell = sample_generic(basis, rng)
    print(f"Group d={d}, N={N}: dual dimension {basis.dim}")
    print(f"  random functional: generic = {is_generic(ell)}, "
          f"full orbit dimension = {full_orbit_dim(ell)}")
    numeric = orbit_dim_numeric_all(ell)
    print("  orbit dimension per quotient (skew-form rank vs. generic maximum):")
    for (k, m), value in sorted(numeric.items()):
        expected = orbit_dim_quotient_generic(spec, k, m)
        print(f"    quotient ({k},{m}): {value} vs {expected}")
    print()

print("Dropping out of the generic stratum: on the d=2, N=3 group the")
print("stratum is cut out by the first top-layer coordinate alone.")
basis = build_layered_basis(GroupSpec(2, 3))
for description, coords in [
    ("first top-layer coordinate on", {(3, 1): 0.8, (1, 1): 0.4}),
    ("first top-layer coordinate off", {(3, 2): 0.8, (2, 1): 1.0, (1, 1): 0.4}),
]:
    flat = np.zeros(basis.dim)
    for (k, i), v in coords.items():
        flat[basis.flat_index(k, i)] = v
    ell = Functional(basis, flat)
    print(f"  {description}: generic = {is_generic(ell)}, "
          f"orbit dimension = {full_orbit_dim(ell)}")
