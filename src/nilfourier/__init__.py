"""Harmonic analysis on truncated tensor groups.

The package builds free nilpotent (and full tensor) Lie algebra bases, exact
group arithmetic in the truncated tensor algebra, path signatures, the
coadjoint action with its flat-orbit genericity test, polarization
subalgebras, and a numerical operator-valued Fourier transform with
inversion and Plancherel checks.
"""

from .errors import (
    DegreeMismatch,
    DependentBasis,
    DimensionMismatch,
    IndexOutOfRange,
    NilfourierError,
    NonConvergence,
    NotGeneric,
    NotInLieImage,
    QuadratureUnderflow,
    RoleError,
    SamplingExhausted,
    SpecMismatch,
)
from .lie_basis import (
    BracketTree,
    Flavor,
    GroupSpec,
    Layer,
    LayeredBasis,
    build_layered_basis,
    left_normed_bracket,
    left_normed_degree3_words,
    lyndon_bracket,
    lyndon_words,
    witt_dimension,
)
from .tensor_algebra import (
    GradedElement,
    Role,
    adjoint,
    bch,
    commutator,
    exp_t,
    group_inverse,
    log_t,
    mul,
    scaled_exponential,
)
from .signatures import (
    PiecewiseLinearPath,
    log_signature,
    path_signature,
    read_path_csv,
    segment_signature,
)
from .coadjoint import (
    Functional,
    JumpData,
    b_matrix_ranks,
    coadjoint_apply,
    dim_km,
    full_orbit_dim,
    is_generic,
    jump_sets,
    orbit_dim_numeric_all,
    orbit_dim_quotient_generic,
    quotient_prefix_len,
    sample_generic,
)
from .polarization import (
    Subalgebra,
    generic_polarization,
    is_subordinate,
    polarization_check,
    vergne_polarization,
)
from .fourier import (
    KernelOperator,
    MalcevChart,
    QuadratureSpec,
    SchwartzFunction,
    build_operator,
    c_norm,
    character,
    chart_for,
    d_matrix,
    hs_norm_sq,
    invert,
    kernel_values,
    plancherel,
    sqrt_det_d,
    trace_shifted,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NilfourierError",
    "DependentBasis",
    "DegreeMismatch",
    "NotInLieImage",
    "SpecMismatch",
    "RoleError",
    "DimensionMismatch",
    "IndexOutOfRange",
    "SamplingExhausted",
    "NotGeneric",
    "QuadratureUnderflow",
    "NonConvergence",
    # lie_basis
    "Flavor",
    "GroupSpec",
    "BracketTree",
    "Layer",
    "LayeredBasis",
    "witt_dimension",
    "lyndon_words",
    "lyndon_bracket",
    "left_normed_bracket",
    "left_normed_degree3_words",
    "build_layered_basis",
    # tensor_algebra
    "Role",
    "GradedElement",
    "mul",
    "exp_t",
    "log_t",
    "commutator",
    "bch",
    "group_inverse",
    "adjoint",
    "scaled_exponential",
    # signatures
    "PiecewiseLinearPath",
    "segment_signature",
    "path_signature",
    "log_signature",
    "read_path_csv",
    # coadjoint
    "Functional",
    "JumpData",
    "coadjoint_apply",
    "dim_km",
    "b_matrix_ranks",
    "is_generic",
    "orbit_dim_quotient_generic",
    "quotient_prefix_len",
    "orbit_dim_numeric_all",
    "full_orbit_dim",
    "jump_sets",
    "sample_generic",
    # polarization
    "Subalgebra",
    "is_subordinate",
    "generic_polarization",
    "vergne_polarization",
    "polarization_check",
    # fourier
    "QuadratureSpec",
    "SchwartzFunction",
    "MalcevChart",
    "KernelOperator",
    "chart_for",
    "character",
    "kernel_values",
    "build_operator",
    "trace_shifted",
    "d_matrix",
    "sqrt_det_d",
    "c_norm",
    "invert",
    "hs_norm_sq",
    "plancherel",
]
