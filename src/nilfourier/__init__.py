"""Harmonic analysis on truncated tensor groups.

The package builds free nilpotent (and full tensor) Lie algebra bases, exact
group arithmetic in the truncated tensor algebra, path signatures, the
coadjoint action with its flat-orbit genericity test, polarization
subalgebras, and a numerical operator-valued Fourier transform with
inversion and Plancherel checks.

Each module's ``__all__`` is the one list of its public names; the package
re-exports their union.
"""

from . import coadjoint, errors, fourier, lie_basis, polarization, signatures, tensor_algebra
from .errors import *  # noqa: F403
from .lie_basis import *  # noqa: F403
from .tensor_algebra import *  # noqa: F403
from .signatures import *  # noqa: F403
from .coadjoint import *  # noqa: F403
from .polarization import *  # noqa: F403
from .fourier import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *lie_basis.__all__,
    *tensor_algebra.__all__,
    *signatures.__all__,
    *coadjoint.__all__,
    *polarization.__all__,
    *fourier.__all__,
]
