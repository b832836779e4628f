"""Reference computations that gauge the machine's speed during a run.

On a shared machine the same code can run up to twice as fast in one minute
as in another, and interpreter-bound code swings more than array-bound code.
The harness follows every timed call with a fixed reference computation of
the same kind as the workload and reports call times in units of that
reference time. The references use numpy only, never the package, so no
change to the package can move them.
"""

import functools

import numpy as np

_STEPS = np.random.default_rng(1).standard_normal((24, 3)) / np.sqrt(24.0)


@functools.cache
def _batch() -> list:
    # Built on first use, so workloads that never use it do not hold it.
    rng = np.random.default_rng(2)
    return [rng.standard_normal((1 << 18, 2**k)) for k in range(3)]


def small_ops() -> float:
    """Level-4 signature of a fixed 24-segment path in R^3, built from one
    small numpy product at a time: interpreter-bound, like unbatched tensor
    algebra."""
    depth = 4
    levels = [np.ones(1)] + [np.zeros(3**k) for k in range(1, depth + 1)]
    for step in _STEPS:
        segment = [np.ones(1)]
        for k in range(1, depth + 1):
            segment.append(np.multiply.outer(segment[-1], step).ravel() / k)
        levels = [
            sum(np.multiply.outer(levels[i], segment[k - i]).ravel() for i in range(k + 1))
            for k in range(depth + 1)
        ]
    return float(levels[depth].sum())


def large_arrays() -> float:
    """Truncated level-2 tensor product of 2^18 batched elements over R^2
    with ``einsum``, then a Gaussian-weighted phase: array-bound, like the
    batched kernel integrals."""
    levels = _batch()
    out = []
    for k in range(len(levels)):
        acc = 0.0
        for i in range(k + 1):
            prod = np.einsum("...a,...b->...ab", levels[i], levels[k - i])
            acc = acc + prod.reshape(prod.shape[0], -1)
        out.append(acc)
    weights = np.exp(-0.5 * out[1].sum(axis=-1) ** 2 + 1j * out[2].sum(axis=-1))
    return float(weights.real.sum())
