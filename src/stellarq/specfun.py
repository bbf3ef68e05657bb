"""Log-factorials from one module-level table.

Large combinatorial factors are combined with tiny exponentials in log
space, so that neither overflows.  The table covers 0 <= n <= 10,000;
past it every lookup raises DomainError rather than an IndexError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["log_factorial"]

# ln(n!) for n <= 10_000: well past the Fock cutoffs, because bias-bound
# arithmetic needs binomials such as C(n + p_n, n)
_MAX_N = 10_000
_LOG_FACTORIAL = np.array([math.lgamma(n + 1.0) for n in range(_MAX_N + 1)])


def log_factorial(n):
    """ln(n!) for an integer or integer array n, exact to ~1e-15 relative."""
    idx = np.asarray(n)
    if idx.size and not 0 <= idx.min() <= idx.max() <= _MAX_N:
        raise DomainError(
            f"log-factorial table covers 0 <= n <= {_MAX_N}, got n in [{idx.min()}, {idx.max()}]",
            limit=_MAX_N,
        )
    return _LOG_FACTORIAL[n]

