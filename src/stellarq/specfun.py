"""Stable evaluation of the polynomial families used across the library.

Laguerre, associated Laguerre and Laguerre 2D polynomials are evaluated
by the three-term recurrence; the explicit defining sums cancel
catastrophically at moderate degree and are kept only as oracles in the
test suite.  Recurrence degrees are capped at ``_MAX_DEGREE`` (64).
Factorials and binomials come from one module-level table of
log-values, so that large combinatorial factors can be combined with
tiny exponentials without overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .errors import DegreeLimitError, DomainError

__all__ = [
    "laguerre",
    "laguerre_assoc",
    "laguerre2d",
    "log_binomial",
    "log_factorial",
]

_MAX_DEGREE = 64
# ln(n!) for n <= 10_000: well past the polynomial degrees, because
# bias-bound arithmetic needs binomials such as C(n + p_n, n)
_LOG_FACTORIAL = gammaln(np.arange(10_001) + 1.0)


def _check_degree(*degrees: int) -> None:
    for d in degrees:
        if d < 0:
            raise DomainError(f"degree must be nonnegative, got {d}")
        if d > _MAX_DEGREE:
            raise DegreeLimitError(
                f"degree {d} exceeds the recurrence bound {_MAX_DEGREE}",
                degree=d,
                max_degree=_MAX_DEGREE,
            )


def log_factorial(n):
    """ln(n!), exact to ~1e-15 relative, table-backed."""
    return _LOG_FACTORIAL[n]


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) from the log-factorial table."""
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
    t = _LOG_FACTORIAL
    return float(t[n] - t[k] - t[n - k])


def laguerre(n: int, x):
    """Standard Laguerre polynomial L_n(x) by the three-term recurrence."""
    return laguerre_assoc(n, 0, x)


def laguerre_assoc(n: int, a, x):
    """Associated Laguerre polynomial L_n^(a)(x).

    Recurrence: (m+1) L_{m+1} = (2m + a + 1 - x) L_m - (m + a) L_{m-1}.
    Accepts scalar or ndarray ``x``; the return matches the input shape.
    """
    _check_degree(n)
    x = np.asarray(x)
    prev = np.zeros_like(x, dtype=float)
    cur = np.ones_like(x, dtype=float)
    for m in range(n):
        prev, cur = cur, ((2 * m + a + 1 - x) * cur - (m + a) * prev) / (m + 1)
    return cur if cur.ndim else float(cur)


def laguerre2d(k: int, l: int, z):
    """Laguerre 2D polynomial of a complex argument (scalar or ndarray).

    Defined by the double-index sum

        sum_{p=0}^{min(k,l)} sqrt(k!) sqrt(l!) (-1)^p
            / (p! (k-p)! (l-p)!) * z^(l-p) * conj(z)^(k-p),

    but evaluated through the associated-Laguerre reduction

        k <= l:  (-1)^k sqrt(k!/l!) z^(l-k)       L_k^(l-k)(|z|^2)
        k >  l:  (-1)^l sqrt(l!/k!) conj(z)^(k-l) L_l^(k-l)(|z|^2)

    which is stable at moderate degree.  Useful identities (tested):
    laguerre2d(l, k, z) == conj(laguerre2d(k, l, z)) and
    laguerre2d(k, l, z) == laguerre2d(l, k, conj(z)); on the diagonal
    laguerre2d(n, n, z) == (-1)^n L_n(|z|^2).
    """
    _check_degree(k, l)
    z = np.asarray(z, dtype=complex)
    q, big = (k, l) if k <= l else (l, k)
    scale = math.exp(0.5 * (_LOG_FACTORIAL[q] - _LOG_FACTORIAL[big]))
    w = z if k <= l else np.conj(z)
    lag = laguerre_assoc(q, big - q, np.abs(z) ** 2)
    out = (-1) ** q * scale * w ** (big - q) * lag
    return out if out.ndim else complex(out)
