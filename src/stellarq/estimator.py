"""Expectation-value estimation from double-homodyne samples.

Given i.i.d. outcomes alpha_1..alpha_N of balanced double homodyne
detection of rho, the sample mean of a kernel g_A^{(p)}(alpha_i, eta)
estimates Tr(A rho) for any operator A with bounded Fock support.  The
kernel family is built from Laguerre 2D polynomials:

    f_kl(z, eta)  = eta^{-(1+(k+l)/2)} e^{(1-1/eta)|z|^2} L2D_{k,l}(z/sqrt(eta))
    g_kl^{(p)}    = sum_{j<p} (-1)^j f_{k+j,l+j} eta^j sqrt(C(k+j,k) C(l+j,l))

The Laguerre 2D index order is fixed so that the sample mean of
g_A^{(p)} estimates Tr(A rho) (checked against exact Gaussian moments in
the tests); on the diagonal, where every tabulated quantity lives, the
order is immaterial.

Every kernel is one Laguerre series per Fock offset d = l - k.  With
q = min(k, l), phi_d(w) = w^d (d >= 0) or conj(w)^{|d|} (d < 0), the
reduction L2D_{k,l}(w) = (-1)^q sqrt(q!/(q+|d|)!) phi_d(w) L_q^{(|d|)}(|w|^2)
keeps d fixed under the shifts k, l -> k+j, l+j, so with w = z/sqrt(eta),
x = |w|^2 and c = 1 - eta

    g_A^{(p)}(z) = e^{-c x} sum_d phi_d(w) sum_q W_{d,q} L_q^{(|d|)}(x).

The d = 0 series of a diagonal target is its radial kernel.

For diagonal targets the kernel is radial and real; recentering it by
half the analytic bias bound gives the estimator h_n^{(p)} whose
deviation splits into a Hoeffding term lambda and the bias term, yielding
fully analytic (epsilon, delta) trade-offs.  A CLT variant replaces the
kernel range by the empirical variance; it is tighter but no longer
analytic, and is flagged as such.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from statistics import NormalDist

import numpy as np

from . import specfun
from .errors import (
    DomainError,
    InfeasiblePrecisionError,
    InsufficientSamplesError,
    UnsupportedTargetError,
)
from .fockspace import TargetOperator

__all__ = [
    "EstimatorConfig",
    "ConfidenceEstimate",
    "kernel_f",
    "kernel_g",
    "kernel_g_operator",
    "pn_threshold",
    "bias_bound",
    "kernel_h",
    "kernel_range",
    "kernel_values",
    "radial_kernel",
    "estimate",
    "estimate_from_moments",
    "required_samples",
    "achieved_delta",
    "clt_required_samples",
    "optimize_params",
    "OptimizeResult",
]

_CHUNK = 1 << 20  # fixed summation chunk: partition-independent totals
_BLOCK = 1 << 14  # samples per kernel evaluation block


def _check_eta(eta: float, p: int = 1) -> None:
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie strictly inside (0, 1), got {eta}")
    if p < 1:
        raise DomainError("p must be a positive integer")


def _past_float_range(p: int, eta: float) -> InfeasiblePrecisionError:
    return InfeasiblePrecisionError(f"the kernel at p={p}, eta={eta} passes the float range")


def pn_threshold(n: int, p: int, eta: float) -> int:
    """Smallest q >= p with eta <= (1 - (p-1)/q)(1 - n/(n+q+1)).

    Exists for every eta < 1 because the right-hand side increases to 1.  Each operation of
    its float value, the int/int divisions included, is correctly rounded and monotone in q,
    so the value never falls as q grows and the inequality, once it holds, holds for every
    larger q: a galloping search and bisection return the first q of a count up from p.
    """
    _check_eta(eta)
    if p < 1 or n < 0:
        raise DomainError("need p >= 1 and n >= 0")

    def holds(q: int) -> bool:
        return eta <= (1.0 - (p - 1) / q) * (1.0 - n / (n + q + 1))

    lo, hi, step = p - 1, p, 1  # the answer lies in (lo, hi] once holds(hi)
    while not holds(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _bias_full(n: int, p: int, eta: float) -> float:
    """Full-width bias bound eta^{p_n} C(p_n-1, p-1) C(n+p_n, n), inf past the float range."""
    pn = pn_threshold(n, p, eta)
    lg = math.lgamma  # of which specfun's log-factorial table is built; p_n -> inf as eta -> 1 leaves it
    log = pn * math.log(eta) + (lg(pn) - lg(p) - lg(pn - p + 1.0))  # eta^{p_n} C(p_n - 1, p - 1)
    log += lg(n + pn + 1.0) - lg(n + 1.0) - lg(pn + 1.0)  # C(n + p_n, n)
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf


def bias_bound(n: int, p: int, eta: float) -> float:
    """Half-width bias bound of the recentered estimator h_n^{(p)}."""
    return 0.5 * _bias_full(n, p, eta)


def kernel_f(k: int, l: int, z: complex, eta: float) -> complex:
    """f_{k,l}(z, eta), the p = 1 case of g_{k,l}^{(p)}."""
    return kernel_g(k, l, 1, z, eta)


def kernel_g(k: int, l: int, p: int, z: complex, eta: float) -> complex:
    """Alternating sum g_{k,l}^{(p)}(z, eta) of shifted f kernels."""
    _check_eta(eta, p)
    if k < 0 or l < 0:
        raise DomainError(f"Fock indices must be nonnegative, got ({k}, {l})")
    return complex(_kernel_at(_series_weights([(k, l, 1.0)], p, eta), eta, z))


def kernel_g_operator(a: TargetOperator, p: int, z: complex, eta: float) -> complex:
    """g_A^{(p)}(z, eta) = sum_kl A_kl g_{k,l}^{(p)}(z, eta)."""
    _check_eta(eta, p)
    return complex(_kernel_at(_operator_weights(a, p, eta), eta, z))


def kernel_h(n: int, p: int, z: complex, eta: float) -> float:
    """Recentered diagonal kernel h_n^{(p)}; real by radial symmetry."""
    g = kernel_g(n, n, p, z, eta)
    return float(g.real + 0.5 * (-1) ** p * _bias_full(n, p, eta))


def _series_weights(entries, p: int, eta: float) -> dict:
    """{d: W_d} of sum a g_{k,l}^{(p)} over entries (k, l, a), real if every a is.

    Entry (k, l, a) and shift j < p add, at q = m + j with m = min(k, l), the term
    a (-1)^m eta^{-(1+m+|d|/2)} sqrt(C(k+j,k) C(l+j,l) q!/(q+|d|)!).
    """
    if not entries:
        raise DomainError("target operator is zero")
    sizes = {}
    for k, l, _ in entries:
        sizes[l - k] = max(sizes.get(l - k, 0), min(k, l) + p)
    dtype = complex if any(isinstance(a, complex) for _, _, a in entries) else float
    weights = {d: np.zeros(size, dtype) for d, size in sorted(sizes.items())}
    lf = specfun.log_factorial(np.arange(max(max(k, l) for k, l, _ in entries) + p)).tolist()
    log_eta = math.log(eta)
    for k, l, a in entries:
        d, m = abs(l - k), min(k, l)
        for j in range(p):
            q = m + j
            try:
                weights[l - k][q] += a * (-1) ** m * math.exp(
                    0.5 * ((lf[k + j] - lf[k] - lf[j]) + (lf[l + j] - lf[l] - lf[j]))
                    + 0.5 * (lf[q] - lf[q + d])
                    - (1 + m + d / 2) * log_eta
                )
            except OverflowError as exc:
                raise _past_float_range(p, eta) from exc
    return weights


def _operator_weights(a: TargetOperator, p: int, eta: float) -> dict:
    return _series_weights([(k, l, a.matrix[k, l]) for k, l in a.support_indices()], p, eta)


def _diag_series(entries, p: int, eta: float) -> np.ndarray:
    """W_0 of sum_k a_k g_{k,k}^{(p)} over entries (k, a)."""
    return _series_weights([(k, k, a) for k, a in entries], p, eta)[0]


def _laguerre_series(x, c: np.ndarray, alpha: int):
    """sum_q c[..., q] L_q^{(alpha)}(x) by lagval's Clenshaw loop, alpha added to its three terms;
    each row of a 2-D c is one series, summed at the matching row of x."""
    c = c.T.reshape(c.shape[::-1] + (1,) * (np.ndim(x) + 1 - c.ndim))
    nd = len(c)
    c0, c1 = (c[-2], c[-1]) if nd > 1 else (c[0], 0)
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - (c1 * (nd - 1 + alpha)) / nd
        c1 = tmp + (c1 * ((2 * nd - 1 + alpha) - x)) / nd
    return c0 + c1 * (1 + alpha - x)


def _series_eval(weights: dict, eta: float, x, w=None):
    """e^{-(1-eta) x} sum_d phi_d(w) sum_q W_{d,q} L_q^{(|d|)}(x); w only read for d != 0.

    Far out a high-degree series overflows where the Gaussian factor underflows and the value
    is set to 0, so overflow is silenced; a non-finite value the zeroing leaves is warned of."""
    total = None
    with np.errstate(over="ignore", invalid="ignore"):
        for d, wd in weights.items():
            term = _laguerre_series(x, wd, abs(d))
            if d:
                term = term * (w**d if d > 0 else np.conj(w) ** -d)
            total = term if total is None else total + term
        total, gauss = np.asarray(total), np.exp(-(1.0 - eta) * x)
        total *= gauss  # in place: a pass over N samples holds no extra N-array
    np.copyto(total, 0, where=gauss == 0)
    if not np.isfinite(total).all():  # a mask, not a sum: finite values can sum past the float range
        warnings.warn("kernel series overflowed where its Gaussian factor is nonzero", RuntimeWarning)
    return total


def _kernel_at(weights: dict, eta: float, z):
    z = np.asarray(z, dtype=complex)
    w = None if set(weights) == {0} else z / math.sqrt(eta)  # phi_d(w) is read for d != 0 only
    return _series_eval(weights, eta, np.abs(z) ** 2 / eta, w)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a, b):
    """Golden-section searches for the maxima of f on the intervals [a_i, b_i], in lockstep.

    f maps (search indices, points) to values; each call probes every running search once.
    A search stops after 80 shrinks or once b - a < 1e-10, and gives (x, f(x)) for the better
    of its two final probes, the left one on a tie.  Returns the arrays of x and f(x).
    """
    a, b, run = np.array(a, dtype=float), np.array(b, dtype=float), np.arange(len(a))
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = f(run, x1), f(run, x2)
    for _ in range(80):
        left = f1[run] >= f2[run]
        lt, rt = run[left], run[~left]
        b[lt], x2[lt], f2[lt] = x2[lt], x1[lt], f1[lt]
        a[rt], x1[rt], f1[rt] = x1[rt], x2[rt], f2[rt]
        x1[lt], x2[rt] = b[lt] - _INVPHI * (b[lt] - a[lt]), a[rt] + _INVPHI * (b[rt] - a[rt])
        probed = f(run, np.where(left, x1[run], x2[run]))
        f1[lt], f2[rt] = probed[left], probed[~left]
        run = run[b[run] - a[run] >= 1e-10]
        if not run.size:
            break
    return np.where(f1 >= f2, x1, x2), np.where(f1 >= f2, f1, f2)


def _radial_range(weights: np.ndarray, eta: np.ndarray, degs=None) -> np.ndarray:
    """Range of f(x) = e^{-c x} sum_m w_m L_m(x), c = 1 - eta, over x >= 0, per row (w, eta).

    The closure includes the x -> inf limit 0.  Since
    f'(x) = e^{-c x} (P'(x) - c P(x)) with P = sum_m w_m L_m, every
    interior extremum is a real root of the same-degree Laguerre series
    lagder(w) - c w: an eigenvalue of the rotated companion matrix of
    numpy's lagroots, one stacked eigvals call per degree.  f is evaluated
    at x = 0 and at max(Re r, 0) for every root r: no real critical point
    is missed, and every node lies in the domain, so none can widen the
    range.  The result is exact up to the rounding of the computed roots.
    Row i may end in zeros past its degree degs[i]; they move no bit of it.
    """
    c = (1.0 - eta)[:, None]
    dw = -c * weights
    dw[:, :-1] -= np.cumsum(weights[:, :0:-1], axis=1)[:, ::-1]  # lagder's running sums
    degs = np.full(len(dw), dw.shape[1] - 1) if degs is None else degs
    roots = np.zeros((len(dw), dw.shape[1] - 1))  # a row of lower degree repeats the node x = 0
    for deg in set(degs.tolist()):
        at = np.flatnonzero(degs == deg)
        if deg == 1:
            roots[at, :1] = 1 + dw[at, :1] / dw[at, 1:2]
        elif deg > 1:
            off = np.diag(np.arange(1.0, deg), 1)
            comp = np.array([np.diag(2.0 * np.arange(deg) + 1.0) - off - off.T] * at.size)
            comp[:, :, -1] += dw[at, :deg] / dw[at, deg:deg + 1] * deg
            roots[at, :deg] = np.linalg.eigvals(comp[:, ::-1, ::-1]).real
    xs = np.concatenate((np.zeros((len(dw), 1)), np.maximum(roots, 0.0)), axis=1)
    vals = _series_eval({0: weights}, eta[:, None], xs)
    return np.maximum(vals.max(axis=1), 0.0) - np.minimum(vals.min(axis=1), 0.0)


def _diagonal_entries_checked(target: TargetOperator):
    if not target.is_diagonal:
        raise UnsupportedTargetError(
            "analytic kernel range requires a Fock-diagonal target"
        )
    d = np.diag(target.matrix)
    if np.any(np.abs(np.imag(d)) > 0):
        raise UnsupportedTargetError("diagonal target weights must be real")
    entries = target.diagonal_entries()
    if not entries:
        raise DomainError("target operator is zero")
    return entries


def kernel_range(n_or_operator, p: int, eta: float) -> float:
    """Range of the (scaled) diagonal kernel over the complex plane.

    For an integer n this is the scaled quantity
    R_n^{(p)} = range of eta^{n+1} g_{n,n}^{(p)}, the constant entering
    the Hoeffding exponent as 2 N lambda^2 eta^{2n+2} / R^2.  For a
    diagonal TargetOperator it is the raw range of the combined kernel
    sum_k a_k g_{k,k}^{(p)}, which enters as 2 N lambda^2 / R_raw^2.
    Both are read off the kernel's critical points (see _radial_range),
    so the range is exact up to the rounding of the computed roots.
    """
    _check_eta(eta)
    if isinstance(n_or_operator, (int, np.integer)):
        n = int(n_or_operator)
        w = _diag_series([(n, 1.0)], p, eta) * eta ** (n + 1)
    else:
        w = _diag_series(_diagonal_entries_checked(n_or_operator), p, eta)
    with warnings.catch_warnings():  # a range past the float range is refused, not warned of
        warnings.simplefilter("ignore", RuntimeWarning)
        r = float(_radial_range(w[None], np.array([eta]))[0])
    if not math.isfinite(r):
        raise _past_float_range(p, eta)
    return r


# ---------------------------------------------------------------------------
# Configurations and estimates
# ---------------------------------------------------------------------------

HOEFFDING = "hoeffding"
CLT = "clt"


@dataclass(frozen=True)
class EstimatorConfig:
    """Target operator plus the free protocol parameters (p, eta, eps, delta).

    The constants every interval of one config shares (diagonality, the
    p_n thresholds and the bias bound) are computed once on construction,
    and the Hoeffding kernel range once on first use; `dataclasses.replace`
    recomputes them, and equality ignores them.
    """

    target: TargetOperator
    p: int
    eta: float
    epsilon: float
    delta: float | None = 0.05
    bound_method: str = HOEFFDING
    is_diagonal: bool = field(init=False, repr=False, compare=False)
    _p_n: dict = field(init=False, repr=False, compare=False)
    _bias: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_eta(self.eta, self.p)
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")
        if self.bound_method not in (HOEFFDING, CLT):
            raise DomainError(f"unknown bound method {self.bound_method!r}")
        entries, p, eta = self.target.diagonal_entries(), self.p, self.eta
        # the p_n condition must hold for every diagonal index
        object.__setattr__(self, "_p_n", {k: pn_threshold(k, p, eta) for k, _ in entries})
        object.__setattr__(self, "_bias", sum(abs(a) * bias_bound(k, p, eta) for k, a in entries))
        object.__setattr__(self, "is_diagonal", self.target.is_diagonal)

    def pn_by_index(self) -> dict:
        return dict(self._p_n)

    def bias(self) -> float:
        """Half-width bias bound: weighted sum over diagonal support.

        For a target with off-diagonal support it covers the diagonal part
        only: the bias of the off-diagonal kernels is not budgeted, so such
        targets are restricted to the CLT method, whose interval can then
        miss Tr(A rho) even at a reported confidence of 1.0000.
        """
        return self._bias

    def lam(self) -> float:
        return self.epsilon - self.bias()

    @cached_property
    def hoeffding_range(self) -> float:
        """Raw kernel range of a diagonal target; raises for any other."""
        return kernel_range(self.target, self.p, self.eta)


@dataclass(frozen=True)
class ConfidenceEstimate:
    """Point estimate with half-width, confidence, and bound provenance."""

    value: complex | float
    half_width: float
    confidence: float
    n_samples: int
    method: str
    bias_bound: float
    lam: float
    kernel_range: float | None = None
    sigma_hat: float | None = None
    p: int = 1
    eta: float = 0.0
    p_n: dict = field(default_factory=dict)

    @property
    def lower_bound(self) -> float:
        return float(np.real(self.value)) - self.half_width

    def to_report_dict(self) -> dict:
        v = self.value
        return {
            "value": [v.real, v.imag] if isinstance(v, complex) else float(v),
            "half_width": self.half_width,
            "confidence": self.confidence,
            "N": self.n_samples,
            "method": self.method,
            "p": self.p,
            "eta": self.eta,
            "p_n": {str(k): v for k, v in self.p_n.items()},
            "bias_bound": self.bias_bound,
            "lambda": self.lam,
            "kernel_range": self.kernel_range,
        } | ({"sigma_hat": self.sigma_hat} if self.method == CLT else {})  # what a CLT interval rests on


def kernel_values(batch_samples: np.ndarray, config: EstimatorConfig) -> np.ndarray:
    """Per-sample kernel values; real for diagonal targets.

    Diagonal targets include the half-bias recentering constant, i.e.
    the values are those of the recentered kernel h.  The series runs over
    ``_BLOCK`` samples at a time, each block written into the one output,
    so a pass holds its output and one block of scratch.
    """
    z = np.asarray(batch_samples, dtype=complex)
    flat, eta, diagonal = z.reshape(-1), config.eta, config.is_diagonal
    w, offset = radial_kernel(config) if diagonal else (None, None)
    weights = {0: w} if diagonal else _operator_weights(config.target, config.p, eta)
    out = np.empty(flat.size, float if diagonal else complex)
    for i in range(0, flat.size, _BLOCK):
        block = out[i : i + _BLOCK]
        block[:] = _kernel_at(weights, eta, flat[i : i + _BLOCK])
        if diagonal:
            block += offset
    return out.reshape(z.shape)


def radial_kernel(config: EstimatorConfig):
    """(w, o) with h(z) = e^{-(1-eta) x} sum_m w_m L_m(x) + o, x = |z|^2 / eta.

    The recentered kernel of a diagonal target: its Laguerre weights and
    its half-bias offset o.
    """
    entries = _diagonal_entries_checked(config.target)
    offset = 0.5 * (-1) ** config.p * sum(
        a * _bias_full(k, config.p, config.eta) for k, a in entries
    )
    return _diag_series(entries, config.p, config.eta), offset


def _chunked_mean(values: np.ndarray):
    """Deterministic mean via fixed-size chunks and exact fsum of totals."""
    n = values.size
    if np.iscomplexobj(values):
        re = _chunked_mean(values.real)
        im = _chunked_mean(values.imag)
        return complex(re, im)
    tot = math.fsum(
        float(np.sum(values[i : i + _CHUNK])) for i in range(0, n, _CHUNK)
    )
    return tot / n


def _lambda(epsilon: float, bias: float) -> float:
    """Concentration budget lambda = epsilon - bias; raises when none is left."""
    lam = epsilon - bias
    if lam <= 0:
        raise InfeasiblePrecisionError(
            f"epsilon={epsilon} is not larger than the bias bound {bias:.6g}; "
            "no lambda is left for concentration",
            min_epsilon=bias,
        )
    return lam


def _hoeffding_n(delta: float, r: float, lam: float) -> float:
    """Unrounded N at which 2 exp(-2 N lam^2 / r^2) equals delta."""
    return math.log(2.0 / delta) * r * r / (2.0 * lam * lam)


def required_samples(config: EstimatorConfig) -> int:
    """Samples needed so the Hoeffding failure probability is <= delta."""
    if config.delta is None:
        raise DomainError("required_samples needs a target delta")
    lam = _lambda(config.epsilon, config.bias())
    return int(math.ceil(_hoeffding_n(config.delta, config.hoeffding_range, lam)))


def achieved_delta(config: EstimatorConfig, n_samples: int) -> float:
    """Hoeffding failure probability 2 exp(-2 N lam^2 / r^2) at N = n_samples, capped at 1."""
    lam, r = _lambda(config.epsilon, config.bias()), config.hoeffding_range
    return min(1.0, 2.0 * math.exp(-2.0 * n_samples * lam * lam / (r * r)))


def clt_required_samples(sigma_hat: float, epsilon: float, delta: float, bias: float) -> int:
    """CLT sizing: N with erfc(lam sqrt(N / 2 sigma^2)) <= delta.

    u = erfcinv(delta) comes from the normal tail, erfc(u) = 2 Phi(-u sqrt 2),
    not from erfinv(1 - delta), where 1 - delta rounds at small delta.  0.5 delta
    underflows to 0 only at delta = 5e-324, the least subnormal, and is floored there."""
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    lam = _lambda(epsilon, bias)
    u = -NormalDist().inv_cdf(max(0.5 * delta, math.ulp(0.0))) / math.sqrt(2.0)
    return int(math.ceil(2.0 * sigma_hat**2 * (u / lam) ** 2))


def estimate(batch, config: EstimatorConfig) -> ConfidenceEstimate:
    """Mean-kernel estimate of Tr(A rho) with a confidence half-width.

    Hoeffding method (diagonal targets): fully analytic.  With
    config.delta set, the batch must contain at least required_samples()
    outcomes and the reported confidence is 1 - delta at half-width
    epsilon; with delta=None the achieved failure probability at the
    batch size is reported instead.  CLT method: half-width epsilon at
    confidence 1 - erfc(lam sqrt(N / 2 sigma_hat^2)), where
    sigma_hat is the sample standard deviation of the kernel values;
    tighter but not analytic (the true variance is replaced by its
    estimate), and the only method available for non-diagonal targets.
    For those, config.bias() covers the diagonal part only: the bias of
    the off-diagonal kernels is not budgeted, so the interval can miss
    Tr(A rho) even at a reported confidence of 1.0000.  Besides the effective
    samples the pass holds the kernel values, one block of scratch and, for a
    non-diagonal CLT variance, one real array as long as the batch.
    """
    if hasattr(batch, "effective_samples"):
        samples = batch.effective_samples()
    else:
        samples = np.asarray(batch)
    n = samples.size
    if n == 0:
        raise DomainError("cannot estimate from an empty batch")
    _lambda(config.epsilon, config.bias())  # fail before the kernel pass
    if config.bound_method == HOEFFDING and config.is_diagonal:
        config.hoeffding_range  # so does a range past the float range
    with warnings.catch_warnings():  # a value past the float range is refused, not warned of
        warnings.simplefilter("ignore", RuntimeWarning)
        values = kernel_values(samples, config)
        if not np.isfinite(values.sum()):  # before _chunked_mean, whose fsum raises on inf - inf
            raise _past_float_range(config.p, config.eta)
        mean = _chunked_mean(values)
        variance = None  # only the CLT interval reads it
        if config.bound_method == CLT:  # in place: np.var's operations in its order, or np.mean(|values - mean|^2)
            values -= values.sum() / n if config.is_diagonal else mean
            values = values if config.is_diagonal else np.abs(values)  # one real N-array
            values *= values
            variance = float(values.sum() / n)
    return estimate_from_moments(config, n, mean, variance)


def estimate_from_moments(
    config: EstimatorConfig, n: int, mean, variance: float | None = None
) -> ConfidenceEstimate:
    """The interval of `estimate` from the kernel's sample moments over n samples.

    ``variance`` is the (biased) sample variance of the kernel values,
    which only the CLT method reads.
    """
    lam = _lambda(config.epsilon, config.bias())
    if not np.isfinite(mean) or not math.isfinite(0.0 if variance is None else variance):
        raise _past_float_range(config.p, config.eta)
    common = dict(
        n_samples=int(n),
        bias_bound=config.bias(),
        lam=lam,
        p=config.p,
        eta=config.eta,
        p_n=config.pn_by_index(),
    )
    if config.bound_method == HOEFFDING:
        if not config.is_diagonal:
            raise UnsupportedTargetError(
                "Hoeffding bounds cover Fock-diagonal targets only; use the CLT method"
            )
        if config.delta is not None:
            need = required_samples(config)
            if n < need:
                raise InsufficientSamplesError(
                    f"batch has {n} samples but (epsilon={config.epsilon}, "
                    f"delta={config.delta}) requires N >= {need}",
                    required_n=need,
                )
            delta = config.delta
        else:
            delta = achieved_delta(config, n)
        return ConfidenceEstimate(
            value=float(np.real(mean)),
            half_width=config.epsilon,
            confidence=1.0 - delta,
            method=HOEFFDING,
            kernel_range=config.hoeffding_range,
            **common,
        )
    val = float(np.real(mean)) if config.is_diagonal else complex(mean)
    sig2 = max(variance, 1e-300)
    delta_clt = math.erfc(lam * math.sqrt(n / (2.0 * sig2)))
    return ConfidenceEstimate(
        value=val,
        half_width=config.epsilon,
        confidence=1.0 - delta_clt,
        method=CLT,
        sigma_hat=math.sqrt(sig2),
        **common,
    )


# ---------------------------------------------------------------------------
# Free-parameter optimization
# ---------------------------------------------------------------------------


OPTIMIZE_P_MAX = 8
OPTIMIZE_ETA_GRID = np.exp(np.linspace(math.log(1e-3), math.log(1.0 - 1e-3), 200))


@dataclass(frozen=True)
class OptimizeResult:
    config: EstimatorConfig
    required_n: int
    p_n: int
    kernel_range: float

    def to_report_dict(self) -> dict:
        return {
            "N": self.required_n,
            "p": self.config.p,
            "eta": self.config.eta,
            "p_n": self.p_n,
            "epsilon": self.config.epsilon,
            "delta": self.config.delta,
            "kernel_range": self.kernel_range,
        }


def _objective(n: int, epsilon: float):
    """The map (ps, etas) -> J = lambda * eta^{n+1} / R_n^{(p)} at each pair (p, eta), 0 where
    lambda <= 0; required N is proportional to J^-2.  The weights' eta-free exponents are
    computed once, and one range solve serves all pairs of a call."""
    lf = specfun.log_factorial(np.arange(n + OPTIMIZE_P_MAX)).tolist()
    log_c = [lf[n + j] - lf[n] - lf[j] for j in range(OPTIMIZE_P_MAX)]  # _series_weights' at k = l = n, bit for bit
    sign = float((-1) ** n)

    def objective(ps: np.ndarray, etas: np.ndarray) -> np.ndarray:
        js, w, ok, nums = np.zeros(etas.size), np.zeros((etas.size, n + OPTIMIZE_P_MAX)), [], []
        for i, (p, eta) in enumerate(zip(ps.tolist(), etas.tolist())):
            lam, scale, power = epsilon - bias_bound(n, p, eta), eta ** (n + 1), (n + 1.0) * math.log(eta)
            try:  # the weights of _diag_series([(n, 1.0)], p, eta) * scale, zeros past q = n + p - 1
                w[i, n:n + p] = [sign * math.exp(k - power) * scale for k in log_c[:p]]
            except OverflowError:  # weights past the floats: no kernel to run at this eta, J = 0
                continue
            if lam > 0:
                ok.append(i), nums.append(lam * scale)
        if ok:
            js[ok] = np.array(nums) / _radial_range(w[ok], etas[ok], ps[ok] + (n - 1))
        return js

    return objective


def optimize_params(n: int, epsilon: float, delta: float) -> OptimizeResult:
    """Free-parameter optimization for a target Fock state |n>.

    For each p = 1..OPTIMIZE_P_MAX the figure of merit J = lambda eta^{n+1} / R
    is maximized over eta (OPTIMIZE_ETA_GRID seed + golden-section refinement;
    the p_n jumps make J piecewise smooth, so the grid isolates basins),
    then the p minimizing the required N at (epsilon, delta) is selected,
    preferring the smaller p when two agree within 1%.
    """
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise DomainError("epsilon and delta must lie in (0, 1)")
    specfun.log_factorial(n + OPTIMIZE_P_MAX - 1)  # the kernels up to OPTIMIZE_P_MAX read it: DomainError past it
    etas, ps = OPTIMIZE_ETA_GRID, np.arange(1, OPTIMIZE_P_MAX + 1)
    objective = _objective(n, epsilon)
    js = np.array([objective(np.full(etas.size, p), etas) for p in ps])
    best = js.argmax(axis=1)  # the first of tied maxima
    live = np.flatnonzero(js.max(axis=1) > 0)
    found = _golden_max(  # every p with a positive J on the grid, refined around its best eta
        lambda at, x: objective(ps[live[at]], x),
        etas[np.maximum(best[live] - 1, 0)], etas[np.minimum(best[live] + 1, etas.size - 1)],
    )
    per_p = [(int(p), None, 0.0) for p in ps]
    for r, eta_p, j_p in zip(live, *found):
        if j_p < js[r, best[r]]:
            eta_p, j_p = etas[best[r]], js[r, best[r]]
        per_p[r] = (int(ps[r]), float(eta_p), float(j_p))
    # J = lambda / R_raw, so N(J) is the Hoeffding count at unit range; an N past the floats is no option
    ns = [(p, e, j, _hoeffding_n(delta, 1.0, j)) for p, e, j in per_p if e is not None and j * j > 0]
    ns = [v for v in ns if v[3] < math.inf]
    if not ns:
        raise InfeasiblePrecisionError(
            f"no (p, eta) with p <= {OPTIMIZE_P_MAX} makes epsilon={epsilon} feasible "
            f"for target Fock {n} with a sample count in the float range",
            p_max=OPTIMIZE_P_MAX,
        )
    n_min = min(v[3] for v in ns)
    p_sel, eta_sel, _, _ = min(
        (v for v in ns if v[3] <= 1.01 * n_min), key=lambda v: v[0]
    )
    config = EstimatorConfig(
        target=TargetOperator.fock_projector(n),
        p=p_sel,
        eta=eta_sel,
        epsilon=epsilon,
        delta=delta,
        bound_method=HOEFFDING,
    )
    return OptimizeResult(
        config=config,
        required_n=required_samples(config),
        p_n=pn_threshold(n, p_sel, eta_sel),
        kernel_range=kernel_range(n, p_sel, eta_sel),
    )
