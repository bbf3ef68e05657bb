"""Wigner-negativity witnesses from displaced odd-Fock populations.

The witness omega(alpha, n) sums the populations of the first n odd Fock
levels of the state displaced by -alpha.  It bounds the Wigner function,

    W(alpha) <= (2/pi) (1 - 2 omega(alpha, n)),

with equality in the limit of large n, so an estimate whose lower bound
exceeds 1/2 at a one-sided confidence of at least 1 - delta_cert certifies
W(alpha) < 0.  A displacement in front of the detector is reverted by
translating the samples, so one balanced batch serves a whole scan grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import laguerre as lag

from .dhd import SampleBatch, radial_density, sample_q, translate_samples
from .errors import CutoffError, DomainError, InfeasiblePrecisionError
from .estimator import (
    CLT,
    ConfidenceEstimate,
    EstimatorConfig,
    _past_float_range,
    estimate,
    estimate_from_moments,
    kernel_values,
    radial_kernel,
)
from .fockspace import DEFICIT_TOL, GaussianUnitaryParams, TargetOperator, TruncatedState, gaussian_matrix

__all__ = [
    "WitnessResult",
    "witness_operator",
    "omega_true",
    "estimate_omega",
    "estimate_omega_grid",
    "witness_scan",
    "choose_witness_params",
    "scan_to_csv",
]


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of one witness estimation at displacement alpha."""

    alpha: complex
    n: int
    omega_estimate: float
    half_width: float
    confidence: float  # one-sided: the W(alpha) < 0 claim fails with prob <= delta/2
    negativity_certified: bool
    wigner_upper_bound: float
    estimate: ConfidenceEstimate | None = None

    @property
    def lower_bound(self) -> float:
        return self.omega_estimate - self.half_width


def witness_operator(n: int) -> TargetOperator:
    """A_n = sum_{k<n} |2k+1><2k+1|, the odd-diagonal projector below 2n."""
    if n < 1:
        raise DomainError("witness order n must be a positive integer")
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        m[2 * k + 1, 2 * k + 1] = 1.0
    return TargetOperator(m)


def omega_true(state: TruncatedState, alpha: complex, n: int) -> float:
    """Exact witness value sum_{k<n} <2k+1| D^dag(alpha) rho D(alpha) |2k+1>.

    Uses exact displaced-Fock matrix elements over the state's support;
    the only approximation is the state's own trace deficit.
    """
    if n < 1:
        raise DomainError("witness order n must be a positive integer")
    if state.trace_deficit > DEFICIT_TOL:
        raise CutoffError(
            f"trace deficit {state.trace_deficit:.3e} too large for a faithful witness value"
        )
    rows = gaussian_matrix(2 * n, state.dim, GaussianUnitaryParams(0.0, 0.0, -complex(alpha)))
    diag = np.einsum("ij,jk,ik->i", rows, state.matrix, rows.conj()).real
    return float(diag[1::2].sum())


def _witness_result(alpha: complex, n: int, res: ConfidenceEstimate) -> WitnessResult:
    """One-sided reading of a two-sided estimate of omega(alpha, n)."""
    lower, confidence = res.lower_bound, 1.0 - (1.0 - res.confidence) / 2.0
    return WitnessResult(
        alpha=complex(alpha),
        n=n,
        omega_estimate=float(np.real(res.value)),
        half_width=res.half_width,
        confidence=confidence,
        negativity_certified=lower > 0.5 and confidence >= 1.0 - res.delta_cert,
        wigner_upper_bound=(2.0 / math.pi) * (1.0 - 2.0 * lower),
        estimate=res,
    )


def estimate_omega(
    batch: SampleBatch, alpha: complex, n: int, config: EstimatorConfig
) -> WitnessResult:
    """Translate the batch by alpha, then estimate the witness operator.

    The certification W(alpha) < 0 is one-sided, so the reported
    confidence is 1 - delta/2 for a symmetric-interval failure
    probability delta.
    """
    translated = translate_samples(batch, complex(alpha))
    cfg = replace(config, target=witness_operator(n))
    return _witness_result(alpha, n, estimate(translated, cfg))


# The grid path sums the kernel over samples in chunks of this many, so its
# working set stays at a few (degree x grid axis x chunk) arrays whatever N
# is, and its summation order depends on nothing but the batch.  On a 32 x 32
# grid at N = 200k, chunks of 512 keep the peak RSS where the sampler left
# it; chunks of 2,048 raised it by 17 MB and ran 15% slower.
_GRID_CHUNK = 512


def _damped_half_laguerre(u: np.ndarray, damping: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """damping * L_i^{(-1/2)}(u) for i < len(out), written into ``out``.

    The three-term recurrence is linear, so starting it from the damped
    L_0 and L_1 damps every order.  It runs in place, with ``tmp`` (the
    shape of u) as its one scratch array.
    """
    out[0] = damping
    if len(out) > 1:
        np.subtract(0.5, u, out=out[1])
        out[1] *= damping
    for i in range(1, len(out) - 1):
        # out[i + 1] = ((2 i + 0.5 - u) out[i] - (i - 0.5) out[i - 1]) / (i + 1)
        nxt = np.subtract(2 * i + 0.5, u, out=out[i + 1])
        nxt *= out[i]
        nxt -= np.multiply(i - 0.5, out[i - 1], out=tmp)
        nxt /= i + 1
    return out


def _hankel(weights: np.ndarray) -> np.ndarray:
    """H[i, j] = weights[i + j], zero past the last weight."""
    d = weights.size
    idx = np.add.outer(np.arange(d), np.arange(d))
    return np.concatenate((weights, np.zeros(d)))[idx]


def _grid_kernel_sums(samples, re_axis, im_axis, series, eta):
    """Sums over samples of f(z - alpha)^k at every grid alpha, one k per Laguerre series.

    f(z) = e^{-c x} sum_m w_m L_m(x), x = |z|^2 / eta, c = 1 - eta, is the
    radial witness kernel without its offset; f^2 is the same form with
    damping 2c and weights lagmul(w, w).  With u = (Re z - Re alpha)^2 / eta
    and v likewise for the imaginary parts, the Laguerre addition theorem
    L_m(u + v) = sum_{i<=m} L_i^{(-1/2)}(u) L_{m-i}^{(-1/2)}(v) makes
    each kernel separable:

        f(z - alpha) = sum_{i,j} w_{i+j} [e^{-cu} L_i(u)] [e^{-cv} L_j(v)],

    so the sum over samples at all R x I points is sum_i A_i C_i^T with
    A_i[a, s] = e^{-cu} L_i^{(-1/2)}(u) and C_i = sum_j w_{i+j} B_j.
    Returns one R x I array per moment.
    """
    c = 1.0 - eta
    hankels = [_hankel(w) for w in series]
    orders = series[-1].size
    n_re, n_im = re_axis.size, im_axis.size
    sums = [np.zeros((n_re, n_im)) for _ in series]
    # every per-chunk array is the head of a flat buffer allocated once per
    # scan, so a short last chunk stays contiguous
    u_buf, eu_buf, v_buf, ev_buf, tmp_buf = (
        np.empty(size * _GRID_CHUNK) for size in (n_re, n_re, n_im, n_im, max(n_re, n_im))
    )
    lu_buf, lv_buf, cb_buf = (np.empty(orders * size * _GRID_CHUNK) for size in (n_re, n_im, n_im))
    for s0 in range(0, samples.size, _GRID_CHUNK):
        z = samples[s0 : s0 + _GRID_CHUNK]

        def head(buf, *shape):
            return buf[: math.prod(shape) * z.size].reshape(*shape, z.size)

        u, eu, v, ev = head(u_buf, n_re), head(eu_buf, n_re), head(v_buf, n_im), head(ev_buf, n_im)
        for part, axis, x, ex in ((z.real, re_axis, u, eu), (z.imag, im_axis, v, ev)):
            np.square(np.subtract(part, axis[:, None], out=x), out=x)  # x = (part - axis)^2 / eta
            x /= eta
            np.exp(np.multiply(-c, x, out=ex), out=ex)  # e^{-c x}
        a = _damped_half_laguerre(u, eu, head(lu_buf, orders, n_re), head(tmp_buf, n_re))
        b = _damped_half_laguerre(v, ev, head(lv_buf, orders, n_im), head(tmp_buf, n_im))
        for k, (w, h) in enumerate(zip(series, hankels)):
            d = w.size
            if k:  # damping 2c
                a *= eu
                b *= ev
            cb = head(cb_buf, d, n_im)
            np.matmul(h, b[:d].reshape(d, -1), out=cb.reshape(d, -1))
            for i in range(d):
                sums[k] += a[i] @ cb[i].T
    return sums


def estimate_omega_grid(
    batch: SampleBatch, re_axis, im_axis, n: int, config: EstimatorConfig
) -> list:
    """estimate_omega at every alpha = re + i im of a product grid, row-major in re.

    The witness kernel is radial, so the grid's sample sums come from
    chunked matrix products (see _grid_kernel_sums) instead of one pass
    over the batch per point; the intervals then come from the same
    estimate_from_moments as the single-point path, with the config's
    bias, p_n thresholds, diagonality and kernel range computed once per scan.
    """
    re_axis = np.asarray(re_axis, dtype=float).ravel()
    im_axis = np.asarray(im_axis, dtype=float).ravel()
    if not re_axis.size or not im_axis.size:
        return []
    cfg = replace(config, target=witness_operator(n))
    weights, offset = radial_kernel(cfg)
    samples = batch.effective_samples()
    n_samples = samples.size
    if n_samples == 0:
        raise DomainError("cannot estimate from an empty batch")
    clt = cfg.bound_method == CLT
    series = [weights]
    if clt:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, whatever the warnings filter
            series.append(lag.lagmul(weights, weights))
    if not np.isfinite(series[-1]).all():
        raise _past_float_range(cfg.p, cfg.eta)
    sums = _grid_kernel_sums(samples, re_axis, im_axis, series, cfg.eta)
    mean_f = sums[0] / n_samples
    var = np.maximum(sums[1] / n_samples - mean_f**2, 0.0) if clt else None
    results = []
    for a, re in enumerate(re_axis):
        for b, im in enumerate(im_axis):
            res = estimate_from_moments(
                cfg, n_samples, float(mean_f[a, b] + offset), None if var is None else float(var[a, b])
            )
            results.append(_witness_result(complex(re, im), n, res))
    return results


def witness_scan(
    state: TruncatedState,
    re_axis,
    im_axis,
    n: int,
    config: EstimatorConfig,
    seed: int,
    n_samples: int,
    n_workers: int = 1,
) -> list:
    """One shared balanced batch, reused across the grid re_axis x im_axis.

    Results run row-major over alpha = re + i im (re outer, im inner).
    Reusing a single batch matches the fixed per-scan sample budget of
    the protocol; the per-point confidence is therefore marginal, not
    simultaneous over the grid.
    """
    if not np.size(re_axis) or not np.size(im_axis):
        return []
    batch = sample_q(state, n_samples, seed, n_workers=n_workers)
    return estimate_omega_grid(batch, re_axis, im_axis, n, config)


def scan_to_csv(results, path) -> None:
    """`re_alpha,im_alpha,omega,half_width,lower_bound,certified` per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("re_alpha,im_alpha,omega,half_width,lower_bound,certified\n")
        for r in results:
            fh.write(
                f"{r.alpha.real:.12g},{r.alpha.imag:.12g},{r.omega_estimate:.12g},"
                f"{r.half_width:.12g},{r.lower_bound:.12g},{int(r.negativity_certified)}\n"
            )


# ---------------------------------------------------------------------------
# Free-parameter choice for witness estimation at fixed (epsilon, N)
# ---------------------------------------------------------------------------


WITNESS_P_VALUES = (1, 2, 3, 4)
WITNESS_ETA_GRID = np.arange(0.06, 0.46, 0.02)
WITNESS_DELTA_TARGET = 0.04
_RADIAL_NODES = 1500


def _radial_density(state: TruncatedState):
    """Trapezoid nodes (s, weight) of the radial sample density of Q.

    The nodes span ten times sqrt(1 + <n> + 3 sqrt(Var(n) + 1)), which
    is beyond every radius the sampler draws with noticeable mass.
    """
    extent = 10.0 * math.sqrt(1.0 + state.mean_photon() + 3.0 * math.sqrt(state.var_photon() + 1.0))
    s = np.linspace(0.0, extent, _RADIAL_NODES)
    w = np.full(_RADIAL_NODES, s[1] - s[0])
    w[0] = w[-1] = 0.5 * (s[1] - s[0])
    return s, radial_density(state, s) * w


def choose_witness_params(
    state: TruncatedState, n: int, epsilon: float, n_samples: int
) -> EstimatorConfig:
    """Deterministic (p, eta) choice for a witness run at fixed (eps, N).

    Uses exact radial quadrature moments of the kernel under the known
    simulated state (the witness kernel is radial): among the pairs of
    WITNESS_P_VALUES x WITNESS_ETA_GRID whose predicted CLT failure
    probability (``estimate_from_moments`` at those moments) meets
    WITNESS_DELTA_TARGET, pick the one with the largest
    predicted certification margin (E[h] - (1/2 + eps)) / se.  No sample
    data enters the choice.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be a positive integer, got {n_samples}")
    op = witness_operator(n)
    s, wq = _radial_density(state)
    best = None
    for p in WITNESS_P_VALUES:
        for eta in WITNESS_ETA_GRID:
            cfg = EstimatorConfig(op, p, float(eta), epsilon, delta=None, bound_method=CLT)
            if cfg.lam() <= 0:
                continue
            vals = kernel_values(s, cfg)  # recentered kernel h on the radii
            e1 = float(vals @ wq)
            e2 = float(vals**2 @ wq)
            var = max(e2 - e1 * e1, 1e-300)
            se = math.sqrt(var / n_samples)
            if 1.0 - estimate_from_moments(cfg, n_samples, e1, var).confidence > WITNESS_DELTA_TARGET:
                continue
            z_cert = (e1 - (0.5 + epsilon)) / se
            if best is None or z_cert > best[0]:
                best = (z_cert, cfg)
    if best is None:
        raise InfeasiblePrecisionError(
            f"no (p, eta) meets delta <= {WITNESS_DELTA_TARGET} at epsilon={epsilon}, "
            f"N={n_samples} for this state",
            delta_target=WITNESS_DELTA_TARGET,
        )
    return best[1]
