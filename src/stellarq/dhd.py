"""Double homodyne detection simulated by sampling the Husimi Q function.

Balanced double homodyne detection of a state rho yields i.i.d. complex
outcomes distributed as Q_rho; unbalanced detection is formally a
squeezing operation followed by balanced detection, and a displacement
before the detector is reverted by translating the classical samples.
This module implements exactly that picture.

Sampling is rejection sampling against an isotropic complex Gaussian
proposal with a certified envelope constant, driven by a counter-based
RNG (Philox).  Every block of ``BLOCK`` consecutive sample indices owns a
private counter region, so the output is a pure function of
(state, seed, n_samples, proposal) regardless of how blocks are
partitioned across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random import Generator, Philox

from .errors import CutoffError, DomainError, EnvelopeError
from .fockspace import GaussianUnitaryParams, TruncatedState, apply_gaussian, coherent_row

__all__ = [
    "SampleBatch",
    "sample_q",
    "translate_samples",
    "sample_unbalanced",
    "proposal_sigma",
    "certify_envelope",
    "save_csv",
    "load_csv",
]

BLOCK = 4096
MIN_ACCEPTANCE = 1e-3


@dataclass(frozen=True)
class SampleBatch:
    """I.i.d. double-homodyne outcomes with full RNG provenance.

    ``samples`` holds the raw detector outcomes; ``translation`` is the
    cumulative displacement reverted in post-processing.  Keeping the two
    separate makes translate-then-untranslate an exact identity; consumers
    read ``effective_samples()``.
    """

    samples: np.ndarray
    seed: int
    proposal_sigma: float
    acceptance_rate: float
    state_fingerprint: str = ""
    zeta: complex = 0j
    translation: complex = 0j

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def effective_samples(self) -> np.ndarray:
        if self.translation == 0:
            return self.samples
        return self.samples - self.translation

    def __eq__(self, other):
        if not isinstance(other, SampleBatch):
            return NotImplemented
        return (
            np.array_equal(self.samples, other.samples)
            and self.seed == other.seed
            and self.proposal_sigma == other.proposal_sigma
            and self.acceptance_rate == other.acceptance_rate
            and self.state_fingerprint == other.state_fingerprint
            and self.zeta == other.zeta
            and self.translation == other.translation
        )


class _QEvaluator:
    """Vectorized Q(z) through the eigendecomposition of rho."""

    def __init__(self, state: TruncatedState):
        w, v = np.linalg.eigh(state.matrix)
        keep = w > 1e-15
        self.weights = w[keep]
        self.vectors = np.ascontiguousarray(v[:, keep])
        self.dim = state.dim

    def __call__(self, z: np.ndarray) -> np.ndarray:
        rows = coherent_row(z, self.dim).conj()
        amps = rows @ self.vectors
        return (np.abs(amps) ** 2 @ self.weights) / math.pi


def proposal_sigma(state: TruncatedState) -> float:
    """Proposal scale sigma with sigma^2 = 1 + <n> + 3 sqrt(Var(n) + 1).

    E_Q[|z|^2] = <n> + 1, so the proposal variance dominates the target's
    radial spread with a three-sigma margin; Q of a truncated state is
    subgaussian, which makes the envelope below certifiable.
    """
    return math.sqrt(1.0 + state.mean_photon() + 3.0 * math.sqrt(state.var_photon() + 1.0))


def _tail_log_bound(s: float, dim: int, sigma: float) -> float:
    """log of an analytic bound on Q/q at radius s.

    Cauchy-Schwarz gives Q(z) <= (1/pi) e^{-s^2} sum_{k<dim} s^{2k}/k!,
    so the ratio to the proposal is bounded by
    sigma^2 exp(-s^2 (1 - 1/sigma^2)) * sum_{k<dim} s^{2k}/k!,
    a decreasing function of s once s^2 > dim / (1 - 1/sigma^2).
    """
    k = np.arange(dim)
    from scipy.special import gammaln, logsumexp

    lse = logsumexp(2 * k * math.log(max(s, 1e-300)) - gammaln(k + 1))
    return 2 * math.log(sigma) - s * s * (1 - 1 / sigma**2) + float(lse)


def certify_envelope(
    state: TruncatedState, sigma: float | None = None, inflation: float = 1.2
):
    """Envelope constant M with Q(z) <= M * proposal(z) everywhere.

    The ratio is maximized on a dense radius grid over [0, 12 sigma] with
    an inner phase scan (the proposal is radial but Q need not be), then
    inflated by 20%; beyond the scanned disc an analytic subgaussian tail
    bound takes over.  A too-tight envelope is still caught loudly at
    sampling time.
    """
    sigma = sigma or proposal_sigma(state)
    qeval = _QEvaluator(state)

    def log_ratio(z):
        """log(Q(z) / proposal(z)), -inf where Q vanishes."""
        qv = qeval(z)
        out = np.full(z.size, -np.inf)
        pos = qv > 0
        out[pos] = np.log(qv[pos]) + np.abs(z[pos]) ** 2 / sigma**2 + math.log(math.pi * sigma**2)
        return out

    s_star = math.sqrt(state.dim * sigma**2 / (sigma**2 - 1.0)) if sigma > 1 else 0.0
    s_max = max(12.0 * sigma, 1.2 * s_star)
    radii = np.linspace(0.0, s_max, 3072)
    phases = np.exp(2j * np.pi * np.arange(48) / 48)
    grid = np.outer(radii, phases).ravel()
    lr = log_ratio(grid)
    peak = float(np.max(lr))
    # local grid refinement around the best point, shrinking 4x per pass
    z0 = grid[int(np.argmax(lr))]
    ds = radii[1] - radii[0]
    dphi = 2 * math.pi / 48
    for _ in range(3):
        s0, phi0 = abs(z0), np.angle(z0)
        ss = np.maximum(s0 + np.linspace(-ds, ds, 17), 0.0)
        pp = phi0 + np.linspace(-dphi, dphi, 17)
        cand = np.outer(ss, np.exp(1j * pp)).ravel()
        lr = log_ratio(cand)
        j = int(np.argmax(lr))
        if lr[j] > peak:
            peak = float(lr[j])
            z0 = cand[j]
        ds /= 4.0
        dphi /= 4.0
    # extend until the analytic tail bound is dominated by the scanned peak
    while _tail_log_bound(s_max, state.dim, sigma) > peak - 9.0 and s_max < 1e4:
        s_max *= 1.5
        extra = np.outer(np.linspace(s_max / 1.5, s_max, 256), phases).ravel()
        peak = max(peak, float(np.max(log_ratio(extra))))
    return sigma, inflation * math.exp(peak)


def _sample_block(qeval, block_index, count, seed, sigma, envelope):
    """Draw ``count`` accepted samples for one counter-isolated block."""
    gen = Generator(Philox(key=seed, counter=block_index << 64))
    out = np.empty(count, dtype=complex)
    pending = np.arange(count)
    proposed = 0
    inv_norm = 1.0 / (math.pi * sigma**2)
    while pending.size:
        u = gen.random((3, pending.size))
        r2 = -sigma**2 * np.log1p(-u[0])
        z = np.sqrt(r2) * np.exp(2j * np.pi * u[1])
        q = np.exp(-r2 / sigma**2) * inv_norm
        ratio = qeval(z) / (envelope * q)
        if np.any(ratio > 1.0 + 1e-12):
            worst = float(np.max(ratio))
            raise EnvelopeError(
                f"rejection envelope violated: Q/(M q) = {worst:.6f} > 1",
                ratio=worst,
            )
        acc = u[2] < ratio
        out[pending[acc]] = z[acc]
        proposed += int(pending.size)
        pending = pending[~acc]
    return out, proposed


def sample_q(
    state: TruncatedState, n_samples: int, seed: int, n_workers: int = 1
) -> SampleBatch:
    """Draw n_samples i.i.d. outcomes from the density Q_rho / Tr(rho).

    Output is byte-identical for fixed (state, seed, n_samples) no matter
    how many workers share the block list: each 4096-sample block owns a
    disjoint Philox counter region keyed only by (seed, block index).
    """
    if n_samples < 0:
        raise DomainError("n_samples must be nonnegative")
    if state.trace_deficit > 1e-6:
        raise CutoffError(
            f"state trace deficit {state.trace_deficit:.3e} too large to sample faithfully"
        )
    sigma, envelope = certify_envelope(state)
    if n_samples == 0:
        return SampleBatch(
            samples=np.empty(0, dtype=complex),
            seed=int(seed),
            proposal_sigma=sigma,
            acceptance_rate=1.0,
            state_fingerprint=state.fingerprint(),
        )
    qeval = _QEvaluator(state)
    n_blocks = (n_samples + BLOCK - 1) // BLOCK
    counts = [min(BLOCK, n_samples - j * BLOCK) for j in range(n_blocks)]
    results = [None] * n_blocks

    def run(j):
        results[j] = _sample_block(qeval, j, counts[j], int(seed), sigma, envelope)

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run, range(n_blocks)))
    else:
        for j in range(n_blocks):
            run(j)
    samples = np.concatenate([r[0] for r in results])
    proposed = sum(r[1] for r in results)
    rate = n_samples / proposed
    if rate < MIN_ACCEPTANCE:
        import warnings

        warnings.warn(
            f"rejection acceptance rate {rate:.2e} below {MIN_ACCEPTANCE}; "
            "proposal poorly matched to the state",
            RuntimeWarning,
        )
    return SampleBatch(
        samples=samples,
        seed=int(seed),
        proposal_sigma=sigma,
        acceptance_rate=rate,
        state_fingerprint=state.fingerprint(),
    )


def translate_samples(batch: SampleBatch, alpha: complex) -> SampleBatch:
    """Shift every effective outcome by -alpha.

    Estimating an operator A on the translated samples equals estimating
    D(alpha) A D(alpha)^dag on the originals, i.e. the translation
    reverts a displacement D(alpha) applied before the detector.
    Translating by alpha and then by -alpha restores the batch exactly.
    """
    if alpha == 0:
        return batch
    return replace(batch, translation=batch.translation + alpha)


def sample_unbalanced(
    state: TruncatedState, zeta: complex, n_samples: int, seed: int, n_workers: int = 1
) -> SampleBatch:
    """Unbalanced detection: sample Q of S(zeta) rho S(zeta)^dag.

    For beam-splitter reflectance R and transmittance T the unbalancing
    corresponds to |zeta| = |log(R/T)|; zeta = 0 recovers the balanced
    scheme bit-for-bit (same seed, same samples).
    """
    zeta = complex(zeta)
    if zeta == 0:
        return sample_q(state, n_samples, seed, n_workers=n_workers)
    g = GaussianUnitaryParams(abs(zeta), math.atan2(zeta.imag, zeta.real), 0j)
    squeezed = apply_gaussian(state, g, out_dim=None)
    batch = sample_q(squeezed, n_samples, seed, n_workers=n_workers)
    return replace(batch, zeta=zeta)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


def save_csv(batch: SampleBatch, path) -> None:
    """One `re,im` line per effective sample, 17 significant digits.

    Any applied translation is materialized into the written values; the
    header records it (and the unbalancing zeta) as provenance only.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"# seed={batch.seed} n={batch.n} sigma={batch.proposal_sigma:.17g} "
            f"acceptance={batch.acceptance_rate:.17g}\n"
        )
        if batch.zeta != 0:
            fh.write(f"# zeta={batch.zeta.real:.17g},{batch.zeta.imag:.17g}\n")
        if batch.translation != 0:
            fh.write(
                f"# translation={batch.translation.real:.17g},{batch.translation.imag:.17g}\n"
            )
        for z in batch.effective_samples():
            fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


def load_csv(path) -> SampleBatch:
    """Read a sample file; any plain `re,im` CSV (headerless) is accepted.

    Values on disk are effective samples, so the loaded batch carries no
    pending translation (the header's translation token is provenance).
    """
    seed = 0
    sigma = 0.0
    acceptance = 1.0
    zeta = 0j
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" not in tok:
                        continue
                    key, val = tok.split("=", 1)
                    if key == "seed":
                        seed = int(val)
                    elif key == "sigma":
                        sigma = float(val)
                    elif key == "acceptance":
                        acceptance = float(val)
                    elif key == "zeta":
                        re_s, im_s = val.split(",")
                        zeta = complex(float(re_s), float(im_s))
                continue
            re_s, im_s = line.split(",")
            rows.append(complex(float(re_s), float(im_s)))
    return SampleBatch(
        samples=np.asarray(rows, dtype=complex),
        seed=seed,
        proposal_sigma=sigma,
        acceptance_rate=acceptance,
        zeta=zeta,
    )
