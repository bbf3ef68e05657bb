"""Double homodyne detection simulated by sampling the Husimi Q function.

Balanced double homodyne detection of a state rho yields i.i.d. complex
outcomes distributed as Q_rho; unbalanced detection is formally a
squeezing operation followed by balanced detection, and a displacement
before the detector is reverted by translating the classical samples.
This module implements exactly that picture.

Sampling is exact, in two steps (U. Leonhardt, *Measuring the Quantum
State of Light*, 1997, on Q-function sampling).  Averaging Q over the
phase removes every off-diagonal term of rho, so |z|^2 is the Gamma
mixture sum_k rho_kk Gamma(k+1, 1) / Tr rho and is drawn without
rejection.  Given |z| = s, the phase density is the nonnegative
trigonometric polynomial c_0 + 2 Re sum_m c_m(s) e^{i m phi}, drawn by
rejection against a uniform phase under its exact bound
c_0 + 2 sum_m |c_m(s)|; diagonal states accept every phase at once.
Draws come from a counter-based RNG (Philox): every block of ``BLOCK``
consecutive sample indices draws only from its own counter region, so
the output is a pure function of (state, seed, n_samples) however the
blocks are shared between workers or finish their rejection tails.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .errors import CutoffError, DomainError
from .fockspace import DEFICIT_TOL, GaussianUnitaryParams, TruncatedState, apply_gaussian
from .specfun import log_factorial

__all__ = [
    "SampleBatch",
    "sample_q",
    "translate_samples",
    "sample_unbalanced",
    "radial_density",
    "save_csv",
    "load_csv",
]

BLOCK = 4096
# The phase coefficients are carried as c_m / x^m with x = s / _PHASE_SCALE.
# Their table entries rho_{k,k+m} sqrt(k!/(k+m)!) _PHASE_SCALE^m are at most
# e^{_PHASE_SCALE^2 / 2} ~ 1e195 (at k = 0, m ~ _PHASE_SCALE^2), so nothing
# overflows at any dim; the entries that matter at radius s, about
# (_PHASE_SCALE / s)^m for m < 12.5 s, stay normal doubles for s < 70,
# past the radii of any state with dim <= 4096.
_PHASE_SCALE = 30.0
# A block parks its rejection tail once at most _TAIL rows are pending, and the
# tails of _PARK blocks (at most BLOCK rows) finish together in one pass a round.
_TAIL, _PARK = 64, 16


@dataclass(frozen=True)
class SampleBatch:
    """I.i.d. double-homodyne outcomes with full RNG provenance.

    ``samples`` holds the raw detector outcomes; ``translation`` is the
    cumulative displacement reverted in post-processing.  Keeping the two
    separate makes translate-then-untranslate an exact identity; consumers
    read ``effective_samples()``.  ``acceptance_rate`` is the number of
    samples over the number of phase proposals: 1.0 for a diagonal state.
    """

    samples: np.ndarray
    seed: int
    acceptance_rate: float
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
            and self.acceptance_rate == other.acceptance_rate
            and self.zeta == other.zeta
            and self.translation == other.translation
        )


def _poisson_weights(s2: np.ndarray, lf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|<k|z>|^2 = e^{-s^2} s^{2k} / k! at |z|^2 = s2, one row per level k < lf.size.

    ``lf`` holds log k!.  Built in log space, so no entry overflows at any
    radius or dim; written into ``out`` when one is given.
    """
    s2 = np.asarray(s2, dtype=float).ravel()
    if out is None:
        out = np.empty((lf.size, s2.size))
    out[0] = 0.0
    with np.errstate(divide="ignore"):
        np.multiply.outer(np.arange(1.0, lf.size), np.log(s2), out=out[1:])
    out -= s2
    out -= lf[:, None]
    return np.exp(out, out=out)


def radial_density(state: TruncatedState, s):
    """Density of |z| under Q_rho / Tr rho: 2 s sum_k rho_kk |<k|z>|^2 / Tr rho.

    The phase average of Q keeps only the diagonal of rho, which makes |z|^2
    the Gamma mixture of ``sample_q``; a scalar s gives a float.  The weights
    are copied row-major, which fixes how BLAS rounds the sum over levels.
    """
    s = np.asarray(s, dtype=float)
    lf = log_factorial(np.arange(state.dim))
    pops = (np.ascontiguousarray(_poisson_weights(s * s, lf).T) @ state.populations()).reshape(s.shape)
    vals = 2.0 * s * pops / max(state.trace, 1e-300)
    return vals if s.ndim else float(vals)


def _phase_table(state: TruncatedState):
    """Phase coefficient table T and its offset step.

    Column j of T holds rho_{k,k+m} sqrt(k!/(k+m)!) _PHASE_SCALE^m for the
    offset m = j * step, up to the largest m with a nonzero diagonal
    rho_{k,k+m}, so that row i of ``_poisson_weights(s2) @ T`` holds
    c_m(s_i) / x_i^m with x_i = s_i / _PHASE_SCALE.  A state of definite
    parity (squeezed, photon-subtracted squeezed, cat) has no odd offsets
    and gets step 2; a diagonal state gets the single column m = 0.
    """
    rho, dim = state.matrix, state.dim
    offsets = [m for m in range(1, dim) if np.any(np.diagonal(rho, m))]
    step = 2 if all(m % 2 == 0 for m in offsets) else 1
    lf = log_factorial(np.arange(dim))
    ms = range(0, max(offsets, default=0) + 1, step)
    table = np.zeros((dim, len(ms)), dtype=complex)
    for j, m in enumerate(ms):
        k = np.arange(dim - m)
        table[k, j] = np.diagonal(rho, m) * np.exp(
            m * math.log(_PHASE_SCALE) + 0.5 * (lf[k] - lf[k + m])
        )
    return table, step


def _horner(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_{j >= 1} coeffs[:, j] w^j, row by row."""
    acc = coeffs[:, -1] * w
    for m in range(coeffs.shape[1] - 2, 0, -1):
        acc += coeffs[:, m]
        acc *= w
    return acc


def _check_workers(n_workers) -> None:
    if type(n_workers) is not int or n_workers < 1:
        raise DomainError(f"n_workers must be a positive integer, got {n_workers!r}")


def _rows(buf: np.ndarray, n: int, cols: int) -> np.ndarray:  # n complex rows at the head of a float buffer
    return buf[: 2 * cols * n].view(complex).reshape(n, cols)


def _reject(gens, ends, pending, step, samples, bufs, stop):
    """Phase rejection rounds until at most ``stop`` rows are pending.

    ``pending`` holds the out index, x, bound and coefficients of each row;
    block b's rows end at ``ends[b]`` and draw random((2, their number)) from
    ``gens[b]`` each round.  An accepted row's sample, its radius s so far,
    becomes s e^{2 pi i u0}; rejected coefficient rows go to bufs[0], and the
    two swap.  Returns the proposals made and the rows still pending.
    """
    idx, x, bound, coeffs = pending
    proposed = 0
    while idx.size > stop:
        draws = [g.random((2, hi - lo)) for g, lo, hi in zip(gens, [0] + ends, ends) if hi > lo]
        u = draws[0] if len(draws) == 1 else np.concatenate(draws, axis=1)
        density = coeffs[:, 0].real + 2.0 * _horner(coeffs, x * np.exp(2j * np.pi * step * u[0])).real
        acc = u[1] * bound < density
        samples[idx[acc]] *= np.exp(2j * np.pi * u[0, acc])
        proposed += idx.size
        rej = np.flatnonzero(~acc)
        ends = np.searchsorted(rej, ends).tolist()
        idx, x, bound = idx[rej], x[rej], bound[rej]
        coeffs = np.take(coeffs, rej, axis=0, out=_rows(bufs[0], rej.size, coeffs.shape[1]), mode="clip")
        bufs.reverse()
    return proposed, (idx, x, bound, coeffs)


def _sample_block(cdf, table, step, lf, j, seed, samples, work, spare):
    """Draw block j of ``samples`` from its own counter region, up to its tail.

    ``work`` and ``spare`` are flat float buffers of BLOCK * max(dim, 2 cols)
    and BLOCK * 2 cols entries for a (dim, cols) phase table.  ``work``
    holds the Poisson weights, one row per level, and then the coefficient
    magnitudes; ``spare`` the phase coefficients.  Returns the proposals,
    the at most ``_TAIL`` rows left pending (None if diagonal) and the generator.
    """
    out = samples[j * BLOCK : (j + 1) * BLOCK]
    count = out.size
    gen = Generator(Philox(key=seed, counter=j << 64))
    level = np.minimum(np.searchsorted(cdf, gen.random(count) * cdf[-1], side="right"), cdf.size - 1)
    s2 = gen.standard_gamma(level + 1.0)
    s = np.sqrt(s2)
    if table.shape[1] == 1:
        np.multiply(s, np.exp(2j * np.pi * gen.random(count)), out=out)
        return count, None, gen
    dim, cols = table.shape
    weights = _poisson_weights(s2, lf, out=work[: dim * count].reshape(dim, count))
    coeffs = _rows(spare, count, cols)
    np.matmul(weights.T, table.view(float), out=coeffs.view(float))
    x = (s / _PHASE_SCALE) ** step
    # exact bound of the phase density: c_0 + 2 sum_m |c_m(s)|
    bound = coeffs[:, 0].real + 2.0 * _horner(np.abs(coeffs, out=work[: count * cols].reshape(count, cols)), x)
    out[:] = s
    pending = (np.arange(j * BLOCK, j * BLOCK + count), x, bound, coeffs)
    return *_reject([gen], [count], pending, step, samples, [work, spare], _TAIL), gen


def sample_q(
    state: TruncatedState, n_samples: int, seed: int, n_workers: int = 1
) -> SampleBatch:
    """Draw n_samples i.i.d. outcomes from the density Q_rho / Tr(rho).

    Output is byte-identical for fixed (state, seed, n_samples) no matter
    how many workers share the block list: each 4096-sample block owns a
    disjoint Philox counter region keyed only by (seed, block index), and
    its draws never leave its own generator.  Each worker takes a
    contiguous run of blocks, writes them straight into its slices of the
    one output array and works in two buffers allocated once per call.
    The rejection tails of up to ``_PARK`` blocks of a run finish together.
    """
    if n_samples < 0:
        raise DomainError("n_samples must be nonnegative")
    _check_workers(n_workers)
    if state.trace_deficit > DEFICIT_TOL:
        raise CutoffError(
            f"state trace deficit {state.trace_deficit:.3e} too large to sample faithfully"
        )
    samples = np.empty(n_samples, dtype=complex)
    if n_samples == 0:
        return SampleBatch(samples=samples, seed=int(seed), acceptance_rate=1.0)
    cdf = np.cumsum(np.maximum(state.populations(), 0.0))
    table, step = _phase_table(state)
    dim, cols = table.shape
    lf = log_factorial(np.arange(dim))
    n_blocks = (n_samples + BLOCK - 1) // BLOCK
    n_workers = min(n_workers, n_blocks)

    def run(w):
        work = spare = None
        if cols > 1:
            work, spare = np.empty(BLOCK * max(dim, 2 * cols)), np.empty(BLOCK * 2 * cols)
        proposed, tails = 0, []
        blocks = range(w * n_blocks // n_workers, (w + 1) * n_blocks // n_workers)
        for j in blocks:
            n, tail, gen = _sample_block(cdf, table, step, lf, j, int(seed), samples, work, spare)
            proposed += n
            if tail is not None:  # parked with its generator, its coefficients copied out of the buffers
                tails.append((gen, *tail[:3], tail[3].copy()))
            if tails and (len(tails) == _PARK or j == blocks[-1]):
                gens, idx, x, bound, coeffs = zip(*tails)
                ends = np.cumsum([i.size for i in idx]).tolist()
                coeffs = np.concatenate(coeffs, out=_rows(spare, ends[-1], cols))
                rows = (*map(np.concatenate, (idx, x, bound)), coeffs)
                proposed += _reject(gens, ends, rows, step, samples, [work, spare], 0)[0]
                tails = []
        return proposed

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            proposed = sum(pool.map(run, range(n_workers)))
    else:
        proposed = run(0)
    return SampleBatch(samples=samples, seed=int(seed), acceptance_rate=n_samples / proposed)


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
    _check_workers(n_workers)
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
    Rows are formatted ``BLOCK`` at a time by one ``%`` call, whose
    ``%.17g`` gives the same text as ``format(x, ".17g")``.
    """
    z = np.ascontiguousarray(batch.effective_samples(), dtype=complex)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"# seed={batch.seed} n={batch.n} acceptance={batch.acceptance_rate:.17g}\n"
        )
        if batch.zeta != 0:
            fh.write(f"# zeta={batch.zeta.real:.17g},{batch.zeta.imag:.17g}\n")
        if batch.translation != 0:
            fh.write(
                f"# translation={batch.translation.real:.17g},{batch.translation.imag:.17g}\n"
            )
        for i in range(0, z.size, BLOCK):
            chunk = z[i : i + BLOCK]
            fh.write(("%.17g,%.17g\n" * chunk.size) % tuple(chunk.view(float).tolist()))


_NONSPACE = re.compile(rb"\S")
_READ = 1 << 20  # bytes per read of the header scan


def _scan_header(path) -> tuple:
    """The tokens of the file's `#` lines, and whether any other line has text.

    A `#` with only whitespace before it on its line opens a header line,
    wherever that line sits; a `#` after a value opens a trailing comment.
    Only the `#` bytes are visited, never the data lines one by one.  The
    file is read ``_READ`` bytes at a time, and each read's partial last
    line is carried into the next, so every line is scanned whole.
    """
    tokens, has_rows, data = [], False, b""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_READ)
            data += chunk
            cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1 if chunk else len(data)
            pos = 0  # the search for row text resumes here
            i = data.find(b"#", 0, cut)
            while i >= 0:
                start = data.rfind(b"\n", 0, i) + 1
                start = max(start, data.rfind(b"\r", start, i) + 1)
                end = data.find(b"\n", i, cut)
                end = cut if end < 0 else end
                cr = data.find(b"\r", i, end)
                end = end if cr < 0 else cr
                if not data[start:i].strip():
                    has_rows = has_rows or _NONSPACE.search(data, pos, start) is not None
                    tokens.extend(data[i + 1 : end].decode("utf-8").split())
                    pos = end
                i = data.find(b"#", end, cut)
            has_rows = has_rows or _NONSPACE.search(data, pos, cut) is not None
            if not chunk:
                return tokens, has_rows
            data = data[cut:]


def load_csv(path) -> SampleBatch:
    """Read a sample file; any plain `re,im` CSV (headerless) is accepted.

    Values on disk are effective samples, so the loaded batch carries no
    pending translation (the header's translation token is provenance).
    Header tokens other than seed, n, acceptance and zeta, such as the
    ``sigma=`` that older files carry, are ignored.  The ``n=`` tokens
    must add up to the number of rows, so a truncated file is refused.
    The rows are parsed by numpy's C reader, which rounds correctly:
    empty lines and `#` comments are skipped, and every other line, one
    of only spaces included, must hold exactly two numbers.  Neither the header
    scan nor numpy's reader holds the whole file, so a load holds the
    parsed rows and a few reads of the file.
    """
    tokens, has_rows = _scan_header(path)
    seed = 0
    acceptance = 1.0
    zeta = 0j
    declared = None
    for tok in tokens:
        if "=" not in tok:
            continue
        key, val = tok.split("=", 1)
        if key == "seed":
            seed = int(val)
        elif key == "n":
            declared = (declared or 0) + int(val)
        elif key == "acceptance":
            acceptance = float(val)
        elif key == "zeta":
            re_s, im_s = val.split(",")
            zeta = complex(float(re_s), float(im_s))
    rows = np.empty((0, 2))
    if has_rows:
        rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2, encoding="utf-8")
        if rows.shape[1] != 2:
            raise ValueError(f"sample rows hold {rows.shape[1]} columns, not re,im")
    samples = rows.view(complex).reshape(-1)
    if declared is not None and samples.size != declared:
        raise ValueError(f"the header declares n={declared} but the file holds {samples.size} rows")
    return SampleBatch(
        samples=samples,
        seed=seed,
        acceptance_rate=acceptance,
        zeta=zeta,
    )
