"""Independent oracles for DERIVED expected values.

Everything here is deliberately implemented from the defining sums and
matrix exponentials, not from the recurrences under test, so the two
code paths share nothing but the definitions.  The exceptions are the
one-at-a-time references of restructured code (``sample_q_per_block``,
``ladder_block_scalar``, ``rank_bounded_objective_scalar``,
``ascend_scalar``, ``pn_threshold_loop``, ``kernel_values_one_shot``,
``estimate_one_shot``), which keep its earlier form to compare against.
"""

import cmath
import math

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from stellarq import estimator as est
from stellarq.errors import DomainError
from stellarq.fockspace import GaussianUnitaryParams, TruncatedState, coherent_row


def laguerre2d_direct(k: int, l: int, z: complex) -> complex:
    """Defining double-factorial sum of the Laguerre 2D polynomial."""
    total = 0j
    for p in range(min(k, l) + 1):
        coeff = (
            math.sqrt(math.factorial(k))
            * math.sqrt(math.factorial(l))
            * (-1) ** p
            / (math.factorial(p) * math.factorial(k - p) * math.factorial(l - p))
        )
        total += coeff * z ** (l - p) * np.conj(z) ** (k - p)
    return complex(total)


def laguerre_direct(n: int, x: float) -> float:
    """L_n(x) = sum_i (-1)^i / i! C(n, i) x^i, exact binomials."""
    return float(
        sum((-1) ** i / math.factorial(i) * math.comb(n, i) * x**i for i in range(n + 1))
    )


def kernel_g_scipy(k: int, l: int, p: int, z, eta: float) -> np.ndarray:
    """g_{k,l}^{(p)}(z, eta) over an array z, term by term in the shift j.

    Each f_{k+j,l+j} takes its Laguerre 2D polynomial from the reduction
    L2D_{K,L}(w) = (-1)^q sqrt(q!/(q+d)!) phi(w) L_q^{(d)}(|w|^2), q = min(K, L),
    d = |L - K|, phi = w^d (K <= L) or conj(w)^d, with scipy's
    eval_genlaguerre for the associated Laguerre polynomial.
    """
    z = np.asarray(z, dtype=complex)
    w = z / math.sqrt(eta)
    x = np.abs(w) ** 2
    total = np.zeros(z.shape, dtype=complex)
    for j in range(p):
        kk, ll = k + j, l + j
        q, d = min(kk, ll), abs(ll - kk)
        phi = w**d if kk <= ll else np.conj(w) ** d
        l2d = (-1) ** q * math.exp(0.5 * (gammaln(q + 1) - gammaln(q + d + 1))) * phi * eval_genlaguerre(q, d, x)
        coeff = (-1) ** j * math.exp(
            j * math.log(eta)
            + 0.5 * (math.log(math.comb(kk, k)) + math.log(math.comb(ll, l)))
            - (1.0 + (kk + ll) / 2.0) * math.log(eta)
        )
        total += coeff * l2d
    return total * np.exp((1.0 - 1.0 / eta) * np.abs(z) ** 2)


def operator_g_scipy(target, p: int, z, eta: float) -> np.ndarray:
    """g_A^{(p)} over an array z: kernel_g_scipy summed over the support of A."""
    z = np.asarray(z, dtype=complex)
    total = np.zeros(z.shape, dtype=complex)
    for k, l in target.support_indices():
        total += target.matrix[k, l] * kernel_g_scipy(k, l, p, z, eta)
    return total


def gaussian_block_expm(n_rows: int, m_cols: int, g: GaussianUnitaryParams, dim: int = 120):
    """<n| S(xi) D(beta) |m> for n < n_rows, m < m_cols from truncated
    matrix exponentials on a dim-level Fock space."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    ad = a.conj().T
    xi = g.squeeze_r * cmath.exp(1j * g.squeeze_theta)
    b = g.displacement
    s = expm(0.5 * (xi * a @ a - np.conj(xi) * ad @ ad))
    d = expm(b * ad - np.conj(b) * a)
    return (s @ d)[:n_rows, :m_cols]


def gaussian_element_expm(n: int, m: int, g: GaussianUnitaryParams, dim: int = 120) -> complex:
    """<n| S(xi) D(beta) |m> from truncated matrix exponentials."""
    return complex(gaussian_block_expm(n + 1, m + 1, g, dim)[n, m])


class _GaussPoly:
    """Polynomial prefactor of exp(a z^2 + b z + c); supports the operator
    algebra needed by the closed-form squeezed-displaced matrix element."""

    def __init__(self, coeffs, a, b, c):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.a, self.b, self.c = a, b, c

    def d_dz(self):
        der = np.arange(1, self.coeffs.size) * self.coeffs[1:]
        shifted = np.zeros(self.coeffs.size + 1, dtype=complex)
        shifted[1:] += 2 * self.a * self.coeffs
        shifted[: self.coeffs.size] += self.b * self.coeffs
        out = shifted
        out[: der.size] += der
        return _GaussPoly(out, self.a, self.b, self.c)

    def mul_z(self):
        return _GaussPoly(np.concatenate([[0], self.coeffs]), self.a, self.b, self.c)

    def scaled_add(self, other, w1=1.0, w2=1.0):
        n = max(self.coeffs.size, other.coeffs.size)
        out = np.zeros(n, dtype=complex)
        out[: self.coeffs.size] += w1 * self.coeffs
        out[: other.coeffs.size] += w2 * other.coeffs
        return _GaussPoly(out, self.a, self.b, self.c)

    def at_zero(self):
        return self.coeffs[0] * cmath.exp(self.c)


def gaussian_element_closed_form(n: int, m: int, g: GaussianUnitaryParams) -> complex:
    """<n| S(xi) D(alpha) |m> from the holomorphic-representation formula

    (m! n! cosh r)^{-1/2} [d^n/dz^n (cosh r z + sinh r e^{i th} d/dz
       - conj(alpha))^m exp(-e^{-i th} tanh r z^2 / 2 + alpha z / cosh r
       + e^{i th} tanh r alpha^2 / 2 - |alpha|^2 / 2)]_{z=0}
    """
    r, th, al = g.squeeze_r, g.squeeze_theta, g.displacement
    c, s, t = math.cosh(r), math.sinh(r), math.tanh(r)
    eith = cmath.exp(1j * th)
    a = -0.5 * cmath.exp(-1j * th) * t
    b = al / c
    const = 0.5 * eith * t * al * al - 0.5 * abs(al) ** 2
    poly = _GaussPoly([1.0], a, b, const)
    for _ in range(m):
        term = poly.mul_z().scaled_add(poly.d_dz(), w1=c, w2=s * eith)
        poly = term.scaled_add(poly, w1=1.0, w2=-np.conj(al))
    for _ in range(n):
        poly = poly.d_dz()
    norm = 1.0 / math.sqrt(math.factorial(m) * math.factorial(n) * c)
    return complex(norm * poly.at_zero())


def quadrature_q_expectation(state: TruncatedState, fn, extent: float, points: int = 601):
    """2-D trapezoid quadrature of fn(z) against Q_rho over a square."""
    from stellarq.fockspace import husimi_q

    xs = np.linspace(-extent, extent, points)
    X, Y = np.meshgrid(xs, xs)
    Z = (X + 1j * Y).ravel()
    q = husimi_q(state, Z)
    vals = fn(Z)
    h = xs[1] - xs[0]
    return complex(np.sum(q * vals) * h * h)


def radial_cdf_interp(state: TruncatedState, s_max: float, n_radii: int = 4000, n_phases: int = 128):
    """Callable CDF of |z| under Q_rho / Tr(rho), from dense quadrature."""
    from stellarq.fockspace import husimi_q

    s = np.linspace(0.0, s_max, n_radii)
    phases = np.exp(2j * np.pi * np.arange(n_phases) / n_phases)
    q = husimi_q(state, np.outer(s, phases).ravel()).reshape(n_radii, n_phases)
    dens = q.mean(axis=1) * 2 * math.pi * s
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(s))])
    cdf /= cdf[-1]

    def cdf_fn(x):
        return np.interp(x, s, cdf)

    return cdf_fn


def gamma_mixture_cdf(state: TruncatedState):
    """Callable CDF of |z|^2 under Q_rho / Tr(rho): sum_k rho_kk P(k+1, u) / Tr(rho).

    P is the regularized lower incomplete gamma function; phase-averaging
    Q leaves only the diagonal of rho, each level contributing a
    Gamma(k+1, 1) law.
    """
    from scipy.special import gammainc

    pops = np.real(np.diag(state.matrix))
    k = np.arange(state.dim) + 1.0

    def cdf_fn(u):
        u = np.asarray(u, dtype=float)
        return gammainc(k, u[..., None]) @ pops / pops.sum()

    return cdf_fn


def q_polar_cells(state: TruncatedState, shell_edges, n_phase_bins: int, r_nodes: int = 200,
                  phi_nodes: int = 16):
    """Probability of each (radius shell, phase bin) cell under Q_rho / Tr(rho).

    Midpoint quadrature of Q(z) s over every cell, from ``husimi_q``.
    """
    from stellarq.fockspace import husimi_q

    n_phi = n_phase_bins * phi_nodes
    phi = 2 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    out = np.empty((len(shell_edges) - 1, n_phase_bins))
    for i, (lo, hi) in enumerate(zip(shell_edges[:-1], shell_edges[1:])):
        s = lo + (hi - lo) * (np.arange(r_nodes) + 0.5) / r_nodes
        q = husimi_q(state, np.outer(s, np.exp(1j * phi)).ravel()).reshape(r_nodes, n_phi)
        cell = (q * s[:, None]).sum(axis=0).reshape(n_phase_bins, phi_nodes).sum(axis=1)
        out[i] = cell * (hi - lo) / r_nodes * 2 * math.pi / n_phi
    return out / state.trace


def count_zeros_winding(amplitudes: np.ndarray, radius: float, n_points: int = 8192) -> int:
    """Zeros of B(z) = sum_n psi_n z^n / sqrt(n!) inside |z| < radius.

    Argument-principle count via the winding number of B on the circle;
    the zero count of this entire series is the stellar rank.
    """
    n = amplitudes.size
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n)))])
    coeffs = amplitudes / np.exp(0.5 * logfact)
    theta = 2 * np.pi * np.arange(n_points + 1) / n_points
    z = radius * np.exp(1j * theta)
    vals = np.polyval(coeffs[::-1], z)
    phase = np.unwrap(np.angle(vals))
    return int(round((phase[-1] - phase[0]) / (2 * math.pi)))


def parity_sum(state: TruncatedState) -> float:
    """(2/pi) sum_k (-1)^k rho_kk, the undisplaced Wigner value."""
    pops = np.real(np.diag(state.matrix))
    return float(2.0 / math.pi * ((-1.0) ** np.arange(state.dim) @ pops))


def sample_q_per_block(state: TruncatedState, n_samples: int, seed: int):
    """(samples, proposals) of ``dhd.sample_q``, one block at a time with fresh arrays.

    The reference for the sampler's buffered blocks: every block builds its
    own Poisson weights, phase coefficients and magnitudes, gathers the
    rejected rows by a mask each round, and the blocks are concatenated at
    the end.  Only the phase table and the block constants come from ``dhd``.
    """
    from numpy.random import Generator, Philox

    from stellarq.dhd import _PHASE_SCALE, BLOCK, _phase_table
    from stellarq.specfun import log_factorial

    def poisson_weights(s2, dim):
        out = np.zeros((s2.size, dim))
        with np.errstate(divide="ignore"):
            np.multiply.outer(np.log(s2), np.arange(1, dim), out=out[:, 1:])
        out -= s2[:, None]
        out -= log_factorial(np.arange(dim))
        return np.exp(out, out=out)

    def horner(coeffs, w):
        acc = coeffs[:, -1] * w
        for m in range(coeffs.shape[1] - 2, 0, -1):
            acc += coeffs[:, m]
            acc *= w
        return acc

    def block(j, count):
        gen = Generator(Philox(key=seed, counter=j << 64))
        level = np.minimum(np.searchsorted(cdf, gen.random(count) * cdf[-1], side="right"), cdf.size - 1)
        s2 = gen.standard_gamma(level + 1.0)
        s = np.sqrt(s2)
        if table.shape[1] == 1:
            return s * np.exp(2j * np.pi * gen.random(count)), count
        coeffs = (poisson_weights(s2, table.shape[0]) @ table.view(float)).view(complex)
        x = (s / _PHASE_SCALE) ** step
        bound = coeffs[:, 0].real + 2.0 * horner(np.abs(coeffs), x)
        phase = np.empty(count)
        pending = np.arange(count)
        proposed = 0
        while pending.size:
            u = gen.random((2, pending.size))
            density = coeffs[:, 0].real + 2.0 * horner(coeffs, x * np.exp(2j * np.pi * step * u[0])).real
            acc = u[1] * bound < density
            phase[pending[acc]] = u[0, acc]
            proposed += pending.size
            rej = ~acc
            pending, coeffs, x, bound = pending[rej], coeffs[rej], x[rej], bound[rej]
        return s * np.exp(2j * np.pi * phase), proposed

    cdf = np.cumsum(np.maximum(state.populations(), 0.0))
    table, step = _phase_table(state)
    parts = [block(j, min(BLOCK, n_samples - j * BLOCK)) for j in range(-(-n_samples // BLOCK))]
    return np.concatenate([p[0] for p in parts]), sum(p[1] for p in parts)


def ladder_block_scalar(n_rows: int, m_cols: int, g: GaussianUnitaryParams) -> np.ndarray:
    """<m| S(xi) D(beta) |j> by the ladder recurrences of ``fockspace._ladder_block``,
    one point at a time in Python complex scalars (the reference for its stacked
    form)."""
    from stellarq.fockspace import _affine

    a, b, gamma = (complex(t) for t in _affine(g.squeeze_r, g.squeeze_theta, g.displacement))
    r, beta = g.squeeze_r, complex(g.displacement)
    root = [math.sqrt(m) for m in range(max(n_rows, m_cols))]
    ratio = b / a
    shift = gamma - ratio * gamma.conjugate()
    cur = math.sqrt(1.0 / math.cosh(r)) * cmath.exp(
        0.5 * cmath.exp(1j * g.squeeze_theta) * math.tanh(r) * beta * beta - 0.5 * abs(beta) ** 2
    )
    prev, col = 0j, [cur]
    for m in range(1, n_rows):
        prev, cur = cur, (shift * cur + ratio * root[m - 1] * prev) / root[m]
        col.append(cur)
    cols = [col]
    b_conj, gamma_conj = b.conjugate(), gamma.conjugate()
    before = [0j] * n_rows
    for j in range(1, m_cols):
        scale = 1.0 / (a * root[j])
        back = b_conj * root[j - 1]
        # root[0] = 0 drops the wrapped col[-1] from row 0
        before, col = col, [
            (root[m] * col[m - 1] - gamma_conj * col[m] - back * before[m]) * scale for m in range(n_rows)
        ]
        cols.append(col)
    return np.array(cols).T


def rank_bounded_objective_scalar(coeffs: np.ndarray, k: int):
    """F = ||P_{<k} S(r e^{i theta}) D(beta) c||^2 and its gradient in (r, theta, Re beta,
    Im beta), one point at a time, as ``stellar._objective`` evaluates a stack of points;
    blocks by ``ladder_block_scalar`` up to ``fockspace._LADDER_MAX_ENTRIES`` entries."""
    from stellarq.fockspace import _LADDER_MAX_ENTRIES, gaussian_matrix
    from stellarq.stellar import _unsigned

    n = coeffs.size
    c = np.append(coeffs, 0.0)
    lift = np.sqrt(np.arange(1.0, n + 1.0))
    up = np.zeros(n + 1, dtype=complex)  # a^dag c
    up[1:] = lift * coeffs
    down = np.zeros(n + 1, dtype=complex)  # a c
    down[: n - 1] = lift[: n - 1] * coeffs[1:]
    core = np.column_stack([c, up, down, np.arange(n + 1) * c])
    levels = np.arange(k, dtype=float)
    lowering = np.sqrt((levels + 1.0) * (levels + 2.0))
    raising = np.sqrt(levels[2:] * (levels[2:] - 1.0))
    block = ladder_block_scalar if (k + 2) * (n + 1) <= _LADDER_MAX_ENTRIES else gaussian_matrix

    def value_and_gradient(x) -> tuple:
        r, th, br, bi = (float(t) for t in x)
        beta = complex(br, bi)
        v = block(k + 2, n + 1, GaussianUnitaryParams(*_unsigned((r, th)), beta)) @ core
        bra = v[:k, 0].conj()
        norm, on_up, on_down, on_number = (bra @ v[:k]).tolist()
        on_shifted = on_number + beta * on_up + beta.conjugate() * on_down + abs(beta) ** 2 * norm
        on_lowered = complex(bra @ (lowering * v[2:, 0]))
        on_raised = complex(bra[2:] @ (raising * v[: raising.size, 0]))
        turn = cmath.exp(1j * th)
        d_r = (turn * on_lowered - turn.conjugate() * on_raised).real
        grad = np.array([d_r, -on_shifted.imag, 2.0 * (on_up - on_down).real, -2.0 * (on_up + on_down).imag])
        return norm.real, grad

    return value_and_gradient


def ascend_scalar(objective, x0, lo, hi) -> dict:
    """One restart of ``stellar._ascend`` run alone, in numpy 4-vectors: projected BFGS
    with the same line search and stop rule, calling ``objective(x)`` -> (F, dF/dx)
    directly.  The reference for the lockstep ascent."""
    from stellarq.stellar import _FTOL, _GTOL, _MAX_ITER, _MAX_TRIALS, _STATIONARY_TOL, _unsigned

    def projected_step(x, grad):
        return float(np.max(np.abs(np.clip(x + grad, lo, hi) - x)))

    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g = objective(x)
    nfev, h, scaled, converged = 1, np.eye(x.size), False, False
    for _ in range(_MAX_ITER):
        if projected_step(x, g) <= _GTOL:
            converged = True
            break
        held = ((x <= lo) & (g < 0)) | ((x >= hi) & (g > 0))
        d = h @ np.where(held, 0.0, g)
        if held.any():  # the inverse of the free block of H^-1, by its Schur complement
            d -= h[:, held] @ np.linalg.solve(h[np.ix_(held, held)], d[held])
        d[held | ((x <= lo) & (d < 0)) | ((x >= hi) & (d > 0))] = 0.0
        if g @ d <= 0.0:
            d = np.where(held, 0.0, g)
        t = 1.0 if scaled else min(1.0, 1.0 / float(np.linalg.norm(g)))
        step, shrunk = None, False
        for _ in range(_MAX_TRIALS):
            x_new = np.clip(x + t * d, lo, hi)
            if step is not None and np.array_equal(x_new, step[0]):
                break
            f_new, g_new = objective(x_new)
            nfev += 1
            gain = float(g @ (x_new - x))
            if f_new < f + 1e-4 * gain:
                if step is not None:
                    break
                t, shrunk = 0.5 * t, True
                continue
            step = (x_new, f_new, g_new)
            if shrunk or float(g_new @ (x_new - x)) <= 0.9 * gain:
                break
            t *= 2.0
        if step is None:
            converged = projected_step(x, g) <= _STATIONARY_TOL
            break
        s, y = step[0] - x, g - step[2]
        sy = float(s @ y)
        if sy > 1e-12 * float(y @ y):
            if not scaled:
                h, scaled = np.eye(x.size) * (sy / float(y @ y)), True
            v = np.eye(x.size) - np.outer(s, y) / sy
            h = v @ h @ v.T + np.outer(s, s) / sy
        rise = (step[1] - f) / max(abs(f), abs(step[1]), 1.0)
        x, f, g = step
        if rise <= _FTOL:
            converged = True
            break
    return {"objective": float(f), "params": _unsigned(x), "converged": converged, "nfev": nfev}


def pn_threshold_loop(n: int, p: int, eta: float) -> int:
    """``estimator.pn_threshold`` as a count up from q = p (the reference for its search)."""
    q = p
    while True:
        if eta <= (1.0 - (p - 1) / q) * (1.0 - n / (n + q + 1)):
            return q
        q += 1
        if q > 10_000_000:  # reached near eta = 1 - 1e-7, where p_n exists but the count gives up
            raise DomainError("pn_threshold failed to terminate")


def kernel_values_one_shot(batch_samples, config) -> np.ndarray:
    """``estimator.kernel_values`` as one series pass over the whole batch (the reference for its blocks)."""
    z = np.asarray(batch_samples, dtype=complex)
    if config.is_diagonal:
        w, offset = est.radial_kernel(config)
        return est._series_eval({0: w}, config.eta, np.abs(z) ** 2 / config.eta) + offset
    return est._kernel_at(est._operator_weights(config.target, config.p, config.eta), config.eta, z)


def estimate_one_shot(samples, config):
    """``estimator.estimate`` of a plain sample array on ``kernel_values_one_shot``, its CLT
    variance by ``np.var`` (diagonal) or ``np.mean`` (non-diagonal): the reference for the
    variance formed in place."""
    values = kernel_values_one_shot(samples, config)
    mean = est._chunked_mean(values)
    variance = None
    if config.bound_method == est.CLT and config.is_diagonal:
        variance = float(np.var(values))
    elif config.bound_method == est.CLT:
        variance = float(np.mean(np.abs(values - mean) ** 2))
    return est.estimate_from_moments(config, values.size, mean, variance)
