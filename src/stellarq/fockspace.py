"""Truncated Fock-basis states, Gaussian unitaries, and phase-space oracles.

The single universal state representation is a density matrix on the
truncated basis |0>..|d-1> together with an explicit ``trace_deficit``:
the probability mass lost to truncation.  Nothing here assumes the
physical state has bounded support; instead every operation that can
leak mass accounts for it, so downstream consumers can certify their own
approximation error rather than silently clipping.

Conventions (fixed throughout the package):

    D(beta) = exp(beta a^dag - conj(beta) a)
    S(xi)   = exp((xi a^2 - conj(xi) a^dag^2) / 2),   xi = r e^{i theta}
    G       = S(xi) D(beta)   (squeeze applied after the displacement)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffError, DomainError, UndefinedSubtractionError
from .specfun import log_factorial

__all__ = [
    "GaussianUnitaryParams",
    "TruncatedState",
    "CoreState",
    "TargetOperator",
    "make_fock",
    "make_lossy_fock",
    "make_thermal",
    "make_squeezed_thermal",
    "photon_subtract",
    "photon_add",
    "gaussian_matrix",
    "gaussian_matrix_element",
    "apply_gaussian",
    "husimi_q",
    "coherent_row",
    "wigner",
    "fidelity",
    "db_to_r",
]

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-9
DEFICIT_TOL = 1e-6

_MAX_AUTO_DIM = 4096


def db_to_r(db: float) -> float:
    """Squeezing parameter r for a quadrature-noise reduction in dB."""
    return db * math.log(10.0) / 20.0


@dataclass(frozen=True)
class GaussianUnitaryParams:
    """Parameters of G = S(xi) D(beta) with xi = squeeze_r e^{i squeeze_theta}."""

    squeeze_r: float = 0.0
    squeeze_theta: float = 0.0
    displacement: complex = 0j

    def __post_init__(self):
        if self.squeeze_r < 0:
            raise DomainError("squeeze_r must be nonnegative")

    @property
    def xi(self) -> complex:
        return self.squeeze_r * cmath.exp(1j * self.squeeze_theta)

    @property
    def is_identity(self) -> bool:
        return self.squeeze_r == 0.0 and self.displacement == 0j

    def inverse(self) -> "GaussianUnitaryParams":
        """Parameters of G^dag, rewritten in S D order.

        G^dag = D(-beta) S(-xi) = S(-xi) D(-gamma), gamma the Heisenberg
        shift of G = D(gamma) S(xi) (see ``_affine``).
        """
        theta_p = math.remainder(self.squeeze_theta + math.pi, 2 * math.pi)
        return GaussianUnitaryParams(self.squeeze_r, theta_p, -complex(_affine(self)[2]))


class TruncatedState:
    """Density matrix on the Fock basis |0>..|dim-1> with trace accounting.

    Invariants (validated on construction):
      * Hermitian within 1e-12,
      * positive semidefinite within -1e-10 on the smallest eigenvalue,
      * Tr(rho) + trace_deficit = 1 within 1e-9.
    """

    def __init__(self, matrix, trace_deficit: float = 0.0, validate: bool = True):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("state matrix must be square")
        self.matrix = m
        self.dim = m.shape[0]
        self.trace_deficit = float(trace_deficit)
        if validate:
            self.validate()

    def validate(self):
        m = self.matrix
        herm = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if herm > HERMITICITY_TOL:
            raise DomainError(f"state not Hermitian: max asymmetry {herm:.3e}")
        if self.trace_deficit < -TRACE_TOL:
            raise DomainError("trace_deficit must be nonnegative")
        tr = float(np.real(np.trace(m)))
        if abs(tr + self.trace_deficit - 1.0) > TRACE_TOL:
            raise DomainError(
                f"trace {tr:.12f} + deficit {self.trace_deficit:.3e} != 1"
            )
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -PSD_TOL:
            raise DomainError(f"state not PSD: min eigenvalue {lo:.3e}")

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def mean_photon(self) -> float:
        """<n> of the truncated matrix, renormalized by its trace."""
        k = np.arange(self.dim)
        return float(k @ self.populations() / self.trace)

    def var_photon(self) -> float:
        k = np.arange(self.dim)
        p = self.populations() / self.trace
        m1 = float(k @ p)
        return float((k * k) @ p - m1 * m1)

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(np.int64(self.dim).tobytes())
        h.update(np.ascontiguousarray(self.matrix).tobytes())
        h.update(np.float64(self.trace_deficit).tobytes())
        return h.hexdigest()

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "re": np.real(self.matrix).tolist(),
            "im": np.imag(self.matrix).tolist(),
            "trace_deficit": self.trace_deficit,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TruncatedState":
        m = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
        if m.shape != (d["dim"], d["dim"]):
            raise DomainError("state JSON dim does not match matrix shape")
        return cls(m, trace_deficit=float(d.get("trace_deficit", 0.0)))


@dataclass(frozen=True)
class CoreState:
    """Finite-rank pure state S(xi) D(beta) sum_m c_m |m>.

    ``coeffs`` are the core coefficients c_0..c_n, normalized to 1; the
    leading coefficient must be nonzero (it defines the stellar rank n).
    """

    coeffs: tuple
    gaussian_frame: GaussianUnitaryParams = field(default_factory=GaussianUnitaryParams)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise DomainError("core coefficients must be a nonempty vector")
        if abs(np.vdot(c, c).real - 1.0) > 1e-12:
            raise DomainError("core coefficients must be normalized")
        if abs(c[-1]) < 1e-12:
            raise DomainError("leading core coefficient must be nonzero")
        object.__setattr__(self, "coeffs", tuple(complex(x) for x in c))

    @classmethod
    def fock(cls, n: int) -> "CoreState":
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        return cls(tuple(c))

    @classmethod
    def from_unnormalized(
        cls, coeffs, frame: GaussianUnitaryParams | None = None
    ) -> "CoreState":
        c = np.asarray(coeffs, dtype=complex)
        while c.size > 1 and abs(c[-1]) < 1e-14:
            c = c[:-1]
        nrm = math.sqrt(np.vdot(c, c).real)
        if nrm == 0.0:
            raise DomainError("cannot normalize zero coefficient vector")
        return cls(tuple(c / nrm), frame or GaussianUnitaryParams())

    @property
    def stellar_rank(self) -> int:
        return len(self.coeffs) - 1

    def fock_vector(self, n_max: int) -> np.ndarray:
        """Amplitudes <n|psi> for n < n_max (exact per component)."""
        c = np.asarray(self.coeffs, dtype=complex)
        return gaussian_matrix(n_max, c.size, self.gaussian_frame) @ c

    def to_state(self, dim: int) -> TruncatedState:
        """|psi><psi| on dim levels: ``apply_gaussian`` of the frame to the core
        projector at out_dim=dim, so a cut past DEFICIT_TOL raises its CutoffError."""
        c = np.asarray(self.coeffs, dtype=complex)
        return apply_gaussian(TruncatedState(np.outer(c, c.conj())), self.gaussian_frame, out_dim=dim)


class TargetOperator:
    """Operator A = sum_kl A_kl |k><l| with bounded Fock support."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("target operator matrix must be square")
        self.matrix = m
        self.dim = m.shape[0]

    @classmethod
    def fock_projector(cls, n: int) -> "TargetOperator":
        m = np.zeros((n + 1, n + 1), dtype=complex)
        m[n, n] = 1.0
        return cls(m)

    @classmethod
    def core_projector(cls, core: CoreState) -> "TargetOperator":
        if not core.gaussian_frame.is_identity:
            raise DomainError(
                "core_projector takes a frameless core state; revert the frame "
                "on the sample side (unbalancing + translation) instead"
            )
        c = np.asarray(core.coeffs, dtype=complex)
        return cls(np.outer(c, c.conj()))

    @property
    def is_diagonal(self) -> bool:
        off = self.matrix - np.diag(np.diag(self.matrix))
        return not np.any(off)

    def diagonal_entries(self):
        """(index, weight) pairs of nonzero real diagonal entries."""
        d = np.diag(self.matrix)
        return [(int(k), float(np.real(w))) for k, w in enumerate(d) if w != 0]

    def support_indices(self):
        ks, ls = np.nonzero(self.matrix)
        return list(zip(ks.tolist(), ls.tolist()))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_fock(n: int, dim: int) -> TruncatedState:
    """Pure Fock state |n><n| on a cutoff-dim basis."""
    if n < 0:
        raise DomainError("photon number must be nonnegative")
    if n >= dim:
        raise CutoffError(f"Fock index {n} does not fit below cutoff {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    m[n, n] = 1.0
    return TruncatedState(m)


def make_lossy_fock(n: int, eta: float, dim: int) -> TruncatedState:
    """|n> through a transmissivity-eta loss channel (binomial populations)."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"loss efficiency must lie in [0, 1], got {eta}")
    if n >= dim:
        raise CutoffError(f"Fock index {n} does not fit below cutoff {dim}")
    pops = np.zeros(dim)
    for k in range(n + 1):
        logp = (
            log_factorial(n)
            - log_factorial(k)
            - log_factorial(n - k)
            + (k * math.log(eta) if eta > 0 else (0.0 if k == 0 else -math.inf))
            + ((n - k) * math.log(1 - eta) if eta < 1 else (0.0 if k == n else -math.inf))
        )
        pops[k] = math.exp(logp) if logp > -math.inf else 0.0
    return TruncatedState(np.diag(pops.astype(complex)))


def make_thermal(nbar: float, dim: int) -> TruncatedState:
    """Thermal state with mean occupation nbar, truncated at dim."""
    if nbar < 0:
        raise DomainError("thermal occupation must be nonnegative")
    if nbar == 0:
        return make_fock(0, dim)
    k = np.arange(dim)
    p = np.exp(k * math.log(nbar / (1 + nbar)) - math.log(1 + nbar))
    deficit = (nbar / (1 + nbar)) ** dim
    return TruncatedState(np.diag(p.astype(complex)), trace_deficit=deficit)


def make_squeezed_thermal(r: float, theta: float, purity: float, dim: int) -> TruncatedState:
    """S(xi) rho_thermal S(xi)^dag with occupation nbar = (1/purity - 1)/2.

    The squeezed thermal family is the standard one-parameter impurity
    model whose output purity equals the requested preparation purity
    exactly (unitaries preserve purity).  The thermal state is cut at the
    first of max(2 dim, 32) doubled that drops at most DEFICIT_TOL / 100,
    and ``apply_gaussian`` squeezes it at out_dim=dim, so a cut past
    DEFICIT_TOL raises its CutoffError.
    """
    if not 0.0 < purity <= 1.0:
        raise DomainError(f"purity must lie in (0, 1], got {purity}")
    nbar = (1.0 / purity - 1.0) / 2.0
    work = max(2 * dim, 32)
    th = make_thermal(nbar, work)
    while th.trace_deficit > DEFICIT_TOL / 100 and work < _MAX_AUTO_DIM:
        work *= 2
        th = make_thermal(nbar, work)
    return apply_gaussian(th, GaussianUnitaryParams(r, theta, 0j), out_dim=dim)


def photon_subtract(state: TruncatedState) -> TruncatedState:
    """Post-selected annihilation: a rho a^dag renormalized, dim - 1."""
    k = np.arange(1, state.dim)
    norm = float(k @ np.real(np.diag(state.matrix))[1:])
    if norm <= 1e-12:
        raise UndefinedSubtractionError(
            "photon subtraction undefined: Tr(a rho a^dag) vanishes"
        )
    amp = np.sqrt(np.arange(1, state.dim, dtype=float))
    out = state.matrix[1:, 1:] * np.outer(amp, amp)
    out = out / norm * (1.0 - state.trace_deficit)
    return TruncatedState(out, trace_deficit=state.trace_deficit)


def photon_add(state: TruncatedState) -> TruncatedState:
    """Post-selected creation: a^dag rho a renormalized, dim + 1."""
    d = state.dim
    norm = float((np.arange(d) + 1.0) @ np.real(np.diag(state.matrix)))
    out = np.zeros((d + 1, d + 1), dtype=complex)
    amp = np.sqrt(np.arange(1, d + 1, dtype=float))
    out[1:, 1:] = state.matrix * np.outer(amp, amp)
    out = out / norm * (1.0 - state.trace_deficit)
    return TruncatedState(out, trace_deficit=state.trace_deficit)


# ---------------------------------------------------------------------------
# Gaussian unitary matrix elements
# ---------------------------------------------------------------------------
#
# The displacement block is evaluated exactly through the associated-
# Laguerre closed form: one stable upward recurrence in the smaller Fock
# index runs along every diagonal at once, and each element is assembled
# in log magnitude so huge binomials against tiny Gaussian factors cannot
# overflow.  A squeeze block with at most 32 rows or columns runs one
# three-term recurrence over its rows in real arithmetic, from an exact row 0;
# a larger one comes from an exact eigendecomposition of each parity sector of
# the generator, truncated to adaptively padded, self-consistency-checked
# levels.  Against that sector solve converged to 1e-13 (r <= 3, up to 600
# columns or 1,000 rows) the recurrence is off by at most 8.6e-13 with up to
# 24 rows, 3.5e-11 with 32 rows and 7.8e-12 on tall blocks of 32 columns.  With
# both sides larger it amplifies a parasitic solution: 2.9e-10 at 36 rows and
# 2.5e-9 at 40, and at r = 1 the 200 x 200 block is off by 1e14.

_SQUEEZE_RECURRENCE_MAX = 32
_LAGUERRE_RESCALE = 2.0**512


def _displacement_matrix(n_rows: int, m_cols: int, beta: complex) -> np.ndarray:
    """<n| D(beta) |m>: for n = m + a >= m equals
    sqrt(m!/n!) beta^a e^{-|b|^2/2} L_m^{(a)}(|b|^2); the upper
    triangle m = n + a follows with beta -> -conj(beta)."""
    out = np.zeros((n_rows, m_cols), dtype=complex)
    if beta == 0:
        np.fill_diagonal(out, 1.0)
        return out
    x = abs(beta) ** 2
    steps = min(n_rows, m_cols)
    width = max(n_rows, m_cols)
    a = np.arange(width)  # diagonal offset
    m = np.arange(steps)[:, None]
    far = m + a  # the larger Fock index; only entries below width are kept
    lf = log_factorial(np.arange(width))
    lag = np.ones((steps, width))  # lag[m, a] 2^shift[m, a] = L_m^{(a)}(x)
    rescaled = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        prev, cur = np.zeros(width), lag[0]
        for j in range(1, steps):
            prev, cur = cur, ((2 * (j - 1) + a + 1 - x) * cur - (j - 1 + a) * prev) / j
            # a step grows a value at most (2 a + x + 3)-fold, so checking every
            # 8 steps against 2^512 stays far below overflow; a per-column
            # power of two is exact and keeps the values finite
            if j % 8 == 0 and np.max(np.abs(cur)) > _LAGUERRE_RESCALE:
                _, e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
                unit_step = np.ldexp(1.0, -e)
                prev, cur = prev * unit_step, cur * unit_step
                rescaled.append((j, e))
            lag[j] = cur
        log_lag = np.log(np.abs(lag))
        if rescaled:
            shift = np.zeros(lag.shape, dtype=int)
            for j, e in rescaled:
                shift[j] = e
            shift = np.cumsum(shift, axis=0)
            # rebuilt exactly where the unscaled value is finite, so those
            # entries match the unrescaled recurrence bit for bit
            full = np.ldexp(lag, shift)
            log_lag = np.where(np.isinf(full), log_lag + shift * math.log(2.0), np.log(np.abs(full)))
        logmag = (
            a * math.log(abs(beta))
            + 0.5 * (lf[m] - lf[np.minimum(far, width - 1)])
            - 0.5 * x
            + log_lag
        )
        val = np.sign(lag) * np.exp(logmag)
    unit = beta / abs(beta)
    low = far < n_rows
    cols = np.broadcast_to(m, far.shape)
    out[far[low], cols[low]] = (val * unit**a)[low]
    up = (far < m_cols) & (a > 0)
    out[cols[up], far[up]] = (val * (-np.conj(unit)) ** a)[up]
    return out


def _squeeze_matrix_recurrence(n_rows: int, m_cols: int, r: float, th: float) -> np.ndarray:
    """<n| S(xi) |m> by a three-term recurrence over rows, vectorized over m.

    It runs in real arithmetic on S(r), since <n|S(r e^{i th})|m> =
    e^{-i th (n - m) / 2} <n|S(r)|m>.  Row 0 is <0|S(r)|0> = sqrt(sech r)
    times one cumulative product of the exact ratio
    <0|S(r)|m+2> / <0|S(r)|m> = tanh r sqrt((m+1)/(m+2)), and 0 at odd m.
    From S(r) a S(r)^dag = cosh r a + sinh r a^dag the later rows follow:
    sqrt(n) <n|S|m> = sech r sqrt(m) <n-1|S|m-1> - tanh r sqrt(n-1) <n-2|S|m>.
    """
    if r < 1e-300:  # S = 1 to double precision
        return np.eye(n_rows, m_cols, dtype=complex)
    out = np.zeros((n_rows, m_cols))
    sech, t = 1.0 / math.cosh(r), math.tanh(r)
    m = np.arange(0, m_cols - 2, 2)
    ratio = t * np.sqrt((m + 1.0) / (m + 2.0))
    out[0, ::2] = np.cumprod(np.concatenate([[math.sqrt(sech)], ratio]))[: (m_cols + 1) // 2]
    up = sech * np.sqrt(np.arange(1, m_cols))
    for n in range(1, n_rows):
        out[n, 1:] = up * out[n - 1, :-1]
        if n >= 2:
            out[n] -= t * math.sqrt(n - 1) * out[n - 2]
        out[n] /= math.sqrt(n)
    return out * np.exp(-0.5j * th * np.subtract.outer(np.arange(n_rows), np.arange(m_cols)))


_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _zero_diagonal_eigh(offdiag: np.ndarray) -> tuple:
    """Eigenvalues and eigenvectors of the real symmetric tridiagonal H with zero
    diagonal and off-diagonal ``offdiag``.

    H only couples even indices to odd ones: H = [[0, B], [B^T, 0]] in that
    order, with B[a, a] = offdiag[2a] and B[a, a - 1] = offdiag[2a - 1].  So
    B = U diag(s) W^T gives the eigenpairs (+-s, (U, +-W) / sqrt 2), and each
    column of U past W's gives (0, (U, 0)).
    """
    size = offdiag.size + 1
    even, odd = (size + 1) // 2, size // 2
    b = np.zeros((even, odd))
    b[np.arange(odd), np.arange(odd)] = offdiag[0::2]
    b[np.arange(1, even), np.arange(even - 1)] = offdiag[1::2]
    u, sv, wt = np.linalg.svd(b)
    v = np.zeros((size, size))
    v[0::2, :odd] = v[0::2, odd : 2 * odd] = u[:, :odd] / math.sqrt(2.0)
    v[1::2, :odd] = wt.T / math.sqrt(2.0)
    v[1::2, odd : 2 * odd] = -v[1::2, :odd]
    v[0::2, 2 * odd :] = u[:, odd:]
    return np.concatenate([sv, -sv, np.zeros(size - 2 * odd)]), v


def _squeeze_matrix_sectors(n_rows: int, m_cols: int, r: float, th: float, pad: int) -> np.ndarray:
    """<n| S(xi) |m> of the squeeze generator truncated to pad levels, exactly.

    <n|S(r e^{i th})|m> = e^{-i th (n - m) / 2} <n|S(r)|m>, since the
    rotation e^{-i th n / 2} takes one into the other.  On the levels
    n_j = p + 2j of each parity p, (r/2)(a^2 - a^dag^2) is real, antisymmetric
    and tridiagonal, with s_j = (r/2) sqrt((n_j + 1)(n_j + 2)) above the
    diagonal; D = diag(i^j) turns it into D (iH) D^-1, H real symmetric
    tridiagonal with off-diagonal s_j, so with H = V Lambda V^T the sector
    block of S(r) is (D V) e^{i Lambda} (D V)^dag (``_zero_diagonal_eigh``).
    """
    out = np.zeros((n_rows, m_cols), dtype=complex)
    for p in (0, 1):
        n = np.arange(p, pad, 2)
        lam, v = _zero_diagonal_eigh(0.5 * r * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0)))
        dv = _QUARTER_TURNS[np.arange(n.size) % 4, None] * v
        rows, cols = dv[: (n_rows - p + 1) // 2], dv[: (m_cols - p + 1) // 2]
        out[p::2, p::2] = ((rows * np.exp(1j * lam)) @ cols.conj().T).real
    return out * np.exp(-0.5j * th * np.subtract.outer(np.arange(n_rows), np.arange(m_cols)))


def _squeeze_matrix_padded(n_rows: int, m_cols: int, r: float, th: float) -> np.ndarray:
    """The squeeze block on pads 64 * 1.5^k from max(n_rows, m_cols) + 48 on,
    until two in a row agree to 1e-12 or the pad reaches _MAX_AUTO_DIM."""
    pad = 64
    while pad < max(n_rows, m_cols) + 48:
        pad = int(1.5 * pad)
    cur, nxt = None, _squeeze_matrix_sectors(n_rows, m_cols, r, th, pad)
    while pad < _MAX_AUTO_DIM and (cur is None or np.max(np.abs(nxt - cur)) >= 1e-12):
        cur, pad = nxt, int(1.5 * pad)
        nxt = _squeeze_matrix_sectors(n_rows, m_cols, r, th, pad)
    return nxt


def _squeeze_block(n_rows: int, m_cols: int, r: float, th: float) -> np.ndarray:
    if min(n_rows, m_cols) <= _SQUEEZE_RECURRENCE_MAX:
        return _squeeze_matrix_recurrence(n_rows, m_cols, r, th)
    return _squeeze_matrix_padded(n_rows, m_cols, r, th)


def _compose(outer, inner, start: float) -> np.ndarray:
    """outer(k) @ inner(k) over k = ceil(start) inner levels, doubled up to
    _MAX_AUTO_DIM until the columns of inner(k) or the rows of outer(k), cuts
    of unit vectors, hold norm 1 to 1e-10 and less than 1e-13 in their last 16
    levels (CutoffError if neither does).  Past the bulk S(xi)|j> falls by tanh r
    every two levels and D(beta)|j> faster, so the dropped norm is under ten times
    the last 16 levels' for r <= 4 (a larger r never reaches unit norm in the cap);
    entry [n, m] drops at most the smaller of row n's and column m's (Cauchy-Schwarz).
    """
    def covered(block):
        mass = block.real**2 + block.imag**2
        return np.max(np.abs(mass.sum(axis=0) - 1.0)) <= 1e-10 and np.max(mass[-16:].sum(axis=0)) <= 1e-26

    size = math.ceil(min(start, _MAX_AUTO_DIM))
    while True:
        right = inner(size)
        if covered(right):
            return outer(size) @ right
        left = outer(size)
        if covered(left.T):
            return left @ right
        if size >= _MAX_AUTO_DIM:
            raise CutoffError(f"the inner index of a Gaussian block needs over {_MAX_AUTO_DIM} levels")
        size = min(2 * size, _MAX_AUTO_DIM)


def gaussian_matrix(n_rows: int, m_cols: int, g: GaussianUnitaryParams) -> np.ndarray:
    """Matrix u[n, m] = <n| S(xi) D(beta) |m> for n < n_rows, m < m_cols.

    Pure displacements and pure squeezes use their direct blocks.  The general
    case is a product over an inner index (``_compose``): D(gamma) @ S for more
    than 32 rows and at most 32 columns, D(gamma) = S D(beta) S^dag, and
    S @ D(beta) otherwise, so that the squeeze factor runs its row recurrence
    whenever one side of the block allows it.  It starts at the fewer levels
    that cover the squeeze factor's side or the displacement factor's (about
    |c|^2 + |c| sqrt(2j + 1) past j for D(c)); each covered its side at once
    over r <= 2.3 and |beta| <= 12.5.
    """
    r, th, b = g.squeeze_r, g.squeeze_theta, complex(g.displacement)
    if r == 0.0:
        return _displacement_matrix(n_rows, m_cols, b)
    if b == 0:
        return _squeeze_block(n_rows, m_cols, r, th)
    tall = n_rows > _SQUEEZE_RECURRENCE_MAX >= m_cols
    s_side, d_side, c = (m_cols, n_rows, complex(_affine(g)[2])) if tall else (n_rows, m_cols, b)
    start = min(s_side + 32 + (60 + 3 * s_side) / -math.log(math.tanh(min(r, 10.0))),  # tanh 10 < 1
                d_side + 32 + abs(c) ** 2 + 3.5 * abs(c) * math.sqrt(d_side + 16))
    if tall:
        return _compose(lambda k: _displacement_matrix(n_rows, k, c),
                        lambda k: _squeeze_block(k, m_cols, r, th), start)
    return _compose(lambda k: _squeeze_block(n_rows, k, r, th),
                    lambda k: _displacement_matrix(k, m_cols, b), start)


def gaussian_matrix_element(n: int, m: int, g: GaussianUnitaryParams) -> complex:
    """<n| S(xi) D(beta) |m>."""
    if n < 0 or m < 0:
        raise DomainError("Fock indices must be nonnegative")
    return complex(gaussian_matrix(n + 1, m + 1, g)[n, m])


def _affine(g: GaussianUnitaryParams):
    """Heisenberg map G^dag a G = A a + B a^dag + gamma of G = S(xi) D(beta).

    The shift gamma is also the displacement with G = D(gamma) S(xi).
    """
    c, s = math.cosh(g.squeeze_r), math.sinh(g.squeeze_r)
    a_coef = c + 0j
    b_coef = -cmath.exp(-1j * g.squeeze_theta) * s
    gamma = g.displacement * c + np.conj(g.displacement) * b_coef
    return a_coef, b_coef, gamma


# largest n_rows * m_cols for which _ladder_block is accurate to 1e-11
_LADDER_MAX_ENTRIES = 200


def _ladder_block(n_rows: int, m_cols: int, g: GaussianUnitaryParams) -> np.ndarray:
    """<m| S(xi) D(beta) |j> for m < n_rows, j < m_cols by ladder recurrences.

    With G^dag a G = A a + B a^dag + gamma (``_affine``, A = cosh r real),
    a G = G (A a + B a^dag + gamma) and a^dag G = G (A a^dag + B* a + gamma*)
    give, with no inner index (Miatto & Quesada, arXiv 2004.11002):

        G[0, 0] = sqrt(sech r) exp(e^{i theta} tanh r beta^2 / 2 - |beta|^2 / 2),
        sqrt(m+1) G[m+1, 0] = (gamma - B gamma* / A) G[m, 0] + (B / A) sqrt(m) G[m-1, 0],
        G[m, j+1] = (sqrt(m) G[m-1, j] - B* sqrt(j) G[m, j-1] - gamma* G[m, j])
                    / (A sqrt(j+1)).

    The recurrences amplify rounding with the number of entries.  Over
    r <= 4 and |Re beta|, |Im beta| <= 6 they agree with
    ``gaussian_matrix`` to 1e-11 up to _LADDER_MAX_ENTRIES entries (14 x 14,
    10 x 20, 8 x 25), but only to 6e-11 at 16 x 16, and with themselves
    run at 40 digits only to 3.3e-9 at 20 x 20 and 7e-5 at 32 x 31, so
    larger blocks go through an inner index instead.  The small blocks are
    evaluated by scalar loops, where numpy's per-call cost would dominate.
    """
    a, b, gamma = (complex(t) for t in _affine(g))
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


def compose_gaussians(g1: GaussianUnitaryParams, g2: GaussianUnitaryParams):
    """Rewrite G1 G2 as R(phi) S(xi) D(beta) up to a global phase; returns
    (the parameters of S(xi) D(beta), phi).

    R(phi) = exp(-i phi n) is a Fock-diagonal rotation, so the extra
    factor commutes with every Fock projector and only multiplies |n> by
    e^{-i n phi}.  Working in the Heisenberg picture, each G maps
    a -> A a + B a^dag + gamma with |A|^2 - |B|^2 = 1; composition
    multiplies these affine maps.  The composite reads back as
    S(xi') D(beta') R(phi) with phi = -arg A, and
    S(xi') D(beta') R(phi) = R(phi) S(xi' e^{-2i phi}) D(beta' e^{i phi}).
    """
    a1, b1, c1 = _affine(g1)
    a2, b2, c2 = _affine(g2)
    a = a1 * a2 + b1 * np.conj(b2)
    b = a1 * b2 + b1 * np.conj(a2)
    gamma = a1 * c2 + b1 * np.conj(c2) + c1
    phi = -cmath.phase(a)
    th = -cmath.phase(-b * cmath.exp(-1j * phi)) if abs(b) > 0 else 0.0
    beta = np.conj(a) * gamma - b * np.conj(gamma)  # beta' e^{i phi}
    th = math.remainder(th - 2.0 * phi, 2.0 * math.pi)
    return GaussianUnitaryParams(math.asinh(abs(b)), th, complex(beta)), phi


def _rows_that_keep(state: TruncatedState, g: GaussianUnitaryParams, dim: int, tol: float):
    """(d, u): the first d of dim, 2 dim, ..., _MAX_AUTO_DIM whose rows
    u = <n < d|G|m < state.dim> lose at most tol of the state's trace, or
    (None, None) if none does.  The kept trace Tr(u rho u^dag) is read as
    Re sum conj(u) (u rho), from d x state.dim arrays alone."""
    while tol >= 0:
        u = gaussian_matrix(dim, state.dim, g)
        if state.trace - float(np.vdot(u, u @ state.matrix).real) <= tol:
            return dim, u
        if dim >= _MAX_AUTO_DIM:
            break
        dim = min(2 * dim, _MAX_AUTO_DIM)
    return None, None


def apply_gaussian(
    state: TruncatedState, g: GaussianUnitaryParams, out_dim: int | None = None
) -> TruncatedState:
    """G rho G^dag truncated to out_dim, with exact trace accounting.

    The congruence U rho U^dag with the rectangular block of exact matrix
    elements transforms the truncated input exactly; the only new leakage
    is output mass above out_dim, which is added to the trace deficit.
    With ``out_dim=None`` the cutoff is the first of max(2 dim, 32) doubled
    whose new leakage is at most DEFICIT_TOL / 10, or at most what the
    input's deficit leaves of DEFICIT_TOL if less.  This is the one place a
    Gaussian-built state is truncated (``CoreState.to_state`` and
    ``make_squeezed_thermal`` come through it): a total deficit past
    DEFICIT_TOL raises CutoffError with ``suggested_dim`` the first doubled
    cutoff, at most _MAX_AUTO_DIM, whose deficit fits, and with no
    ``suggested_dim`` if none does (always so when the input's own deficit
    exceeds DEFICIT_TOL).  The cutoffs are sized on the rows of U alone, so
    no matrix is formed past the cutoff used, and none at all when the
    automatic cutoff finds nothing that fits.
    """
    fits = DEFICIT_TOL - state.trace_deficit  # the most new leakage the output can take
    if out_dim is None:
        dim, u = _rows_that_keep(state, g, max(2 * state.dim, 32), min(DEFICIT_TOL / 10, fits))
        if dim is None:
            raise CutoffError(f"no cutoff up to {_MAX_AUTO_DIM} levels keeps the deficit within {DEFICIT_TOL:.1e}")
    elif type(out_dim) is not int or out_dim < 1:
        raise DomainError(f"out_dim must be a positive integer, got {out_dim!r}")
    else:
        dim, u = out_dim, gaussian_matrix(out_dim, state.dim, g)
    out = u @ state.matrix @ u.conj().T
    out = 0.5 * (out + out.conj().T)
    deficit = state.trace_deficit + max(0.0, state.trace - float(np.real(np.trace(out))))
    if deficit > DEFICIT_TOL:
        lost = f"truncation to {dim} levels loses {deficit:.3e} > {DEFICIT_TOL:.1e}"
        need, _ = _rows_that_keep(state, g, min(2 * dim, _MAX_AUTO_DIM), fits)
        if need is None:
            raise CutoffError(f"{lost}, as does every cutoff up to {_MAX_AUTO_DIM} levels")
        raise CutoffError(f"{lost}; try {need} levels", suggested_dim=need)
    return TruncatedState(out, trace_deficit=deficit)


# ---------------------------------------------------------------------------
# Phase-space functions and fidelity
# ---------------------------------------------------------------------------


def coherent_row(z, dim: int) -> np.ndarray:
    """Rows w[i, k] = <k|z_i> = e^{-|z|^2/2} z^k / sqrt(k!), built iteratively."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.empty((z.size, dim), dtype=complex)
    w[:, 0] = np.exp(-0.5 * np.abs(z) ** 2)
    for k in range(1, dim):
        w[:, k] = w[:, k - 1] * z / math.sqrt(k)
    return w


def husimi_q(state: TruncatedState, z):
    """Husimi function Q(z) = <z| rho |z> / pi; scalar or array argument."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    w = coherent_row(zz, state.dim)
    # <z|rho|z> = Re sum_l conj(u_l) w_l, u = w conj(rho): a real row-wise dot, no copy of w
    u = w @ state.matrix.conj()
    vals = np.einsum("nk,nk->n", u.view(float), w.view(float)) / math.pi
    return vals if np.ndim(z) else float(vals[0])


def wigner(state: TruncatedState, alpha: complex) -> float:
    """Wigner function via the displaced-parity identity.

    W(alpha) = (2/pi) Tr[D(alpha) P D^dag(alpha) rho] = (2/pi) Tr[D(2 alpha) P rho]
    with P the Fock parity; the trace runs over the state's finite support
    only, so the result is exact up to the state's own trace deficit
    (absolute error at most (2/pi) * trace_deficit).
    """
    d = state.dim
    disp = gaussian_matrix(d, d, GaussianUnitaryParams(0.0, 0.0, 2 * complex(alpha)))
    parity = (-1.0) ** np.arange(d)
    val = np.einsum("nk,kn->", disp, parity[:, None] * state.matrix)
    return float(2.0 / math.pi * np.real(val))


def fidelity(state: TruncatedState, target: CoreState) -> float:
    """F(rho, psi) = <psi| rho |psi> for a finite-rank pure target."""
    v = target.fock_vector(state.dim)
    val = float(np.real(np.vdot(v, state.matrix @ v)))
    return val
