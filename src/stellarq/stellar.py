"""Stellar hierarchy: rank-bounded fidelities, robustness, witnesses.

The maximum fidelity between a pure target psi = G_f |c> (core vector c
in a Gaussian frame G_f) and any state of stellar rank below k reduces
to a four-real-parameter problem,

    sup_{rank < k} F(rho, psi) = sup_G ||P_{<k} G |c>||^2,

with G = S(xi) D(beta) ranging over Gaussian unitaries and P_{<k} the
projector on |0>..|k-1>.  The frame drops out because G -> G G_f^-1 is
a bijection of Gaussian unitaries up to a left rotation, which commutes
with P_{<k}; the search therefore runs on the bare core and maps its
winner back with ``compose_gaussians``.

The supremum is lower-bounded by a multi-start projected BFGS ascent
(``_ascend``) over the polar parameters (r, theta, Re beta, Im beta) of
xi = r e^{i theta}, with r signed so that xi = 0 is no boundary of the
search, on the exact gradient of F = ||w||^2 with w = P_{<k} S(xi) u and
u = D(beta) c:

    dF/dRe beta = 2 Re <w, P S D (a^dag - a) c>
    dF/dIm beta = 2 Re <w, P S D i(a^dag + a) c>
    dF/dtheta   = 2 Re <w, -(i/2)(n w - P S n u)>
    dF/dr       = 2 Re <w, P S K_theta u>,
                  K_theta = (e^{i theta} a^2 - e^{-i theta} a^dag^2) / 2.

The beta derivatives drop the Baker-Campbell-Hausdorff phase of
D(beta + t) = D(beta) D(t) e^{i(...)t}, which is imaginary and cancels
in Re <w, .>; the theta derivative follows from
S(r e^{i theta}) = R(theta/2) S(r) R(-theta/2) with R(phi) = e^{-i phi n}.

No term needs an inner Fock index.  Each is a (k + 2) x (n + 1) block
G[m, j] = <m|S(xi) D(beta)|j>, computed by ladder recurrences in m and j
(``fockspace._ladder_block``; Miatto & Quesada, arXiv 2004.11002;
blocks too large for them go through ``gaussian_matrix``), applied to a core
vector: n D(beta) = D(beta)(a^dag + beta*)(a + beta)
gives P S n u = P G (n + beta a^dag + beta* a + |beta|^2) c, and S commutes
with its own generator, so P S K_theta u = P K_theta G c reads rows k
and k + 1 of G c.  All starts ascend in lockstep (``_ascend_all``) on one stacked,
elementwise evaluation per round, so no restart depends on the others.  The
winner is re-evaluated through ``gaussian_matrix`` on the full prepared vector
and must agree to 1e-8.  A restart has converged when its projected gradient
falls to 1e-9 or a step raises F by at most 1e-12 relative; a step that finds
no rise counts as converged only where the projected gradient is at most 1e-6,
and 1,000 steps do not count.  The per-restart record is kept because a local
method can only certify what it found.  The optimizer also yields the optimal
approximating state G^dag (P_{<k} G |psi> / ||.||).

StellarPoly carries the holomorphic representation P(z) exp(S z^2 + D z)
of a finite-rank pure state, on which photon subtraction acts as d/dz;
the polynomial degree is the stellar rank.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OptimizerError, UndefinedSubtractionError
from .fockspace import (
    CoreState,
    GaussianUnitaryParams,
    _LADDER_MAX_ENTRIES,
    _MAX_AUTO_DIM,
    _ladder_block,
    compose_gaussians,
    gaussian_matrix,
)

__all__ = [
    "ProfilePoint",
    "StellarPoly",
    "max_fidelity_rank_bounded",
    "fidelity_profile",
    "rank1_core_profile",
    "rank_witness_verdict",
    "stellar_subtract",
    "stellar_add",
]

_TAIL_TOL = 1e-12
# ascent stop rule (``_ascend``): projected-gradient and relative-rise tolerances,
# the projected gradient at which a step that finds no rise counts as converged,
# and the caps on steps and on evaluations per step
_GTOL, _FTOL, _STATIONARY_TOL = 1e-9, 1e-12, 1e-6
_MAX_ITER, _MAX_TRIALS = 1000, 20
# search box: r in [-R_MAX, R_MAX] (signed, see _unsigned), Re beta and Im beta
# in [-B_MAX, B_MAX]; theta is free
_R_MAX, _B_MAX = 4.0, 6.0


@dataclass(frozen=True)
class ProfilePoint:
    """One point of the achievable-fidelity profile of a target state."""

    rank_bound: int  # approximants have stellar rank <= rank_bound = k - 1
    max_fidelity: float
    optimal_params: GaussianUnitaryParams
    optimizer_report: tuple
    optimal_state: CoreState | None = None


def _prepared_vector(target: CoreState) -> np.ndarray:
    """Fock amplitudes of the target, exact or tail-certified.

    Frameless targets are exact.  A framed target's vector is cut at the
    first dim d whose dropped part, the amplitudes d..2d-1 of the vector
    at dim 2d, has norm below 1e-12 (at _MAX_AUTO_DIM levels otherwise).  The
    objective ||P w||^2 moves to first order by 2 Re <P w, P delta>,
    linearly in the dropped amplitude, so the cut moves it by about
    2e-12 at most.  The norm is taken of the dropped part itself:
    1 - ||v||^2 cancels to rounding and measures the square of that
    amplitude, not the amplitude.
    """
    c = np.asarray(target.coeffs, dtype=complex)
    if target.gaussian_frame.is_identity:
        return c
    dim = max(4 * c.size, 32)
    while True:
        v = target.fock_vector(2 * dim)
        if np.linalg.norm(v[dim:]) < _TAIL_TOL:
            return v[:dim]
        if 2 * dim >= _MAX_AUTO_DIM:
            return v
        dim *= 2


def _objective(coeffs: np.ndarray, k: int):
    """The search objective for core ``coeffs`` and rank bound k, with every
    part that does not depend on the search point computed once."""
    n = coeffs.size
    c = np.append(coeffs, 0.0)
    lift = np.sqrt(np.arange(1.0, n + 1.0))
    up = np.zeros(n + 1, dtype=complex)  # a^dag c
    up[1:] = lift * coeffs
    down = np.zeros(n + 1, dtype=complex)  # a c
    down[: n - 1] = lift[: n - 1] * coeffs[1:]
    core = np.column_stack([c, up, down, np.arange(n + 1) * c])
    levels = np.arange(k, dtype=float)
    lowering = np.sqrt((levels + 1.0) * (levels + 2.0))  # <m|a^2|m+2>
    raising = np.sqrt(levels[2:] * (levels[2:] - 1.0))  # <m|a^dag^2|m-2>
    ladder = (k + 2) * (n + 1) <= _LADDER_MAX_ENTRIES

    def value_and_gradient(x) -> tuple:
        """F = ||P_{<k} S(r e^{i theta}) D(beta) c||^2 and dF/d(r, theta, Re beta, Im beta)
        at x, or as arrays at each row of a stack x of shape (len, 4).

        r is signed (``_unsigned``).  The (k + 2) x (n + 1) block G[m, j] = <m|S(xi) D(beta)|j>, by
        ``_ladder_block`` across the stack while it stays accurate and else by ``gaussian_matrix``
        point by point, multiplies the fixed columns c, a^dag c, a c and n c in ``einsum`` loops, not
        BLAS: no point depends on its stack or, on the ladder path, the BLAS threads.  With v = G c
        and w its rows < k, every term is an inner product with w (see the module docstring):

        * F = <w, w>;
        * dF/dRe beta = 2 Re <w, G (a^dag - a) c>,
          dF/dIm beta = 2 Re <w, G i(a^dag + a) c>;
        * dF/dtheta = -Im <w, G (n + beta a^dag + beta* a + |beta|^2) c>;
          <w, n w> is real, so the n w term drops out;
        * dF/dr = Re(e^{i theta} <w, a^2 v> - e^{-i theta} <w, a^dag^2 v>),
          which reads rows k and k + 1 of v; it holds for either sign of r,
          since xi = r e^{i theta} is linear in r.
        """
        x = np.asarray(x, dtype=float)
        r, th, br, bi = x.reshape(-1, 4).T
        beta = br + 1j * bi
        params = (np.abs(r), np.where(r < 0, th + math.pi, th), beta)  # _unsigned, across the stack
        blocks = _ladder_block(k + 2, n + 1, params) if ladder else [
            gaussian_matrix(k + 2, n + 1, GaussianUnitaryParams(*p)) for p in zip(*(t.tolist() for t in params))]
        v = np.einsum("bmj,jc->bmc", blocks, core)
        bra = v[:, :k, 0].conj()
        norm, on_up, on_down, on_number = np.einsum("bm,bmc->cb", bra, v[:, :k])
        on_shifted = on_number + beta * on_up + beta.conj() * on_down + np.abs(beta) ** 2 * norm
        on_lowered = np.einsum("bm,bm->b", bra, lowering * v[:, 2:, 0])  # <w, a^2 v>
        on_raised = np.einsum("bm,bm->b", bra[:, 2:], raising * v[:, : raising.size, 0])  # <w, a^dag^2 v>
        turn = np.exp(1j * th)
        d_r = (turn * on_lowered - turn.conj() * on_raised).real
        grad = np.stack([d_r, -on_shifted.imag, 2.0 * (on_up - on_down).real, -2.0 * (on_up + on_down).imag], axis=1)
        return (norm.real, grad) if x.ndim == 2 else (norm.real[0], grad[0])

    return value_and_gradient


def _restart_points(rng: np.random.Generator, n_restarts: int, identity_optimal: bool) -> list:
    """Polar starts (r, theta, Re beta, Im beta).

    The BFGS ascent is local, so the starts sit where rank-bounded optima lie:
    for Fock targets up to |5> every ceiling is reached at r <= 0.45 and
    |beta| <= 1.2.  Random starts take r in [0, 0.75] and beta uniform in
    the disk of radius 1.5; over the 15 Fock-ceiling entries each start
    reaches the ceiling with probability 0.15 to 0.80 (0.38 on average),
    against 0.06 to 0.91 (0.28) for r in [0, 2] and the disk of radius 3.
    The deterministic first start is the identity only when it is the
    optimum, k above the core's rank (F = 1 there).  Otherwise it is a
    fixed point off the identity, where w = 0 and every gradient vanishes
    for a Fock target |n> with n >= k, and off the real subspace
    theta = 0, real beta, which a Fock target's symmetric gradient never
    leaves.
    """
    pts = [np.zeros(4) if identity_optimal else np.array([0.2, 0.5 * math.pi, 1.0, 0.0])]
    for _ in range(n_restarts):
        r = rng.uniform(0.0, 0.75)
        th = rng.uniform(0.0, 2.0 * math.pi)
        b = 1.5 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        pts.append(np.array([r, th, b.real, b.imag]))
    return pts


def _unsigned(x) -> tuple:
    """Search parameters with r >= 0.

    The search takes r in [-R_MAX, R_MAX]: S(-r e^{i theta}) =
    S(r e^{i(theta + pi)}), so xi = r e^{i theta} passes through 0 along a
    line.  A bound at r = 0 would be a false stationary face: F does not
    depend on theta there, so dF/dtheta = 0, and a search with dF/dr < 0
    would stop on it although F grows along theta + pi.
    """
    r, th, *rest = (float(t) for t in x)
    return (-r, th + math.pi, *rest) if r < 0 else (r, th, *rest)


def _canonical(x) -> tuple:
    """The representative of a single-Fock core's rotation orbit with beta >= 0.

    S(xi) D(beta) R(phi) = R(phi) S(xi e^{-2i phi}) D(beta e^{i phi}), and
    R(phi) only multiplies |n> by a phase and commutes with P_{<k}, so F
    is constant on the orbit (theta - 2 phi, beta e^{i phi}).  theta is
    set to 0 where F does not depend on it: beta = 0 or r = 0.
    """
    r, th, br, bi = (float(t) for t in x)
    beta = complex(br, bi)
    th = math.remainder(th + 2.0 * cmath.phase(beta), 2.0 * math.pi)
    if beta == 0 or r == 0.0:
        th = 0.0
    return r, th, abs(beta), 0.0


def _dot(u, v) -> float:
    return sum(map(operator.mul, u, v))


def _projected_step(x, grad, lo, hi) -> float:
    """Max norm of the ascent step x -> clip(x + grad) - x, which vanishes only
    at a stationary point of F on the box [lo, hi]."""
    return max(abs(min(max(t + q, a), b) - t) for t, q, a, b in zip(x, grad, lo, hi))


def _ascend(x0, lo, hi):
    """Maximize F on the box [lo, hi] from x0: a generator that yields each point x, takes
    (F(x), dF/dx) back by ``send`` and returns its report (see ``_ascend_all``).

    BFGS on a dense inverse Hessian H (a list of rows), projected onto the box.  The step
    direction d is H grad over the coordinates that no outward gradient
    holds on a face, and a trial step lands on clip(x + t d).  t starts at 1,
    or at min(1, 1/||grad||) before the first BFGS update, and is halved
    until F rises by at least 1e-4 of the first-order gain (Armijo).  A
    first trial that passes is doubled while the slope along the step keeps
    more than 0.9 of its starting value (the weak Wolfe curvature
    condition), and the last doubling that still passes Armijo is taken.  A
    step tries at most _MAX_TRIALS points.

    The ascent has converged when the projected step (``_projected_step``)
    is at most _GTOL, or when a step raises F by at most _FTOL relative.  It
    also stops when no trial passes Armijo; near a maximum F is flat to
    rounding, so that stop counts as converged only where the projected
    step is at most _STATIONARY_TOL.  _MAX_ITER steps do not count as
    converged.
    """
    x = [min(max(float(t), a), b) for t, a, b in zip(x0, lo, hi)]
    f, g = yield x
    nfev, scaled, converged, h = 1, False, False, [[float(i == j) for j in range(len(x))] for i in range(len(x))]
    for _ in range(_MAX_ITER):
        if _projected_step(x, g, lo, hi) <= _GTOL:
            converged = True
            break
        held = [(t <= a and q < 0) or (t >= b and q > 0) for t, q, a, b in zip(x, g, lo, hi)]
        free = [0.0 if on else q for on, q in zip(held, g)]
        d = [_dot(row, free) for row in h]
        if any(held):  # the inverse of the free block of H^-1, by its Schur complement
            idx = [i for i, on in enumerate(held) if on]
            z = np.linalg.solve([[h[i][j] for j in idx] for i in idx], [d[i] for i in idx]).tolist()
            d = [e - _dot([row[j] for j in idx], z) for e, row in zip(d, h)]
        d = [0.0 if on or (t <= a and e < 0) or (t >= b and e > 0) else e for on, t, e, a, b in zip(held, x, d, lo, hi)]
        d = free if _dot(g, d) <= 0.0 else d  # only by rounding in a near-singular H
        t = 1.0 if scaled else min(1.0, 1.0 / math.sqrt(_dot(g, g)))
        step, shrunk = None, False
        for _ in range(_MAX_TRIALS):
            x_new = [min(max(u + t * e, a), b) for u, e, a, b in zip(x, d, lo, hi)]
            if step is not None and x_new == step[0]:
                break  # the box stops the step from growing
            f_new, g_new = yield x_new
            nfev += 1
            s = [u - w for u, w in zip(x_new, x)]
            gain = _dot(g, s)
            if f_new < f + 1e-4 * gain:
                if step is not None:
                    break
                t, shrunk = 0.5 * t, True
                continue
            step = (x_new, f_new, g_new, s)
            if shrunk or _dot(g_new, s) <= 0.9 * gain:
                break
            t *= 2.0
        if step is None:
            converged = _projected_step(x, g, lo, hi) <= _STATIONARY_TOL
            break
        s, y = step[3], [u - w for u, w in zip(g, step[2])]
        sy, yy = _dot(s, y), _dot(y, y)
        if sy > 1e-12 * yy:
            if not scaled:
                h, scaled = [[sy / yy * e for e in row] for row in h], True
            hy = [_dot(row, y) for row in h]  # H <- V H V^T + s s^T / sy, V = 1 - s y^T / sy, written out
            c = (1.0 + _dot(y, hy) / sy) / sy
            h = [[e - (s[i] * hy[j] + hy[i] * s[j]) / sy + c * (s[i] * s[j]) for j, e in enumerate(row)]
                 for i, row in enumerate(h)]
        rise = (step[1] - f) / max(abs(f), abs(step[1]), 1.0)
        x, f, g, _ = step
        if rise <= _FTOL:
            converged = True
            break
    return {"objective": float(f), "params": _unsigned(x), "converged": converged, "nfev": nfev}


def _ascend_all(objective, starts, lo, hi) -> list:
    """The reports of one ``_ascend`` per start, advanced in lockstep: each round
    evaluates the points of all live ascents by one objective(stack) -> (F, dF/dx)."""
    ascents = [_ascend(x0, lo, hi) for x0 in starts]
    reports, pending = [None] * len(ascents), {i: next(a) for i, a in enumerate(ascents)}
    while pending:
        f, g = objective(np.array(list(pending.values())))
        for i, f_i, g_i in zip(list(pending), f.tolist(), g.tolist()):
            try:
                pending[i] = ascents[i].send((f_i, g_i))
            except StopIteration as done:
                reports[i] = done.value
                del pending[i]
    return reports


def max_fidelity_rank_bounded(
    target: CoreState, k: int, restarts: int = 32, seed: int = 0, *, _starts=()
) -> ProfilePoint:
    """Best achievable fidelity with ``target`` using states of rank < k
    (``_starts``: more search points, which only ``fidelity_profile`` passes)."""
    if k < 1:
        raise DomainError("k must be a positive integer")
    coeffs = np.asarray(target.coeffs, dtype=complex)
    objective = _objective(coeffs, k)
    lo = [-_R_MAX, -math.inf, -_B_MAX, -_B_MAX]
    rng = np.random.default_rng(seed)
    starts = [*_restart_points(rng, restarts, k >= coeffs.size), *_starts]
    report = _ascend_all(objective, starts, lo, [-t for t in lo])
    if not any(r["converged"] for r in report):
        raise OptimizerError("no restart's projected BFGS ascent converged", restarts=len(report))
    # scheduling-independent selection: best objective, ties broken by
    # lexicographic parameter comparison
    best = max(report, key=lambda r: (r["objective"], tuple(-t for t in r["params"])))
    x = best["params"]
    if x[0] >= _R_MAX or max(abs(x[2]), abs(x[3])) >= _B_MAX:
        raise OptimizerError(
            "the best restart stopped on the search box, so its value is no ceiling",
            params=x,
            r_max=_R_MAX,
            beta_max=_B_MAX,
        )
    if np.count_nonzero(coeffs) == 1:
        x = _canonical(x)
    core_g = GaussianUnitaryParams(x[0], math.remainder(x[1], 2.0 * math.pi), complex(x[2], x[3]))
    g0 = core_g
    if not target.gaussian_frame.is_identity:
        # core_g G_f^-1 = R(phi) S(xi) D(beta), and R(phi) commutes with P_{<k}
        g0, _ = compose_gaussians(core_g, target.gaussian_frame.inverse())
    # the search ran on the truncated core path; certify the winner on the
    # independent full evaluation of the prepared target
    v = _prepared_vector(target)
    w = gaussian_matrix(k, v.size, g0) @ v
    value = float(np.vdot(w, w).real)
    if abs(value - best["objective"]) > 1e-8:
        raise OptimizerError(
            "fast and certified objective evaluations disagree at the optimum",
            fast=best["objective"],
            certified=value,
        )
    opt_state = None
    nrm = math.sqrt(value)
    if nrm > 1e-9:
        opt_state = CoreState.from_unnormalized(w / nrm, g0.inverse())
    return ProfilePoint(
        rank_bound=k - 1,
        max_fidelity=min(value, 1.0),
        optimal_params=g0,
        optimizer_report=tuple(report),
        optimal_state=opt_state,
    )


def fidelity_profile(
    target: CoreState, k_max: int, restarts: int = 32, seed: int = 0
) -> list:
    """Profile points for k = 1..k_max (rank bounds 0..k_max-1).

    Each k also starts where k - 1 won, and F_k >= F_{k-1} there (a rank
    < k - 1 state has rank < k), so the ceilings found never fall with k."""
    if k_max < 1:
        raise DomainError("k_max must be a positive integer")
    points = []
    for k in range(1, k_max + 1):
        won = [max(points[-1].optimizer_report, key=lambda r: r["objective"])["params"]] if points else []
        points.append(max_fidelity_rank_bounded(target, k, restarts=restarts, seed=seed, _starts=won))
    return points


def profile_to_csv(points, path) -> None:
    """`k,max_fidelity,r,theta,re_beta,im_beta` per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,max_fidelity,r,theta,re_beta,im_beta\n")
        for pt in points:
            g = pt.optimal_params
            fh.write(
                f"{pt.rank_bound + 1},{pt.max_fidelity:.12g},{g.squeeze_r:.12g},"
                f"{g.squeeze_theta:.12g},{g.displacement.real:.12g},"
                f"{g.displacement.imag:.12g}\n"
            )


def rank1_core_profile(phi: float, chi: float = 0.0, restarts: int = 32, seed: int = 0) -> float:
    """Max Gaussian fidelity with cos(phi)|0> + e^{i chi} sin(phi)|1>.

    Independent of chi (a Gaussian rotation absorbs the phase); minimized
    over phi at the single-photon state phi = pi/2.
    """
    c = np.array([math.cos(phi), cmath.exp(1j * chi) * math.sin(phi)], dtype=complex)
    target = CoreState.from_unnormalized(c)
    return max_fidelity_rank_bounded(target, 1, restarts=restarts, seed=seed).max_fidelity


def rank_witness_verdict(
    estimate, target: CoreState, profile=None, restarts: int = 32, seed: int = 0
) -> dict:
    """Largest k whose rank-(k-1) fidelity ceiling the estimate exceeds.

    A fidelity lower bound above sup_{rank<k} F certifies stellar rank
    >= k at the estimate's confidence, if that is at least 1 - delta_cert;
    verdict k = 0 means nothing was certified.
    """
    lower = estimate.lower_bound
    if estimate.confidence < 1.0 - estimate.delta_cert:
        profile = ()  # a certificate holds only at confidence >= 1 - delta_cert, so no ceiling is needed
    elif profile is None:
        profile = fidelity_profile(target, target.stellar_rank, restarts=restarts, seed=seed)
    certified = 0
    threshold = None
    for pt in profile:
        if lower > pt.max_fidelity:
            certified = pt.rank_bound + 1
            threshold = pt.max_fidelity
    return {
        "certified_rank": certified,
        "confidence": float(estimate.confidence),
        "threshold_used": threshold,
        "delta_cert": estimate.delta_cert,
    }


# ---------------------------------------------------------------------------
# Stellar-function representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StellarPoly:
    """Holomorphic representation P(z) exp(quad z^2 + lin z) of a pure state.

    ``coeffs`` are the ascending coefficients of P; the degree of P is
    the stellar rank.  |2 quad| < 1 is required for normalizability.
    """

    coeffs: tuple
    quad: complex = 0j
    lin: complex = 0j

    def __post_init__(self):
        c = tuple(complex(t) for t in self.coeffs)
        if not c or all(t == 0 for t in c):
            raise DomainError("stellar polynomial must be nonzero")
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)
        if abs(2 * self.quad) >= 1.0:
            raise DomainError("|2 quad| >= 1 does not represent a normalizable state")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def stellar_rank(self) -> int:
        return self.degree

    def zeros(self) -> np.ndarray:
        """Zeros of the stellar function = roots of the polynomial part."""
        if self.degree == 0:
            return np.empty(0, dtype=complex)
        return np.roots(np.asarray(self.coeffs[::-1], dtype=complex))

    def fock_amplitudes(self, n_max: int) -> np.ndarray:
        """Normalized <n|psi> from the Taylor series of P exp(quad z^2 + lin z)."""
        series = np.zeros(n_max, dtype=complex)
        # exp series by the ODE e' = (2 quad z + lin) e
        e = np.zeros(n_max, dtype=complex)
        e[0] = 1.0
        for n in range(1, n_max):
            val = self.lin * e[n - 1]
            if n >= 2:
                val += 2 * self.quad * e[n - 2]
            e[n] = val / n
        p = np.asarray(self.coeffs, dtype=complex)
        for i, ci in enumerate(p):
            if i < n_max and ci != 0:
                series[i:] += ci * e[: n_max - i]
        fact = np.cumsum(np.log(np.arange(1, n_max)))  # log n! for n >= 1
        logfact = np.concatenate([[0.0], fact])
        amps = series * np.exp(0.5 * logfact)
        nrm = math.sqrt(float(np.vdot(amps, amps).real))
        if nrm == 0.0:
            raise DomainError("stellar polynomial produced a null state")
        return amps / nrm


def stellar_subtract(poly: StellarPoly) -> StellarPoly:
    """Photon subtraction acts as d/dz: P -> P' + (2 quad z + lin) P.

    The leading coefficient of the result is exactly 2*quad*c_deg for
    quad != 0, lin*c_deg for quad = 0 != lin, and the derivative drops
    the degree otherwise, so the rank moves by +1, 0, or -1.
    """
    c = np.asarray(poly.coeffs, dtype=complex)
    out = np.zeros(c.size + 1, dtype=complex)
    out[: c.size - 1] += np.arange(1, c.size) * c[1:]  # P'
    out[1:] += 2 * poly.quad * c  # 2 quad z P
    out[: c.size] += poly.lin * c  # lin P
    while out.size > 1 and out[-1] == 0:
        out = out[:-1]
    if out.size == 1 and out[0] == 0:
        raise UndefinedSubtractionError(
            "photon subtraction annihilates this state (vacuum-like input)"
        )
    return StellarPoly(tuple(out), poly.quad, poly.lin)


def stellar_add(poly: StellarPoly) -> StellarPoly:
    """Photon addition acts as multiplication by z."""
    return StellarPoly((0j,) + poly.coeffs, poly.quad, poly.lin)
