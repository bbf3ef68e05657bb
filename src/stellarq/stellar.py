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

The supremum is lower-bounded by multi-start L-BFGS-B over the polar
parameters (r, theta, Re beta, Im beta) of xi = r e^{i theta}, on the
exact gradient of F = ||w||^2 with w = P_{<k} S(xi) u and u = D(beta) c:

    dF/dRe beta = 2 Re <w, P S D (a^dag - a) c>
    dF/dIm beta = 2 Re <w, P S D i(a^dag + a) c>
    dF/dtheta   = 2 Re <w, -(i/2)(n w - P S n u)>
    dF/dr       = 2 Re <w, P S K_theta u>,
                  K_theta = (e^{i theta} a^2 - e^{-i theta} a^dag^2) / 2.

The beta derivatives drop the Baker-Campbell-Hausdorff phase of
D(beta + t) = D(beta) D(t) e^{i(...)t}, which is imaginary and cancels
in Re <w, .>; the theta derivative follows from
S(r e^{i theta}) = R(theta/2) S(r) R(-theta/2) with R(phi) = e^{-i phi n};
the r derivative holds because S commutes with its own generator.  The
per-restart record is kept because a local method can only certify what
it found.  The optimizer also yields the optimal approximating state
G^dag (P_{<k} G |psi> / ||.||).

StellarPoly carries the holomorphic representation P(z) exp(S z^2 + D z)
of a finite-rank pure state, on which photon subtraction acts as d/dz;
the polynomial degree is the stellar rank.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, OptimizerError, UndefinedSubtractionError
from .fockspace import (
    CoreState,
    GaussianUnitaryParams,
    _displacement_matrix,
    _inner_dim,
    _squeeze_matrix_recurrence,
    compose_gaussians,
    gaussian_matrix,
)

__all__ = [
    "ProfilePoint",
    "StellarPoly",
    "max_fidelity_rank_bounded",
    "k_robustness",
    "fidelity_profile",
    "rank1_core_profile",
    "rank_witness_verdict",
    "stellar_subtract",
    "stellar_add",
]

_TAIL_TOL = 1e-12
# search box: r in [0, R_MAX], Re beta and Im beta in [-B_MAX, B_MAX]; theta is free
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
    at dim 2d, has norm below 1e-12 (at 4096 levels otherwise).  The
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
        if 2 * dim >= 4096:
            return v
        dim *= 2


def _fidelity_and_gradient(coeffs: np.ndarray, k: int, x) -> tuple:
    """F = ||P_{<k} S(r e^{i theta}) D(beta) c||^2 and dF/d(r, theta, Re beta, Im beta).

    One displacement block over K + 2 inner levels carries c and the two
    beta generators applied to c (one extra core level); one block of k
    squeeze rows carries u = D(beta) c, n u and K_theta u.  The inner
    index K covers the support of D(beta)|m>, so the truncation is far
    below the certified re-evaluation's 1e-8 check.
    """
    r, th, br, bi = (float(t) for t in x)
    beta = complex(br, bi)
    n = coeffs.size
    inner = _inner_dim(k, n + 1, beta) + 2
    lift = np.sqrt(np.arange(1.0, n + 1.0))
    up = np.zeros(n + 1, dtype=complex)  # a^dag c
    up[1:] = lift * coeffs
    down = np.zeros(n + 1, dtype=complex)  # a c
    down[: n - 1] = lift[: n - 1] * coeffs[1:]
    core = np.column_stack([np.append(coeffs, 0.0), up - down, 1j * (up + down)])
    moved = _displacement_matrix(inner, n + 1, beta) @ core
    u = moved[:, 0]
    levels = np.arange(inner, dtype=float)
    lowered = np.zeros(inner, dtype=complex)  # a^2 u
    lowered[:-2] = np.sqrt((levels[:-2] + 1.0) * (levels[:-2] + 2.0)) * u[2:]
    raised = np.zeros(inner, dtype=complex)  # a^dag^2 u
    raised[2:] = np.sqrt(levels[2:] * (levels[2:] - 1.0)) * u[:-2]
    gen = 0.5 * (cmath.exp(1j * th) * lowered - cmath.exp(-1j * th) * raised)
    cols = np.column_stack([u, levels * u, gen, moved[:, 1], moved[:, 2]])
    out = _squeeze_matrix_recurrence(k, inner, r, th) @ cols
    w = out[:, 0]
    d_theta = -0.5j * (np.arange(k) * w - out[:, 1])
    grad = 2.0 * np.real(np.conj(w) @ np.column_stack([out[:, 2], d_theta, out[:, 3], out[:, 4]]))
    return float(np.vdot(w, w).real), grad


def _restart_points(rng: np.random.Generator, n_restarts: int, identity_optimal: bool) -> list:
    """Polar starts (r, theta, Re beta, Im beta).

    L-BFGS-B is local, so the starts sit where rank-bounded optima lie:
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


def max_fidelity_rank_bounded(
    target: CoreState, k: int, restarts: int = 32, seed: int = 0
) -> ProfilePoint:
    """Best achievable fidelity with ``target`` using states of rank < k."""
    if k < 1:
        raise DomainError("k must be a positive integer")
    coeffs = np.asarray(target.coeffs, dtype=complex)

    def neg_obj(x):
        f, grad = _fidelity_and_gradient(coeffs, k, x)
        return -f, -grad

    bounds = ((0.0, _R_MAX), (None, None), (-_B_MAX, _B_MAX), (-_B_MAX, _B_MAX))
    rng = np.random.default_rng(seed)
    report = []
    for x0 in _restart_points(rng, restarts, k >= coeffs.size):
        res = minimize(
            neg_obj,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options=dict(ftol=1e-12, gtol=1e-9, maxiter=1000),
        )
        report.append(
            {
                "objective": -float(res.fun),
                "params": tuple(float(t) for t in res.x),
                "converged": bool(res.success),
                "nfev": int(res.nfev),
            }
        )
    if not any(r["converged"] for r in report):
        raise OptimizerError("no L-BFGS-B restart converged", restarts=len(report))
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
    frame = target.gaussian_frame
    if not frame.is_identity:
        # core_g G_f^-1 = R(phi) S(xi e^{-2i phi}) D(beta e^{i phi}); drop R(phi)
        g, phi = compose_gaussians(core_g, frame.inverse())
        g0 = GaussianUnitaryParams(
            g.squeeze_r,
            math.remainder(g.squeeze_theta - 2.0 * phi, 2.0 * math.pi),
            g.displacement * cmath.exp(1j * phi),
        )
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


def k_robustness(target: CoreState, k: int, restarts: int = 32, seed: int = 0) -> float:
    """Trace distance from the target to the states of rank < k."""
    point = max_fidelity_rank_bounded(target, k, restarts=restarts, seed=seed)
    return math.sqrt(max(0.0, 1.0 - point.max_fidelity))


def fidelity_profile(
    target: CoreState, k_max: int, restarts: int = 32, seed: int = 0
) -> list:
    """Profile points for k = 1..k_max (rank bounds 0..k_max-1)."""
    if k_max < 1:
        raise DomainError("k_max must be a positive integer")
    return [
        max_fidelity_rank_bounded(target, k, restarts=restarts, seed=seed)
        for k in range(1, k_max + 1)
    ]


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
    >= k at the estimate's confidence; verdict k = 0 means nothing was
    certified.
    """
    lower = estimate.lower_bound
    if profile is None:
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
