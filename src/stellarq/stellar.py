"""Stellar hierarchy: rank-bounded fidelities, robustness, witnesses.

The maximum fidelity between a pure target psi and any state of stellar
rank below k reduces to a four-real-parameter problem,

    sup_{rank < k} F(rho, psi) = sup_G sum_{m<k} |<m| G |psi>|^2,

with G = S(xi) D(beta) ranging over Gaussian unitaries.  The supremum is
lower-bounded here by multi-start Nelder-Mead over (Re xi, Im xi,
Re beta, Im beta); the per-restart record is kept because a local method
can only certify what it found.  The optimizer also yields the optimal
approximating state G^dag (P_{k-1} G |psi> / ||.||).

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
from .fockspace import CoreState, GaussianUnitaryParams, gaussian_matrix

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

    Frameless targets are exact; framed targets are extended until the
    dropped norm is below 1e-12, which perturbs the objective by less
    than ~2e-12.
    """
    c = np.asarray(target.coeffs, dtype=complex)
    if target.gaussian_frame.is_identity:
        return c
    dim = max(4 * c.size, 32)
    while True:
        v = target.fock_vector(dim)
        tail = 1.0 - float(np.vdot(v, v).real)
        if tail < _TAIL_TOL or dim >= 4096:
            return v
        dim *= 2


def _truncation_overlaps(k: int, g: GaussianUnitaryParams, phi: float, coeffs: np.ndarray):
    """w_m = <m| S(xi) D(beta) R(phi) |c> for m < k, small core c.

    Vectorized small-core pipeline: rotation phases on the coefficients,
    the exact K x c displacement block, then the k squeeze rows.
    The inner Fock index is truncated at a generous K; the reported
    optimum is re-evaluated on the full prepared vector.
    """
    from .fockspace import _displacement_matrix, _inner_dim, _squeeze_matrix_recurrence

    v = coeffs * np.exp(-1j * phi * np.arange(coeffs.size))
    K = _inner_dim(k, coeffs.size, g.displacement)
    vec = _displacement_matrix(K, coeffs.size, g.displacement) @ v
    return _squeeze_matrix_recurrence(k, K, g.squeeze_r, g.squeeze_theta) @ vec


def _objective_factory(target: CoreState, k: int):
    from .fockspace import compose_gaussians

    coeffs = np.asarray(target.coeffs, dtype=complex)
    frame = target.gaussian_frame

    def fidelity_fast(params: GaussianUnitaryParams) -> float:
        composed, phi = compose_gaussians(params, frame)
        w = _truncation_overlaps(k, composed, phi, coeffs)
        return float(np.vdot(w, w).real)

    def overlaps_certified(params: GaussianUnitaryParams) -> np.ndarray:
        # independent evaluation through the general-purpose path on the
        # full prepared vector, used to confirm the reported optimum
        v = _prepared_vector(target)
        return gaussian_matrix(k, v.size, params) @ v

    def neg_obj(x) -> float:
        xi = complex(x[0], x[1])
        g = GaussianUnitaryParams(abs(xi), cmath.phase(xi), complex(x[2], x[3]))
        return -fidelity_fast(g)

    return fidelity_fast, overlaps_certified, neg_obj


def _restart_points(rng: np.random.Generator, n_restarts: int) -> list:
    pts = [np.zeros(4)]  # deterministic identity start
    for _ in range(n_restarts):
        r = rng.uniform(0.0, 2.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        b = 3.0 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        pts.append(np.array([r * math.cos(th), r * math.sin(th), b.real, b.imag]))
    return pts


def max_fidelity_rank_bounded(
    target: CoreState, k: int, restarts: int = 32, seed: int = 0
) -> ProfilePoint:
    """Best achievable fidelity with ``target`` using states of rank < k."""
    if k < 1:
        raise DomainError("k must be a positive integer")
    fidelity_fast, overlaps_certified, neg_obj = _objective_factory(target, k)
    rng = np.random.default_rng(seed)
    report = []
    for x0 in _restart_points(rng, restarts):
        res = minimize(
            neg_obj,
            x0,
            method="Nelder-Mead",
            options=dict(xatol=1e-9, fatol=1e-13, maxiter=4000, maxfev=6000),
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
        raise OptimizerError(
            "no Nelder-Mead restart converged", restarts=len(report)
        )
    # scheduling-independent selection: best objective, ties broken by
    # lexicographic parameter comparison
    best = max(report, key=lambda r: (r["objective"], tuple(-t for t in r["params"])))
    x = best["params"]
    xi = complex(x[0], x[1])
    g0 = GaussianUnitaryParams(abs(xi), cmath.phase(xi), complex(x[2], x[3]))
    # the search ran on the truncated fast path; certify the winner on the
    # independent full evaluation
    w = overlaps_certified(g0)
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
