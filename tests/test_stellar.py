import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult

from stellarq import fockspace as fs, stellar
from stellarq.errors import DomainError, OptimizerError, UndefinedSubtractionError
from stellarq.estimator import ConfidenceEstimate

from _oracles import gaussian_element_closed_form

GAUSS_BOUND_ONE = 3 * math.sqrt(3) / (4 * math.e)


def test_gaussian_bound_single_photon():
    pt = stellar.max_fidelity_rank_bounded(fs.CoreState.fock(1), 1, restarts=16)
    assert pt.max_fidelity == pytest.approx(GAUSS_BOUND_ONE, abs=1e-4)
    assert len(pt.optimizer_report) == 17  # identity start + restarts


def test_rank_bound_at_or_above_target_rank_is_exact():
    for n in (0, 1, 3):
        pt = stellar.max_fidelity_rank_bounded(fs.CoreState.fock(n), n + 1, restarts=4)
        assert pt.max_fidelity == pytest.approx(1.0, abs=1e-9)


def test_fock3_rank2_value():
    pt = stellar.max_fidelity_rank_bounded(fs.CoreState.fock(3), 3, restarts=16)
    assert pt.max_fidelity == pytest.approx(0.593, abs=5e-3)


def test_profile_monotone():
    prof = stellar.fidelity_profile(fs.CoreState.fock(4), 5, restarts=12)
    vals = [p.max_fidelity for p in prof]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def test_profile_monotone_for_a_large_core():
    # fock(25)'s seeded restarts alone find 0.0387 at k = 2 and 0.1676 at
    # k = 4, below the k = 1 and k = 3 ceilings; the start at the point that
    # won at k - 1 lifts both
    prof = stellar.fidelity_profile(fs.CoreState.fock(25), 6, restarts=32, seed=0)
    vals = [p.max_fidelity for p in prof]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    np.testing.assert_allclose(vals, [0.0203, 0.0425, 0.2131, 0.2131, 0.2490, 0.2798], rtol=0, atol=5e-5)
    assert [len(p.optimizer_report) for p in prof] == [33] + [34] * 5


def test_k_robustness():
    r = stellar.k_robustness(fs.CoreState.fock(1), 1, restarts=16)
    assert r == pytest.approx(math.sqrt(1 - GAUSS_BOUND_ONE), abs=1e-4)
    assert stellar.k_robustness(fs.CoreState.fock(2), 3, restarts=4) == pytest.approx(
        0.0, abs=1e-4
    )


def test_k_robustness_gaussian_invariance():
    # the search runs on the bare core, so a frame changes only the
    # certified re-evaluation of the winner, whose prepared vector drops an
    # amplitude below 1e-12
    for n, k, frame in (
        (1, 1, fs.GaussianUnitaryParams(0.45, 1.2, 0.6 - 0.3j)),
        (2, 2, fs.GaussianUnitaryParams(0.3, -0.7, 0.4 + 0.5j)),
    ):
        plain = fs.CoreState.fock(n)
        framed = fs.CoreState(plain.coeffs, frame)
        r1 = stellar.k_robustness(plain, k, restarts=16)
        r2 = stellar.k_robustness(framed, k, restarts=16)
        assert r1 == pytest.approx(r2, abs=1e-10)


def test_framed_ceiling_matches_a_long_vector():
    # cut where 1 - ||v||^2 fell below 1e-12 (dim 32, a dropped amplitude
    # near 1e-6), this ceiling read 1.4e-9 low
    target = fs.CoreState((0, 0, 1), fs.GaussianUnitaryParams(0.3, -0.7, 0.4 + 0.5j))
    pt = stellar.max_fidelity_rank_bounded(target, 2)
    w = fs.gaussian_matrix(2, 256, pt.optimal_params) @ target.fock_vector(256)
    assert pt.max_fidelity == pytest.approx(float(np.vdot(w, w).real), abs=1e-12)


def _extended_fidelity(coeffs, k, x):
    # F at r < 0 is F at (-r, theta + pi), so central differences in r
    # are exact at r = 0 as well
    r, th, br, bi = x
    if r < 0:
        r, th = -r, th + math.pi
    return stellar._objective(coeffs, k)((r, th, br, bi))[0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=4).filter(
        lambda c: abs(c[-1]) > 0.1
    ),
    st.integers(1, 4),
    st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    st.floats(-math.pi, math.pi),
    st.floats(-1.5, 1.5),
    st.floats(-1.5, 1.5),
)
def test_gradient_matches_central_differences(coeffs, k, r, th, br, bi):
    c = np.asarray(coeffs, dtype=complex)
    c /= np.linalg.norm(c)
    x = np.array([r, th, br, bi])
    _, grad = stellar._objective(c, k)(x)
    h = 1e-5
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        num = (_extended_fidelity(c, k, x + e) - _extended_fidelity(c, k, x - e)) / (2 * h)
        assert abs(grad[i] - num) <= 1e-7


def test_seed7_reaches_the_fock3_rank1_ceiling():
    # Nelder-Mead with 12 restarts at seed 7 stopped at 0.3387
    pt = stellar.max_fidelity_rank_bounded(fs.CoreState.fock(3), 2, restarts=12, seed=7)
    assert pt.max_fidelity >= 0.4615


def test_large_block_objective_stays_accurate():
    # (k + 2)(n + 1) = 572 entries, past fockspace._LADDER_MAX_ENTRIES: the
    # ladder recurrences would put F off by about 1e-9 at this point
    rng = np.random.default_rng(4)
    c = rng.normal(size=26) + 1j * rng.normal(size=26)
    c /= np.linalg.norm(c)
    x = (0.1, 2.97, -0.39, 4.73)
    w = fs.gaussian_matrix(20, 26, fs.GaussianUnitaryParams(0.1, 2.97, complex(-0.39, 4.73))) @ c
    assert stellar._objective(c, 20)(x)[0] == pytest.approx(float(np.vdot(w, w).real), abs=1e-11)


def test_signed_r_is_the_opposite_squeeze():
    c = np.array([0.3, -0.5j, 0.6, 0.2 + 0.4j])
    c /= np.linalg.norm(c)
    objective = stellar._objective(c, 3)
    f_neg, g_neg = objective((-0.4, 0.7, 0.3, -0.2))
    f_pos, g_pos = objective((0.4, 0.7 + math.pi, 0.3, -0.2))
    assert f_neg == pytest.approx(f_pos, abs=1e-14)
    assert g_neg == pytest.approx(g_pos * np.array([-1, 1, 1, 1]), abs=1e-13)
    assert stellar._unsigned((-0.4, 0.7, 0.3, -0.2)) == (0.4, 0.7 + math.pi, 0.3, -0.2)


def _is_local_maximum(coeffs, k, g, step=1e-3):
    # F, by gaussian_matrix, does not grow along +-Re and +-Im of xi and of
    # beta; at xi = 0 the moves of xi try theta = 0, pi/2, pi and 3 pi/2
    def fidelity(xi, beta):
        h = fs.GaussianUnitaryParams(abs(xi), cmath.phase(xi), beta)
        w = fs.gaussian_matrix(k, coeffs.size, h) @ coeffs
        return float(np.vdot(w, w).real)

    f = fidelity(g.xi, g.displacement)
    moves = [step * u for u in (1, -1, 1j, -1j)]
    return all(fidelity(g.xi + d, g.displacement) <= f + 1e-12 for d in moves) and all(
        fidelity(g.xi, g.displacement + d) <= f + 1e-12 for d in moves
    )


def test_deterministic_start_alone_finds_a_ceiling():
    # a start can end in a line search that fails at a stationary point,
    # which must count as converged; the point must be a maximum of F, not a
    # stop at xi = 0 with F growing along some theta, where a search with
    # r >= 0 ends for fock(5) at k = 2 and fock(8) at k = 5 (F = 0.2854,
    # against a ceiling of 0.4562)
    for n in range(1, 9):
        for k in range(1, n + 1):
            pt = stellar.max_fidelity_rank_bounded(fs.CoreState.fock(n), k, restarts=0)
            assert len(pt.optimizer_report) == 1
            assert pt.max_fidelity > 0.0
            assert _is_local_maximum(np.eye(n + 1)[n], k, pt.optimal_params), (n, k)


def test_failed_line_search_converged_only_when_stationary():
    bounds = ((-4.0, 4.0), (-np.inf, np.inf), (-6.0, 6.0), (-6.0, 6.0))

    def result(x, jac, success=False, message="ABNORMAL: "):
        return OptimizeResult(x=np.array(x), jac=np.array(jac), success=success, message=message)

    x = [0.5, 1.0, 0.2, -0.3]
    assert stellar._converged(result(x, [3e-7, -2e-7, 0.0, 1e-7]), bounds)
    assert not stellar._converged(result(x, [3e-7, -2e-7, 1e-3, 1e-7]), bounds)
    # r = 0 is inside the box, so a gradient along r is never projected away
    assert not stellar._converged(result([0.0, 1.0, 0.2, -0.3], [0.6, 0.0, 0.0, 0.0]), bounds)
    # on a face of the box an ascent direction out of it is
    assert stellar._converged(result([4.0, 1.0, 0.2, -0.3], [-0.6, 0.0, 0.0, 0.0]), bounds)
    assert not stellar._converged(result([4.0, 1.0, 0.2, -0.3], [0.6, 0.0, 0.0, 0.0]), bounds)
    # any other failure stays a failure, however small the gradient
    stalled = result(x, [0.0] * 4, message="STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")
    assert not stellar._converged(stalled, bounds)
    assert stellar._converged(result(x, [1.0] * 4, success=True), bounds)


def test_canonical_params_keep_the_fidelity():
    rng = np.random.default_rng(12)
    c = np.array([0, 0, 1], dtype=complex)
    for _ in range(20):
        x = np.array([rng.uniform(0, 1.5), rng.uniform(-4, 4), *rng.normal(size=2)])
        assert stellar._objective(c, 2)(stellar._canonical(x))[0] == pytest.approx(
            stellar._objective(c, 2)(x)[0], abs=1e-12
        )
    pt = stellar.max_fidelity_rank_bounded(fs.CoreState.fock(2), 2, restarts=8)
    g = pt.optimal_params
    assert g.displacement.imag == 0.0 and g.displacement.real >= 0.0
    best = max(pt.optimizer_report, key=lambda rep: rep["objective"])
    r, th, br, bi = best["params"]
    w = fs.gaussian_matrix(2, 3, fs.GaussianUnitaryParams(r, th, complex(br, bi))) @ c
    assert float(np.vdot(w, w).real) == pytest.approx(pt.max_fidelity, abs=1e-12)


def test_winner_on_the_search_box_is_refused(monkeypatch):
    # the |1> ceiling lies at r = 0.66
    monkeypatch.setattr(stellar, "_R_MAX", 0.1)
    with pytest.raises(OptimizerError):
        stellar.max_fidelity_rank_bounded(fs.CoreState.fock(1), 1, restarts=4)


def test_optimal_state_consistency():
    pt = stellar.max_fidelity_rank_bounded(fs.CoreState.fock(2), 2, restarts=16)
    opt = pt.optimal_state
    assert opt is not None
    assert opt.stellar_rank <= 1
    st = opt.to_state(96)
    assert fs.fidelity(st, fs.CoreState.fock(2)) == pytest.approx(
        pt.max_fidelity, abs=1e-8
    )


def test_mixture_attainability():
    # p |perp><perp| + (1-p) sigma reaches exactly (1-p) * max_fidelity
    # when |perp> is a coherent state at a Husimi zero of the target
    pt = stellar.max_fidelity_rank_bounded(fs.CoreState.fock(2), 2, restarts=16)
    sigma = pt.optimal_state.to_state(96)
    vacuum = fs.make_fock(0, 96)  # coherent state at alpha = 0, <0|2> = 0
    for p in (0.25, 0.6):
        mix = fs.TruncatedState(
            p * vacuum.matrix + (1 - p) * sigma.matrix,
            trace_deficit=(1 - p) * sigma.trace_deficit,
            validate=False,
        )
        got = fs.fidelity(mix, fs.CoreState.fock(2))
        assert got == pytest.approx((1 - p) * pt.max_fidelity, abs=1e-8)


def test_matrix_element_closed_form_consistency():
    # the optimizer objective is built on <n| S D |m>; check those matrix
    # elements against the holomorphic closed form on random parameters
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(100):
        g = fs.GaussianUnitaryParams(
            rng.uniform(0, 1.2), rng.uniform(-math.pi, math.pi), complex(*rng.normal(size=2))
        )
        n, m = (int(t) for t in rng.integers(0, 5, size=2))
        diff = abs(
            fs.gaussian_matrix_element(n, m, g) - gaussian_element_closed_form(n, m, g)
        )
        worst = max(worst, diff)
    assert worst < 1e-9


def test_rank1_core_profile():
    assert stellar.rank1_core_profile(0.0, restarts=4) == pytest.approx(1.0, abs=1e-6)
    assert stellar.rank1_core_profile(math.pi / 2, restarts=16) == pytest.approx(
        GAUSS_BOUND_ONE, abs=1e-3
    )
    a = stellar.rank1_core_profile(0.7, 0.0, restarts=16)
    b = stellar.rank1_core_profile(0.7, math.pi / 3, restarts=16)
    assert a == pytest.approx(b, abs=1e-6)
    # the single-photon state is the least Gaussian-approximable
    assert a > GAUSS_BOUND_ONE


def _fake_estimate(lower, half=0.05, delta=0.05):
    return ConfidenceEstimate(
        value=lower + half,
        half_width=half,
        confidence=1 - delta,
        n_samples=1,
        method="hoeffding",
        bias_bound=0.0,
        lam=half,
    )


def test_rank_witness_verdicts():
    v2 = stellar.rank_witness_verdict(_fake_estimate(0.70), fs.CoreState.fock(2), restarts=12)
    assert v2["certified_rank"] == 2
    assert v2["threshold_used"] == pytest.approx(0.557, abs=5e-3)
    # the prose rounds the |3> rank-1 ceiling to 0.5; the computed value
    # 0.462 is authoritative, so a 0.51 lower bound certifies rank >= 2
    v3 = stellar.rank_witness_verdict(_fake_estimate(0.51), fs.CoreState.fock(3), restarts=12)
    assert v3["certified_rank"] == 2
    v0 = stellar.rank_witness_verdict(_fake_estimate(0.10), fs.CoreState.fock(2), restarts=4)
    assert v0["certified_rank"] == 0
    assert v0["threshold_used"] is None
    assert v0["confidence"] == pytest.approx(0.95)


def test_stellar_poly_basics():
    with pytest.raises(DomainError):
        stellar.StellarPoly((0.0,))
    with pytest.raises(DomainError):
        stellar.StellarPoly((1.0,), quad=0.6)
    p = stellar.StellarPoly((1.0, 0.0, 2.0, 0.0))
    assert p.degree == 2  # trailing zero stripped


def test_stellar_subtract_cases():
    with pytest.raises(UndefinedSubtractionError):
        stellar.stellar_subtract(stellar.StellarPoly((1.0,)))  # vacuum
    one = stellar.StellarPoly((0.0, 1.0))
    assert stellar.stellar_subtract(one).degree == 0  # a|1> = |0>
    sq = stellar.StellarPoly((1.0,), quad=-0.2)
    assert stellar.stellar_subtract(sq).degree == 1  # squeezing raises rank
    disp = stellar.StellarPoly((1.0,), lin=0.8)
    assert stellar.stellar_subtract(disp).degree == 0  # coherent stays rank 0


def test_subtraction_rank_bound_500_random():
    rng = np.random.default_rng(31)
    for _ in range(500):
        deg = int(rng.integers(0, 5))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        while abs(coeffs[-1]) < 0.1:
            coeffs[-1] = complex(*rng.normal(size=2))
        kind = rng.integers(0, 3)
        quad = (
            0.45 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
            if kind == 0
            else 0j
        )
        lin = complex(*rng.normal(size=2)) if kind != 2 else 0j
        poly = stellar.StellarPoly(tuple(coeffs), quad=quad, lin=lin)
        try:
            sub = stellar.stellar_subtract(poly)
        except UndefinedSubtractionError:
            assert poly.degree == 0 and quad == 0 and lin == 0
            continue
        inc = sub.degree - poly.degree
        assert inc <= 1
        assert inc in (-1, 0, 1)


def test_stellar_add_rank():
    p = stellar.StellarPoly((0.3, 1.0), quad=0.1)
    assert stellar.stellar_add(p).degree == p.degree + 1
