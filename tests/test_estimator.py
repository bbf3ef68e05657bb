import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

from stellarq import dhd, estimator as est, fockspace as fs, specfun
from stellarq.negativity import choose_witness_params, witness_operator
from stellarq.errors import (
    DomainError,
    InfeasiblePrecisionError,
    InsufficientSamplesError,
    UnsupportedTargetError,
)

from _oracles import (
    estimate_one_shot,
    kernel_g_scipy,
    kernel_values_one_shot,
    laguerre2d_direct,
    laguerre_direct,
    operator_g_scipy,
    pn_threshold_loop,
    quadrature_q_expectation,
)


def test_kernel_f_closed_cases():
    eta = 0.3
    z = 0.8 - 0.5j
    assert est.kernel_f(0, 0, z, eta) == pytest.approx(
        (1 / eta) * math.exp((1 - 1 / eta) * abs(z) ** 2)
    )
    # at z = 0 only k = l survives, with value (-1)^k / eta^{1+k}
    for k in range(4):
        assert est.kernel_f(k, k, 0j, eta) == pytest.approx((-1) ** k / eta ** (1 + k))
        assert est.kernel_f(k, k + 1, 0j, eta) == 0
    with pytest.raises(DomainError):
        est.kernel_f(0, 0, z, 1.2)


def _l2d_from_kernel_f(k, l, w, eta):
    """L2D_{k,l}(w) read back off f_{k,l}(w sqrt(eta), eta)."""
    pref = eta ** (1.0 + (k + l) / 2.0) * math.exp((1.0 - eta) * abs(w) ** 2)
    return est.kernel_f(k, l, w * math.sqrt(eta), eta) * pref


def test_kernel_f_laguerre2d_base_cases():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = complex(*rng.normal(size=2))
        assert _l2d_from_kernel_f(0, 0, w, 0.4) == pytest.approx(1.0)
        assert _l2d_from_kernel_f(1, 1, w, 0.4) == pytest.approx(abs(w) ** 2 - 1.0)
        assert _l2d_from_kernel_f(2, 0, w, 0.4) == pytest.approx(np.conj(w) ** 2 / math.sqrt(2))


def test_kernel_g_matches_direct_sum():
    # the defining double-factorial sum of L2D, shift by shift
    rng = np.random.default_rng(1)
    for _ in range(100):
        k, l = (int(t) for t in rng.integers(0, 13, size=2))
        p = int(rng.integers(1, 4))
        eta = float(rng.uniform(0.1, 0.9))
        w = complex(*rng.uniform(-20, 20, size=2))
        if abs(w) > 20:
            w *= 20 / abs(w)
        want = sum(
            (-1) ** j * eta**j * math.sqrt(math.comb(k + j, k) * math.comb(l + j, l))
            * laguerre2d_direct(k + j, l + j, w) / eta ** (1.0 + (k + l + 2 * j) / 2.0)
            for j in range(p)
        )
        got = est.kernel_g(k, l, p, w * math.sqrt(eta), eta) * math.exp((1.0 - eta) * abs(w) ** 2)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_kernel_g_conjugate_symmetry():
    # swapping the indices conjugates the value; swapping indices and
    # conjugating the argument leaves it unchanged
    rng = np.random.default_rng(2)
    for _ in range(100):
        k, l = (int(t) for t in rng.integers(0, 13, size=2))
        p, eta = int(rng.integers(1, 4)), float(rng.uniform(0.1, 0.9))
        z = complex(*rng.normal(size=2)) * 2
        v = est.kernel_g(k, l, p, z, eta)
        tol = 1e-12 * max(abs(v), 1.0)
        assert est.kernel_g(l, k, p, z, eta) == pytest.approx(np.conj(v), rel=1e-12, abs=tol)
        assert est.kernel_g(l, k, p, np.conj(z), eta) == pytest.approx(v, rel=1e-12, abs=tol)


def test_kernel_g_diagonal_is_radial():
    # on the diagonal L2D_{n,n}(w) = (-1)^n L_n(|w|^2), from the explicit sum
    rng = np.random.default_rng(3)
    for n in range(7):
        for _ in range(10):
            w = complex(*rng.normal(size=2)) * 2
            v = _l2d_from_kernel_f(n, n, w, 0.3)
            assert v.imag == pytest.approx(0.0, abs=1e-10)
            assert v.real == pytest.approx(
                (-1) ** n * laguerre_direct(n, abs(w) ** 2), rel=1e-9, abs=1e-9
            )
            z = w * math.sqrt(0.3)
            assert est.kernel_g(n, n, 3, z * np.exp(0.71j), 0.3) == pytest.approx(
                est.kernel_g(n, n, 3, z, 0.3), rel=1e-10, abs=1e-10
            )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_g_no_overflow_at_large_argument():
    # degree-65 series far out, where the Gaussian factor underflows to 0;
    # at |z| = 1e3 the series itself overflows to inf, silently, since the
    # value is 0 there
    for k, l in ((64, 64), (0, 64), (80, 3)):
        for z in (40.0 + 0j, 45.0 * np.exp(0.3j), 50j, 1e3 + 0j, 1e3 * np.exp(0.3j), 1e3j):
            assert est.kernel_g(k, l, 2, z, 0.5) == 0


def test_kernel_g_high_index_matches_scipy():
    # k, l up to 55 against scipy's associated Laguerre polynomials,
    # relative to the largest value over the kernel's support
    rng = np.random.default_rng(4)
    for _ in range(40):
        k, l = (int(t) for t in rng.integers(0, 56, size=2))
        p, eta = int(rng.integers(1, 5)), float(rng.uniform(0.05, 0.95))
        x = rng.uniform(0.0, 4.0 * (max(k, l) + p) / (1.0 - eta) + 20.0, size=60)
        z = np.sqrt(eta * x) * np.exp(2j * np.pi * rng.random(60))
        want = kernel_g_scipy(k, l, p, z, eta)
        got = np.array([est.kernel_g(k, l, p, t, eta) for t in z])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_kernel_g_negative_index_raises():
    with pytest.raises(DomainError):
        est.kernel_g(-1, 0, 1, 0.3j, 0.3)
    with pytest.raises(DomainError):
        est.kernel_g(0, -1, 2, 0.3j, 0.3)


def test_laguerre_series():
    # alpha = 0 is numpy's lagval to the bit; alpha > 0 matches scipy
    rng = np.random.default_rng(5)
    xs = np.linspace(0.0, 40.0, 81)
    for n in range(1, 14):
        c = rng.normal(size=n)
        assert est._laguerre_series(xs, c, 0).tobytes() == np.polynomial.laguerre.lagval(xs, c).tobytes()
        for alpha in (1, 4):
            want = sum(c[q] * eval_genlaguerre(q, alpha, xs) for q in range(n))
            np.testing.assert_allclose(est._laguerre_series(xs, c, alpha), want,
                                       rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))
    assert est._laguerre_series(xs, np.ones(1), 3).tolist() == [1.0] * xs.size


def test_kernel_values_match_pointwise():
    # one pass over a 2-D batch gives the scalar kernel at every sample
    rng = np.random.default_rng(6)
    z = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    core = fs.CoreState.from_unnormalized([1.0, 0.5j, -0.3])
    target = fs.TargetOperator.core_projector(core)
    cfg = est.EstimatorConfig(target, 3, 0.3, 0.5, None, "clt")
    got = est.kernel_values(z, cfg)
    assert got.shape == z.shape
    want = [est.kernel_g_operator(target, 3, complex(t), 0.3) for t in z.ravel()]
    np.testing.assert_allclose(got.ravel(), want, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(got, operator_g_scipy(target, 3, z, 0.3), rtol=1e-12, atol=1e-12)


def test_kernel_f_bounded():
    # polynomial times a contracting Gaussian: bounded over the plane
    ss = np.linspace(0, 60, 30_001)
    vals = np.array([abs(est.kernel_f(1, 1, s, 0.3)) for s in ss])
    peak = float(vals.max())
    assert np.isfinite(peak)
    assert vals[-1] < 1e-12 * peak  # decays far out, sup attained in the scan


def test_kernel_g_structure():
    z = 0.4 + 0.9j
    eta = 0.25
    assert est.kernel_g(2, 1, 1, z, eta) == pytest.approx(est.kernel_f(2, 1, z, eta))
    want = est.kernel_f(0, 0, z, eta) - eta * est.kernel_f(1, 1, z, eta)
    assert est.kernel_g(0, 0, 2, z, eta) == pytest.approx(want)
    # diagonal kernels are real and radial
    v1 = est.kernel_g(2, 2, 3, z, eta)
    v2 = est.kernel_g(2, 2, 3, abs(z) + 0j, eta)
    assert v1.imag == pytest.approx(0.0, abs=1e-12)
    assert v1 == pytest.approx(v2)


def test_kernel_g_operator_linearity():
    z = 1.1 - 0.3j
    eta = 0.3
    proj0 = fs.TargetOperator.fock_projector(0)
    assert est.kernel_g_operator(proj0, 2, z, eta) == pytest.approx(
        est.kernel_g(0, 0, 2, z, eta)
    )
    ident2 = fs.TargetOperator(np.eye(2))
    assert est.kernel_g_operator(ident2, 2, z, eta) == pytest.approx(
        est.kernel_g(0, 0, 2, z, eta) + est.kernel_g(1, 1, 2, z, eta)
    )
    from stellarq.negativity import choose_witness_params, witness_operator

    wit = witness_operator(2)
    assert est.kernel_g_operator(wit, 3, z, eta) == pytest.approx(
        est.kernel_g(1, 1, 3, z, eta) + est.kernel_g(3, 3, 3, z, eta)
    )


def test_pn_threshold_values():
    assert est.pn_threshold(0, 3, 0.34) == 4
    assert est.pn_threshold(1, 3, 0.26) == 3
    for eta in (0.1, 0.3, 0.6, 0.9):
        assert est.pn_threshold(0, 1, eta) == 1


def _pn_rhs(n: int, p: int, q: int) -> float:
    return (1.0 - (p - 1) / q) * (1.0 - n / (n + q + 1))


def test_pn_threshold_matches_the_loop():
    # the search returns the q a count up from p returns: on random cases, on the
    # optimize_params grid, and at (and one ulp past) the float right-hand side of some q
    rng = np.random.default_rng(24)
    cases = [(int(rng.integers(0, 201)), int(rng.integers(1, 9)), float(rng.uniform(1e-3, 1 - 1e-5)))
             for _ in range(20_000)]
    cases += [(n, p, float(eta)) for n in range(11) for p in range(1, 9) for eta in est.OPTIMIZE_ETA_GRID]
    for _ in range(2_000):
        n, p = int(rng.integers(0, 201)), int(rng.integers(1, 9))
        eta = _pn_rhs(n, p, p + int(rng.integers(0, 1_000)))
        if 0.0 < eta < 1.0:
            cases += [(n, p, eta), (n, p, math.nextafter(eta, 1.0))]
    for n, p, eta in cases:
        assert est.pn_threshold(n, p, eta) == pn_threshold_loop(n, p, eta), (n, p, eta)


def test_pn_threshold_near_eta_one():
    # p_n exists for every eta < 1; a count up from p gave up past 10M steps, at about 1 - 1e-7
    n, p = 2, 2
    for eta in (0.9999999, 1.0 - 1e-12, math.nextafter(1.0, 0.0)):
        q = est.pn_threshold(n, p, eta)
        assert q > p and eta <= _pn_rhs(n, p, q) and not eta <= _pn_rhs(n, p, q - 1)


def test_bias_bound_values():
    assert est.bias_bound(0, 3, 0.34) == pytest.approx(0.5 * 0.34**4 * 3 * 1, rel=1e-12)
    seq = [est.bias_bound(0, 3, e) for e in (0.3, 0.1, 0.01, 1e-3, 1e-4)]
    assert all(a > b for a, b in zip(seq, seq[1:]))  # vanishes with eta
    assert seq[-1] < 1e-12
    # exact-integer binomial cross-check at (1, 3, 0.26), p_n = 3
    want = 0.5 * 0.26**3 * math.comb(2, 2) * math.comb(4, 1)
    assert est.bias_bound(1, 3, 0.26) == pytest.approx(want, rel=1e-12)


def test_kernel_h_recentering():
    z = 0.6 + 0.2j
    for p in (1, 2, 3):
        eta = 0.3
        g = est.kernel_g(1, 1, p, z, eta).real
        h = est.kernel_h(1, p, z, eta)
        offset = h - g
        assert abs(offset) == pytest.approx(est.bias_bound(1, p, eta), rel=1e-12)
        # p odd: g overestimates, so the recentering is downward
        assert (offset < 0) == (p % 2 == 1)


def test_kernel_h_vacuum_expectation():
    # over the vacuum, E[g_00] = 1 exactly (no excited populations)
    b = dhd.sample_q(fs.make_fock(0, 8), 200_000, seed=50)
    p, eta = 2, 0.3
    cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(0), p, eta, 0.3, None)
    vals = est.kernel_values(b.samples, cfg) - 0.5 * (-1) ** p * 2 * est.bias_bound(0, p, eta)
    se = float(np.std(vals)) / math.sqrt(vals.size)
    assert float(np.mean(vals)) == pytest.approx(1.0, abs=3 * se)


def _scan_range(target, p, eta, x_end, n_points, scale=1.0):
    """Brute-scan range (0 included) of scale * g_A^{(p)} along the real
    axis, x = |z|^2 / eta in [0, x_end], through the scipy oracle."""
    xs = np.linspace(0.0, x_end, n_points)
    vals = scale * operator_g_scipy(target, p, np.sqrt(eta * xs) + 0j, eta).real
    return max(vals.max(), 0.0) - min(vals.min(), 0.0)


KERNEL_RANGE_CASES = {
    "vacuum-0.2": (0, 1, 0.2),
    "vacuum-0.35": (0, 1, 0.35),
    "vacuum-0.6": (0, 1, 0.6),
    "fock1": (1, 1, 0.3),
    "signed-diagonal": (fs.TargetOperator(np.diag([0.7, -1.3, 0.0, 0.4, -0.2])), 2, 0.35),
    "witness3": (witness_operator(3), 3, 0.3),
    "far-tail": (10, 1, 0.99),  # extrema near x = 1e3
}


@pytest.mark.parametrize("case", list(KERNEL_RANGE_CASES), ids=list(KERNEL_RANGE_CASES))
def test_kernel_range_values(case):
    target, p, eta = KERNEL_RANGE_CASES[case]
    if isinstance(target, int):
        # the scaled range of eta^{n+1} g_nn
        op, scale = fs.TargetOperator.fock_projector(target), eta ** (target + 1)
    else:
        op, scale = target, 1.0
    deg = max(k for k, _ in op.diagonal_entries()) + p - 1
    brute = _scan_range(op, p, eta, 3.0 * deg / (1.0 - eta) + 4 * deg + 16, 400_001, scale)
    got = est.kernel_range(target, p, eta)
    assert got == pytest.approx(brute, rel=1e-6)
    assert got >= brute * (1.0 - 1e-12)
    if case.startswith("vacuum"):
        assert got == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    diag=st.dictionaries(
        st.integers(0, 14),
        st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 1e-3),
        min_size=1,
        max_size=15,
    ),
    p=st.integers(1, 5),
    eta=st.floats(0.02, 0.98),
)
def test_kernel_range_never_below_scan(diag, p, eta):
    d = np.zeros(15)
    for k, a in diag.items():
        d[k] = a
    target = fs.TargetOperator(np.diag(d))
    x_end = 1.5 * max(max(diag) + p - 1, 1) / (1.0 - eta)
    brute = _scan_range(target, p, eta, x_end, 20_001)
    assert est.kernel_range(target, p, eta) >= brute * (1.0 - 1e-12)


def test_hoeffding_exponent_matches_paper_scaling():
    n, p, eta, eps, N = 1, 2, 0.26, 0.2, 1_000_000
    cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(n), p, eta, eps, None)
    lam = eps - est.bias_bound(n, p, eta)
    r_scaled = est.kernel_range(n, p, eta)
    want = 2 * math.exp(-2 * N * lam**2 * eta ** (2 * n + 2) / r_scaled**2)
    assert want < 1
    assert est.achieved_delta(cfg, N) == pytest.approx(want, rel=1e-9)


def test_config_constants_follow_replace_and_feed_the_interval():
    """The stored bias, p_n map and diagonality are recomputed by replace,
    ignored by equality, and the Hoeffding interval reads the same N and
    delta off them as required_samples and achieved_delta."""
    cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(1), 2, 0.26, 0.2, 0.05)
    other = dataclasses.replace(cfg, target=witness_operator(2), eta=0.2)
    assert (other.bias(), other.pn_by_index(), other.is_diagonal) == (
        est.bias_bound(1, 2, 0.2) + est.bias_bound(3, 2, 0.2),
        {1: est.pn_threshold(1, 2, 0.2), 3: est.pn_threshold(3, 2, 0.2)},
        True,
    )
    assert other.hoeffding_range == est.kernel_range(witness_operator(2), 2, 0.2)
    core = fs.TargetOperator.core_projector(fs.CoreState.from_unnormalized([1, 1]))
    assert not dataclasses.replace(cfg, target=core, bound_method="clt").is_diagonal
    twin = est.EstimatorConfig(cfg.target, 2, 0.26, 0.2, 0.05)
    object.__setattr__(twin, "_bias", -1.0)
    assert twin == cfg
    n = est.required_samples(cfg)
    assert est.estimate_from_moments(cfg, n, 0.4).confidence == 1.0 - 0.05
    with pytest.raises(InsufficientSamplesError) as info:
        est.estimate_from_moments(cfg, n - 1, 0.4)
    assert info.value.details["required_n"] == n
    loose = dataclasses.replace(cfg, delta=None)
    res = est.estimate_from_moments(loose, 100_000, 0.4)
    assert res.confidence == 1.0 - est.achieved_delta(loose, 100_000)
    assert res.kernel_range == loose.hoeffding_range == est.kernel_range(cfg.target, 2, 0.26)


def test_unbiased_on_truncated_support():
    # lossy |2> has no population above n = 2, so E[g_22] = rho_22 exactly
    state = fs.make_lossy_fock(2, 0.8, 8)
    b = dhd.sample_q(state, 1_000_000, seed=51)
    for p in (1, 2):
        cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(2), p, 0.25, 0.3, None)
        vals = est.kernel_values(b.samples, cfg) - 0.5 * (-1) ** p * 2 * est.bias_bound(2, p, 0.25)
        se = float(np.std(vals)) / math.sqrt(vals.size)
        assert float(np.mean(vals)) == pytest.approx(0.64, abs=3 * se)


def test_bias_sign(fig5_state):
    # p odd overestimates, p even underestimates, on a state with support
    # past the kernel cutoff
    b = dhd.sample_q(fig5_state, 400_000, seed=52)
    truth = float(np.real(fig5_state.matrix[1, 1]))
    for p, side in ((1, 1), (2, -1), (3, 1)):
        cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(1), p, 0.22, 0.3, None)
        vals = est.kernel_values(b.samples, cfg) - 0.5 * (-1) ** p * 2 * est.bias_bound(1, p, 0.22)
        mean = float(np.mean(vals))
        se = float(np.std(vals)) / math.sqrt(vals.size)
        assert side * (mean - truth) > -3 * se


def test_expectation_identity_by_quadrature():
    # E_Q[g_nn^(p)] = rho_nn + (-1)^(p+1) sum_q rho_{n+q,n+q} eta^q
    #                 C(q-1,p-1) C(n+q,q): exact, by 2-D quadrature
    state = fs.make_squeezed_thermal(0.3, 0.4, 0.9, 24)
    pops = state.populations()
    for (n, p, eta) in [(0, 1, 0.4), (1, 2, 0.3), (2, 3, 0.2)]:
        cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(n), p, eta, 0.4, None)
        offset = 0.5 * (-1) ** p * 2 * est.bias_bound(n, p, eta)
        got = quadrature_q_expectation(
            state, lambda z: np.real(est.kernel_values(z, cfg)) - offset, extent=8.0
        ).real
        tail = sum(
            pops[n + q] * eta**q * math.comb(q - 1, p - 1) * math.comb(n + q, q)
            for q in range(p, state.dim - n)
        )
        want = pops[n] + (-1) ** (p + 1) * tail
        assert got == pytest.approx(want, abs=1e-9)


def test_offdiagonal_estimation_clt():
    phi = 0.9
    core = fs.CoreState.from_unnormalized([1.0, np.exp(1j * phi)])
    state = core.to_state(8)
    b = dhd.sample_q(state, 400_000, seed=53)
    target = fs.TargetOperator(np.array([[0, 1], [0, 0]], dtype=complex))  # |0><1|
    cfg = est.EstimatorConfig(target, 2, 0.3, 0.2, None, "clt")
    res = est.estimate(b, cfg)
    want = complex(np.exp(1j * phi)) / 2  # Tr(|0><1| rho) = <1|rho|0>
    se = res.sigma_hat / math.sqrt(res.n_samples)
    assert abs(res.value - want) < 4 * se
    with pytest.raises(UnsupportedTargetError):
        est.estimate(b, est.EstimatorConfig(target, 2, 0.3, 0.2, None, "hoeffding"))


def test_infeasible_and_insufficient():
    target = fs.TargetOperator.fock_projector(1)
    cfg = est.EstimatorConfig(target, 2, 0.26, 0.05, 0.05)  # eps < bias bound
    with pytest.raises(InfeasiblePrecisionError) as exc:
        est.required_samples(cfg)
    assert exc.value.details["min_epsilon"] == pytest.approx(est.bias_bound(1, 2, 0.26))
    b = dhd.sample_q(fs.make_fock(1, 8), 1000, seed=54)
    good = est.EstimatorConfig(target, 2, 0.26, 0.2, 0.05)
    with pytest.raises(InsufficientSamplesError) as exc2:
        est.estimate(b, good)
    assert exc2.value.details["required_n"] == est.required_samples(good)


def test_required_samples_monotonicity():
    target = fs.TargetOperator.fock_projector(1)
    ns_eps = [
        est.required_samples(est.EstimatorConfig(target, 2, 0.26, e, 0.05))
        for e in (0.15, 0.2, 0.25, 0.3)
    ]
    assert all(a >= b for a, b in zip(ns_eps, ns_eps[1:]))
    ns_delta = [
        est.required_samples(est.EstimatorConfig(target, 2, 0.26, 0.2, d))
        for d in (0.01, 0.05, 0.1, 0.2)
    ]
    assert all(a >= b for a, b in zip(ns_delta, ns_delta[1:]))


def test_clt_tighter_than_hoeffding():
    state = fs.make_lossy_fock(2, 0.8, 8)
    b = dhd.sample_q(state, 200_000, seed=55)
    target = fs.TargetOperator.fock_projector(2)
    hoeff = est.estimate(b, est.EstimatorConfig(target, 3, 0.25, 0.2, None))
    clt = est.estimate(b, est.EstimatorConfig(target, 3, 0.25, 0.2, None, "clt"))
    assert clt.confidence >= hoeff.confidence
    assert clt.value == pytest.approx(hoeff.value)


def test_clt_sizing_holds_at_small_delta():
    # u = erfcinv(delta) from the normal tail, not erfinv(1 - delta), where
    # 1 - delta rounds: N is read back as u^2 at sigma^2 / lam^2 = 1e20, so
    # its rounding is far below the 1e-14 compared
    from scipy.special import erfcinv  # the oracle only; the library does not import scipy

    sigma, lam = 1e10, 1.0
    for delta in (0.05, 1e-3, 1e-8, 1e-12, 1e-16):
        n = est.clt_required_samples(sigma, lam, delta, 0.0)
        u = math.sqrt(n * lam**2 / (2.0 * sigma**2))
        assert u == pytest.approx(float(erfcinv(delta)), rel=1e-14, abs=0)
    # erfinv(1 - 1e-17) is inf, which overflowed the sizing
    assert math.isfinite(est.clt_required_samples(1.0, 0.3, 1e-17, 0.0))
    assert math.isfinite(est.clt_required_samples(1.0, 0.3, 1e-30, 0.0))
    # the least subnormal halves to 0, which the tail is floored at
    assert math.isfinite(est.clt_required_samples(1.0, 0.3, 5e-324, 0.0))
    # no sample size gives certainty, and the floor must not invent one
    for delta in (0.0, -1e-3, 1.0, math.nan):
        with pytest.raises(DomainError):
            est.clt_required_samples(1.0, 0.3, delta, 0.0)


def test_estimate_reports_invariant():
    state = fs.make_lossy_fock(2, 0.8, 8)
    b = dhd.sample_q(state, 50_000, seed=56)
    cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(2), 2, 0.24, 0.3, None)
    res = est.estimate(b, cfg)
    assert res.half_width == pytest.approx(res.lam + res.bias_bound)
    d = res.to_report_dict()
    for key in ("value", "half_width", "confidence", "N", "method", "p",
                "eta", "p_n", "bias_bound", "lambda", "kernel_range"):
        assert key in d
    # only a CLT report carries sigma_hat, so Hoeffding reports keep their bytes
    assert "sigma_hat" not in d
    clt = est.estimate(b, est.EstimatorConfig(cfg.target, 2, 0.24, 0.3, None, "clt"))
    assert clt.to_report_dict()["sigma_hat"] == clt.sigma_hat > 0


def test_vacuum_estimation_flow_at_table_budget():
    # (p, eta) = (3, 0.34) at (eps, delta) = (0.1, 0.05) needs N ~ 2.7e4,
    # and the resulting estimate of rho_00 = 1 lands within 0.1
    target = fs.TargetOperator.fock_projector(0)
    cfg = est.EstimatorConfig(target, 3, 0.34, 0.1, 0.05)
    n_req = est.required_samples(cfg)
    assert abs(n_req - 2.7e4) / 2.7e4 <= 0.10
    b = dhd.sample_q(fs.make_fock(0, 8), n_req, seed=57)
    res = est.estimate(b, cfg)
    assert abs(res.value - 1.0) <= 0.1
    assert res.confidence == pytest.approx(0.95)
    assert res.half_width == pytest.approx(0.1)


def _range_by_lagroots(w, eta):
    """One kernel's range through numpy's lagder and lagroots, root by root."""
    lag = np.polynomial.laguerre
    dw = -(1.0 - eta) * w
    dw[:-1] += lag.lagder(w)
    xs = np.concatenate(([0.0], np.maximum(lag.lagroots(dw).real, 0.0)))
    vals = est._series_eval({0: w}, eta, xs)
    return max(float(vals.max()), 0.0) - min(float(vals.min()), 0.0)


def test_radial_range_stack_matches_lagroots():
    # the stacked companion-matrix solve over optimize_params' eta grid gives
    # the ranges of numpy's per-kernel root solve bit for bit
    etas = np.exp(np.linspace(math.log(1e-3), math.log(1.0 - 1e-3), 200))
    for n in range(6):
        for p in range(1, 9):
            w = np.array([est._diag_series([(n, 1.0)], p, e) * e ** (n + 1) for e in etas])
            want = np.array([_range_by_lagroots(row.copy(), e) for row, e in zip(w, etas)])
            assert est._radial_range(w, etas).tobytes() == want.tobytes()
            assert [est.kernel_range(n, p, e) for e in etas[::20]] == want[::20].tolist()


def test_objective_matches_the_kernel_weights():
    # the per-rank exponents, the zero-padded rows and the per-degree range solves give,
    # bit for bit, J from _diag_series' weights and one single-row range solve per eta
    etas = est.OPTIMIZE_ETA_GRID[::4]
    for n in range(11):
        objective = est._objective(n, 0.2)
        for p in range(1, est.OPTIMIZE_P_MAX + 1):
            want = []
            for e in etas:
                lam, scale = 0.2 - est.bias_bound(n, p, e), e ** (n + 1)
                w = est._diag_series([(n, 1.0)], p, e) * scale
                want.append(lam * scale / est._radial_range(w[None], np.array([e]))[0] if lam > 0 else 0.0)
            assert objective(np.full(etas.size, p), etas).tolist() == want, (n, p)


@pytest.mark.parametrize(
    "args, report",
    [
        ((1, 0.2, 0.05), {"N": 581429, "p": 2, "eta": 0.2555244634578612, "p_n": 2,
                          "kernel_range": 3.741451100050597}),
        ((2, 0.3, 0.05), {"N": 15937808, "p": 2, "eta": 0.2439609846977786, "p_n": 2,
                          "kernel_range": 5.183672238781993}),
        ((3, 0.1, 0.01), {"N": 511563022135, "p": 4, "eta": 0.20861676019474598, "p_n": 5,
                          "kernel_range": 46.39775566279569}),
        # near eta = 1, p_n of Fock 4 passes the log-factorial table
        ((4, 0.2, 0.05), {"N": 4997669590981, "p": 3, "eta": 0.18025833084077197, "p_n": 4,
                          "kernel_range": 27.9258311876235}),
        ((0, 0.1, 0.05), {"N": 26767, "p": 3, "eta": 0.33546278135637037, "p_n": 4,
                          "kernel_range": 3.2735152135636594}),
        ((5, 0.05, 0.05), {"N": 441779267466724096, "p": 6, "eta": 0.18833695071423567, "p_n": 8,
                           "kernel_range": 624.8425385878013}),
        ((6, 0.3, 0.01), {"N": 95219077959452176, "p": 3, "eta": 0.15686697543997496, "p_n": 4,
                          "kernel_range": 48.417104804681315}),
        ((10, 0.2, 0.05), {"N": 12587204620621095968658423808, "p": 7, "eta": 0.16382906722966512,
                           "p_n": 9, "kernel_range": 16974.315552721047}),
    ],
)
def test_optimize_params_reports_pinned(args, report):
    # pinned to the last bit: the eta grid and its range solve must not move them.
    # eta sits on a flat argmin, so the log-factorial table's last bit moves it
    # (by 1e-9 relative between scipy's gammaln and math.lgamma); N, p and p_n stay
    n, epsilon, delta = args
    assert est.optimize_params(*args).to_report_dict() == dict(report, epsilon=epsilon, delta=delta)


def test_optimize_params_table_rows():
    r = est.optimize_params(0, 0.1, 0.05)
    assert r.config.p == 3
    assert abs(r.config.eta - 0.34) <= 0.02
    assert abs(r.required_n - 2.7e4) / 2.7e4 <= 0.10
    r2 = est.optimize_params(1, 0.2, 0.05)
    assert (r2.config.p, abs(r2.config.eta - 0.26) <= 0.02) == (2, True)
    assert abs(r2.required_n - 5.8e5) / 5.8e5 <= 0.10
    # at every p <= 8 the bias bound exceeds epsilon over the whole eta grid
    with pytest.raises(InfeasiblePrecisionError) as info:
        est.optimize_params(2, 1e-30, 0.05)
    assert info.value.details["p_max"] == est.OPTIMIZE_P_MAX == 8


def test_optimize_params_past_the_float_range_is_infeasible():
    # the bias bound passes the floats near eta = 1 and the kernel weights at small eta:
    # there the bias is inf and J is 0, not an OverflowError (whole runs: test_cli's
    # test_optimize_params_large_fock_exits_cleanly)
    assert est.bias_bound(500, 1, 0.999) == math.inf
    assert est._objective(500, 0.2)(np.array([8, 8]), np.array([1e-3, 0.5])).tolist() == [0.0, 0.0]


def test_bias_bound_matches_the_log_factorial_table():
    # math.lgamma, not the table, so p_n may pass it; inside it the bits are the table's
    rng = np.random.default_rng(5)
    for _ in range(2_000):
        n, p, eta = int(rng.integers(0, 200)), int(rng.integers(1, 9)), float(rng.uniform(1e-3, 0.999))
        pn = est.pn_threshold(n, p, eta)
        if n + pn > 10_000:
            continue
        log = pn * math.log(eta) + specfun.log_binomial(pn - 1, p - 1) + specfun.log_binomial(n + pn, n)
        if log < 709:  # math.exp(log) is finite
            assert est._bias_full(n, p, eta) == math.exp(log)


def test_required_samples_refuses_a_kernel_past_the_float_range():
    # the Fock-100 kernel at p = 1, eta = 0.003 overflows where its Gaussian
    # factor is nonzero, so its range is not a number
    cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(100), 1, 0.003, 0.2)
    with pytest.raises(InfeasiblePrecisionError, match="float range"):
        est.required_samples(cfg)


def test_series_overflow_where_gaussian_is_nonzero_stays_visible():
    # a weight of 1e308 times e^{-(1 - eta) x} = e^5 at x = -10 overflows where
    # the Gaussian factor is nonzero: the inf is kept and warned of, not zeroed
    with pytest.warns(RuntimeWarning, match="overflowed"):
        vals = est._series_eval({0: np.array([1e308])}, 0.5, np.array([0.0, -10.0]))
    assert vals[0] == 1e308 and vals[1] == np.inf


def test_series_sum_past_the_float_range_does_not_warn():
    # two finite values of 1e308 sum past the float range; no value overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = est._series_eval({0: np.array([1e308])}, 0.5, np.array([0.0, 0.0]))
    assert vals.tolist() == [1e308, 1e308]


def test_kernel_values_warn_of_an_overflow_in_a_later_block():
    # the Fock-100 kernel at p = 1, eta = 0.003 overflows at |z| = 1.1 (x ~ 400),
    # where its Gaussian factor is about 1e-173: one such sample past the first block
    cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(100), 1, 0.003, 0.2)
    z = np.zeros(est._BLOCK + 1, dtype=complex)
    z[-1] = 1.1
    with pytest.warns(RuntimeWarning, match="overflowed"):
        vals = est.kernel_values(z, cfg)
    assert np.isfinite(vals[:-1]).all() and not np.isfinite(vals[-1])


_B = est._BLOCK
_BLOCK_TARGETS = {
    "fock1": (fs.TargetOperator.fock_projector(1), 2, 0.3, 0.3),
    "witness3": (witness_operator(3), 3, 0.15, 0.3),
    "complex-core": (fs.TargetOperator.core_projector(fs.CoreState.from_unnormalized([1.0, 0.5j, -0.3])), 3, 0.3, 0.5),
}


@pytest.mark.parametrize("name", list(_BLOCK_TARGETS))
def test_blocked_pass_matches_the_one_shot_pass(name):
    # kernel values and every estimate report, bit for bit, on both sides of each block edge
    target, p, eta, eps = _BLOCK_TARGETS[name]
    rng = np.random.default_rng(11)
    methods = ("hoeffding", "clt") if target.is_diagonal else ("clt",)
    for n in (0, 1, _B - 1, _B, _B + 1, 3 * _B + 5):
        z = 1.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        cfg = est.EstimatorConfig(target, p, eta, eps, None, methods[-1])
        got, want = est.kernel_values(z, cfg), kernel_values_one_shot(z, cfg)
        assert got.dtype == want.dtype == (float if target.is_diagonal else complex)
        assert got.tobytes() == want.tobytes(), n
        for method in methods if n else ():
            cfg = dataclasses.replace(cfg, bound_method=method)
            got, want = est.estimate(z, cfg).to_report_dict(), estimate_one_shot(z, cfg).to_report_dict()
            assert json.dumps(got) == json.dumps(want), (n, method)


def test_clt_estimate_holds_one_values_array(fig5_state):
    # the kernel runs a block at a time into its output and the variance is formed
    # in place on it: one values array plus a constant (1.12 arrays; 4.0 with a
    # one-shot kernel pass and np.var)
    n = 550_000
    batch = dhd.sample_q(fig5_state, n, seed=5)
    cfg = choose_witness_params(fig5_state, 1, 0.1, n)
    assert cfg.bound_method == "clt" and cfg.is_diagonal
    est.estimate(batch, cfg)
    tracemalloc.start()
    try:
        est.estimate(batch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * 8 + (1 << 20), peak / (n * 8)
