import math

import numpy as np
import pytest

from stellarq import dhd, estimator as est, fockspace as fs, negativity as neg
from stellarq.errors import DomainError

from _oracles import parity_sum


def test_witness_operator():
    a1 = neg.witness_operator(1)
    assert a1.dim == 2
    assert a1.matrix[1, 1] == 1.0 and np.count_nonzero(a1.matrix) == 1
    a2 = neg.witness_operator(2)
    assert a2.matrix[1, 1] == 1.0 and a2.matrix[3, 3] == 1.0
    one = fs.make_fock(1, 8)
    for n in (1, 2, 3):
        op = neg.witness_operator(n)
        tr = np.trace(op.matrix @ one.matrix[: op.dim, : op.dim]).real
        assert tr == pytest.approx(1.0)
    with pytest.raises(DomainError):
        neg.witness_operator(0)


def test_omega_true_values(reference_states):
    assert neg.omega_true(reference_states["one"], 0, 1) == pytest.approx(1.0)
    for n in (1, 2, 4):
        assert neg.omega_true(reference_states["vacuum"], 0, n) == pytest.approx(0.0, abs=1e-14)
    assert neg.omega_true(reference_states["lossy2_09"], 0, 1) == pytest.approx(0.18)


def test_omega_monotone_in_n(reference_states, fig5_state):
    rng = np.random.default_rng(40)
    states = [reference_states["lossy2_06"], reference_states["squeezed_thermal"], fig5_state]
    for state in states:
        for _ in range(5):
            a = complex(*rng.normal(size=2))
            vals = [neg.omega_true(state, a, n) for n in range(1, 5)]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_witness_bound_soundness_and_tightness(reference_states, fig5_state):
    rng = np.random.default_rng(41)
    one = reference_states["one"]
    for state in (one, reference_states["lossy2_08"], fig5_state):
        for _ in range(10):
            a = complex(*rng.normal(size=2))
            w = fs.wigner(state, a)
            for n in (1, 2, 3):
                bound = 2 / math.pi * (1 - 2 * neg.omega_true(state, a, n))
                assert bound >= w - 1e-9
    # tight at alpha = 0 when the support sits below 2n
    assert 2 / math.pi * (1 - 2 * neg.omega_true(one, 0, 1)) == pytest.approx(
        parity_sum(one), abs=1e-12
    )


def test_estimate_omega_certifies_single_photon():
    state = fs.make_fock(1, 8)
    b = dhd.sample_q(state, 100_000, seed=60)
    cfg = est.EstimatorConfig(neg.witness_operator(1), 2, 0.26, 0.2, None, "clt")
    res = neg.estimate_omega(b, 0, 1, cfg)
    assert res.negativity_certified
    assert res.lower_bound > 0.5
    assert res.wigner_upper_bound == pytest.approx(
        2 / math.pi * (1 - 2 * res.lower_bound)
    )
    # one-sided statement: half the two-sided failure probability
    assert res.confidence == pytest.approx(1 - (1 - res.estimate.confidence) / 2)


def test_vacuum_never_certifies_200_runs():
    state = fs.make_fock(0, 8)
    cfg = est.EstimatorConfig(neg.witness_operator(1), 2, 0.3, 0.2, None, "clt")
    false_certs = 0
    for rep in range(200):
        b = dhd.sample_q(state, 2000, seed=9000 + rep)
        res = neg.estimate_omega(b, 0, 1, cfg)
        false_certs += bool(res.negativity_certified)
    assert false_certs == 0


@pytest.mark.parametrize("n_samples", [0, -5])
def test_choose_witness_params_needs_samples(n_samples):
    with pytest.raises(DomainError):
        neg.choose_witness_params(fs.make_fock(1, 8), 1, 0.1, n_samples)


def test_witness_scan(fig5_state):
    assert neg.witness_scan(fig5_state, [], [0.0], 1, None, seed=0, n_samples=10) == []
    # oracle first: the witness is comfortably certifiable at 0 and far
    # below threshold at |alpha| = 4
    assert neg.omega_true(fig5_state, 0, 1) > 0.5 + 0.1
    assert neg.omega_true(fig5_state, 4.0, 1) < 0.1
    cfg = neg.choose_witness_params(fig5_state, 1, 0.1, 150_000)
    results = neg.witness_scan(
        fig5_state, [0.0, 0.3, 4.0], [0.0, 0.3], 1, cfg, seed=61, n_samples=150_000
    )
    # row-major in the real part
    assert [r.alpha for r in results] == [complex(x, y) for x in (0, 0.3, 4) for y in (0, 0.3)]
    lookup = {r.alpha: r for r in results}
    assert lookup[0j].negativity_certified
    assert not lookup[4 + 0j].negativity_certified
    assert lookup[0j].omega_estimate == pytest.approx(
        neg.omega_true(fig5_state, 0, 1), abs=0.1
    )


def test_scan_csv(tmp_path, fig5_state):
    cfg = est.EstimatorConfig(neg.witness_operator(1), 2, 0.2, 0.1, None, "clt")
    results = neg.witness_scan(fig5_state, [0, 1], [0, 1], 1, cfg, seed=62, n_samples=20_000)
    path = tmp_path / "scan.csv"
    neg.scan_to_csv(results, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "re_alpha,im_alpha,omega,half_width,lower_bound,certified"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[2]) - float(first[3]) == pytest.approx(float(first[4]), abs=1e-9)


_GRID_RE, _GRID_IM = (-1.1, 0.0, 0.7), (-0.5, 1.3)


@pytest.fixture(scope="module")
def grid_batch(fig5_state):
    return dhd.sample_q(fig5_state, 20_000, seed=5)


def _feasible_witness_cells():
    """(n, p, eta) over choose_witness_params's grid where lambda > 0 at eps 0.1."""
    for n in (1, 2, 3):
        for p in neg.WITNESS_P_VALUES:
            for eta in neg.WITNESS_ETA_GRID:
                cfg = est.EstimatorConfig(neg.witness_operator(n), p, float(eta), 0.1, None, "clt")
                if cfg.lam() > 0:
                    yield n, p, float(eta)


@pytest.mark.parametrize("method", ["clt", "hoeffding"])
def test_grid_scan_matches_per_point_estimates(grid_batch, method):
    """The separable grid path agrees with estimate_omega at every point of one batch.

    The tolerance on omega is 1e-9 relative to max(1, |omega|): at n = 3,
    p = 4, eta = 0.06 the kernel reaches 1e9 per sample and both paths
    round at about 1e-15 of the estimate, which is then near 4e5.
    """
    cells = list(_feasible_witness_cells())
    assert len(cells) > 60
    for n, p, eta in cells:
        cfg = est.EstimatorConfig(neg.witness_operator(n), p, eta, 0.1, None, method)
        grid = neg.estimate_omega_grid(grid_batch, _GRID_RE, _GRID_IM, n, cfg)
        alphas = [complex(x, y) for x in _GRID_RE for y in _GRID_IM]
        assert [g.alpha for g in grid] == alphas
        strict = (n, p, round(eta, 2)) == (1, 2, 0.2)
        for g, a in zip(grid, alphas):
            d = neg.estimate_omega(grid_batch, a, n, cfg)
            tol = 1e-13 if strict else 1e-9 * max(1.0, abs(d.omega_estimate))
            assert abs(g.omega_estimate - d.omega_estimate) <= tol, (n, p, eta, a)
            assert g.negativity_certified == d.negativity_certified
            assert g.estimate.method == d.estimate.method == method
            if method == "clt":
                rel = abs(g.estimate.sigma_hat / d.estimate.sigma_hat - 1.0)
                assert rel <= (1e-13 if strict else 1e-9), (n, p, eta, a)
            else:
                assert g.estimate.kernel_range == d.estimate.kernel_range
            assert g.confidence == pytest.approx(d.confidence, abs=1e-12)


def test_grid_scan_chunking_and_translation(fig5_state):
    """Batches that end mid-chunk or carry a translation give the per-point answer;
    an empty batch raises as it does on the per-point path."""
    cfg = est.EstimatorConfig(neg.witness_operator(1), 2, 0.2, 0.1, None, "clt")
    for n_samples in (1, neg._GRID_CHUNK - 1, 2 * neg._GRID_CHUNK + 1):
        b = dhd.translate_samples(dhd.sample_q(fig5_state, n_samples, seed=8), 0.4 - 0.2j)
        grid = neg.estimate_omega_grid(b, [0.3], [-0.1, 0.6], 1, cfg)
        for g in grid:
            d = neg.estimate_omega(b, g.alpha, 1, cfg)
            assert g.omega_estimate == pytest.approx(d.omega_estimate, rel=1e-12, abs=1e-12)
            if n_samples > 1:  # one sample has no spread to compare
                assert g.estimate.sigma_hat == pytest.approx(d.estimate.sigma_hat, rel=1e-9)
    assert neg.estimate_omega_grid(b, [], [0.0], 1, cfg) == []
    with pytest.raises(DomainError):
        neg.witness_scan(fig5_state, [0.0], [0.0], 1, cfg, seed=1, n_samples=0)
