import math

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from stellarq import dhd, estimator, fockspace as fs
from stellarq.errors import DomainError

from _oracles import gamma_mixture_cdf, q_polar_cells, radial_cdf_interp


def test_vacuum_radial_moment():
    # E_Q[|z|^2] = <n> + 1 = 1 for the vacuum
    b = dhd.sample_q(fs.make_fock(0, 8), 100_000, seed=42)
    m = float(np.mean(np.abs(b.samples) ** 2))
    assert 0.99 <= m <= 1.01


def test_single_photon_radial_moment():
    b = dhd.sample_q(fs.make_fock(1, 8), 100_000, seed=43)
    m = float(np.mean(np.abs(b.samples) ** 2))
    assert m == pytest.approx(2.0, rel=0.02)


def test_empty_batch():
    b = dhd.sample_q(fs.make_fock(0, 8), 0, seed=0)
    assert b.n == 0
    assert b.acceptance_rate == 1.0
    with pytest.raises(DomainError):
        dhd.sample_q(fs.make_fock(0, 8), -1, seed=0)


def test_translate_semantics():
    b = dhd.sample_q(fs.make_fock(0, 8), 1000, seed=4)
    assert dhd.translate_samples(b, 0) == b
    alpha = 0.7 - 0.2j
    fwd = dhd.translate_samples(b, alpha)
    np.testing.assert_array_equal(fwd.effective_samples(), b.samples - alpha)
    back = dhd.translate_samples(fwd, -alpha)
    assert back == b  # exact, including the translation bookkeeping


def test_translated_vacuum_estimates_displaced_overlap():
    # translating vacuum samples by alpha and estimating |0><0| yields
    # |<0|D(alpha)|0>|^2 = e^{-|alpha|^2}
    alpha = 1.0
    b = dhd.sample_q(fs.make_fock(0, 8), 200_000, seed=5)
    t = dhd.translate_samples(b, alpha)
    cfg = estimator.EstimatorConfig(
        fs.TargetOperator.fock_projector(0), 3, 0.25, 0.2, None, "clt"
    )
    est = estimator.estimate(t, cfg)
    assert est.value == pytest.approx(math.exp(-1.0), abs=0.05)


def test_unbalanced_zeta_zero_identical():
    st = fs.make_fock(1, 8)
    assert abs(math.log(0.5 / 0.5)) == 0.0  # R = T means zeta = 0, balanced
    b0 = dhd.sample_q(st, 5000, seed=9)
    bz = dhd.sample_unbalanced(st, 0, 5000, seed=9)
    np.testing.assert_array_equal(b0.samples, bz.samples)


def test_unbalanced_squeezed_vacuum_moments():
    # Q of S(r)|0>: Var(Re z) = (1 + e^{-2r})/4, Var(Im z) = (1 + e^{2r})/4
    r = 0.4
    b = dhd.sample_unbalanced(fs.make_fock(0, 16), r, 200_000, seed=10)
    vr = float(np.var(b.samples.real))
    vi = float(np.var(b.samples.imag))
    assert vr == pytest.approx((1 + math.exp(-2 * r)) / 4, rel=0.02)
    assert vi == pytest.approx((1 + math.exp(2 * r)) / 4, rel=0.02)
    assert b.zeta == r


def test_determinism_across_runs_and_workers():
    st = fs.make_lossy_fock(2, 0.8, 8)
    a = dhd.sample_q(st, 30_000, seed=77)
    b = dhd.sample_q(st, 30_000, seed=77)
    assert a == b
    for workers in (4, 8):
        c = dhd.sample_q(st, 30_000, seed=77, n_workers=workers)
        np.testing.assert_array_equal(a.samples, c.samples)
        assert c.acceptance_rate == a.acceptance_rate


def test_kolmogorov_smirnov_radial(reference_states):
    # |alpha| empirical distribution vs the radial CDF from quadrature
    for name in ("vacuum", "one", "two", "squeezed_thermal"):
        state = reference_states[name]
        b = dhd.sample_q(state, 100_000, seed=hash(name) % 2**32)
        cdf = radial_cdf_interp(state, s_max=14.0)
        res = kstest(np.abs(b.samples), cdf)
        assert res.pvalue > 1e-3, (name, res)


def test_radius_squared_is_gamma_mixture(fig5_state, reference_states):
    # |z|^2 ~ sum_k rho_kk Gamma(k+1, 1) / Tr rho, whatever the off-diagonals
    r = fs.db_to_r(3.0)
    unbalanced = fs.apply_gaussian(fig5_state, fs.GaussianUnitaryParams(r, math.pi, 0j), out_dim=None)
    cases = {
        "lossy": (reference_states["lossy2_08"], dhd.sample_q(reference_states["lossy2_08"], 100_000, seed=31)),
        "fig5": (fig5_state, dhd.sample_q(fig5_state, 100_000, seed=32)),
        "unbalanced": (unbalanced, dhd.sample_unbalanced(fig5_state, -r, 100_000, seed=33)),
    }
    assert unbalanced.dim == 62
    for name, (state, batch) in cases.items():
        res = kstest(np.abs(batch.samples) ** 2, gamma_mixture_cdf(state))
        assert res.pvalue > 1e-3, (name, res)


def test_phase_within_radius_shells(reference_states):
    # chi^2 of the phase histogram in each radius shell against Q quadrature;
    # squeezed_thermal is real, so it cannot tell phi from -phi: the rotated,
    # displaced state, with complex entries and odd offsets, can
    squeezed = reference_states["squeezed_thermal"]
    rotated = fs.apply_gaussian(
        fs.make_squeezed_thermal(0.3, 0.7, 0.9, 32), fs.GaussianUnitaryParams(0.0, 0.0, 0.6 - 0.4j)
    )
    edges, bins, n = np.array([0.0, 0.5, 0.8, 1.1, 1.5, 2.2, 7.0]), 16, 200_000
    for name, state in (("squeezed_thermal", squeezed), ("rotated_displaced", rotated)):
        b = dhd.sample_q(state, n, seed=41)
        assert 0.0 < b.acceptance_rate < 1.0
        observed, _, _ = np.histogram2d(
            np.abs(b.samples), np.angle(b.samples) % (2 * math.pi), bins=[edges, bins],
            range=[None, (0.0, 2 * math.pi)],
        )
        cells = q_polar_cells(state, edges, bins)
        expected = observed.sum(axis=1, keepdims=True) * cells / cells.sum(axis=1, keepdims=True)
        stat = float(((observed - expected) ** 2 / expected).sum())
        pvalue = chi2.sf(stat, (len(edges) - 1) * (bins - 1))
        assert pvalue > 1e-3, (name, stat, pvalue)


def test_high_dim_non_diagonal_state_stays_finite():
    # a displaced squeezed thermal state near <n> = 144 needs dim 256; its
    # phase coefficients span offsets up to 255 at radii near 12
    squeezed = fs.make_squeezed_thermal(0.3, 0.4, 0.8, 32)
    state = fs.apply_gaussian(squeezed, fs.GaussianUnitaryParams(0.0, 0.0, 12.0 + 0j))
    assert state.dim >= 256
    b = dhd.sample_q(state, 8192, seed=51)
    assert np.all(np.isfinite(b.samples))
    assert 0.0 < b.acceptance_rate <= 1.0
    r2 = np.abs(b.samples) ** 2
    assert abs(r2.mean() - (state.mean_photon() + 1.0)) < 6 * r2.std() / math.sqrt(b.n)
    assert kstest(r2, gamma_mixture_cdf(state)).pvalue > 1e-3


def test_diagonal_states_accept_every_phase(reference_states):
    for name in ("vacuum", "two", "lossy2_06"):
        assert dhd.sample_q(reference_states[name], 10_000, seed=3).acceptance_rate == 1.0


def test_radial_density_matches_q_quadrature(fig5_state):
    s = np.linspace(0.0, 6.0, 61)
    phases = np.exp(2j * np.pi * np.arange(128) / 128)
    q = fs.husimi_q(fig5_state, np.outer(s, phases).ravel()).reshape(s.size, 128)
    np.testing.assert_allclose(
        dhd.radial_density(fig5_state, s), q.mean(axis=1) * 2 * math.pi * s, rtol=1e-12, atol=1e-15
    )


def test_csv_roundtrip(tmp_path):
    st = fs.make_fock(1, 8)
    b = dhd.sample_unbalanced(st, 0.2 + 0.1j, 500, seed=3)
    b = dhd.translate_samples(b, 0.5)
    path = tmp_path / "samples.csv"
    dhd.save_csv(b, path)
    loaded = dhd.load_csv(path)
    # disk holds effective (already translated) values
    np.testing.assert_array_equal(loaded.samples, b.effective_samples())
    np.testing.assert_array_equal(loaded.effective_samples(), b.effective_samples())
    assert loaded.seed == b.seed
    assert loaded.acceptance_rate == b.acceptance_rate
    assert loaded.zeta == b.zeta
    header = path.read_text().splitlines()[0]
    assert header.startswith("# seed=3 n=500 acceptance=")
    assert "# translation=0.5,0" in path.read_text()
    # files with the earlier header's sigma= token still load
    old = tmp_path / "old.csv"
    old.write_text("# seed=3 n=1 sigma=1.5 acceptance=0.25\n0.5,-1\n")
    legacy = dhd.load_csv(old)
    assert (legacy.seed, legacy.acceptance_rate, legacy.samples[0]) == (3, 0.25, 0.5 - 1j)


def test_headerless_csv_accepted(tmp_path):
    path = tmp_path / "lab.csv"
    path.write_text("0.5,-0.25\n1.0,2.0\n")
    b = dhd.load_csv(path)
    assert b.n == 2
    assert b.samples[1] == 1.0 + 2.0j
