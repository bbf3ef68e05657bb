import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, kstest

from stellarq import dhd, estimator, fockspace as fs
from stellarq.errors import DomainError

from _oracles import gamma_mixture_cdf, q_polar_cells, radial_cdf_interp, sample_q_per_block


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


@pytest.mark.parametrize("kind, step", [("odd offsets", 1), ("even offsets", 2), ("diagonal", None)])
def test_sample_q_matches_the_per_block_sampler(kind, step, fig5_state):
    # blocks written into buffers allocated once per call give the bytes and the
    # proposal count of fresh arrays per block, over a partial last block and
    # any split of the blocks between workers
    state = {
        "odd offsets": fs.apply_gaussian(
            fs.make_squeezed_thermal(0.3, 0.7, 0.9, 32), fs.GaussianUnitaryParams(0.0, 0.0, 0.6 - 0.4j)
        ),
        "even offsets": fig5_state,
        "diagonal": fs.make_lossy_fock(2, 0.8, 8),
    }[kind]
    table, got_step = dhd._phase_table(state)
    assert (got_step if table.shape[1] > 1 else None) == step
    n = 3 * dhd.BLOCK + 777
    want, proposed = sample_q_per_block(state, n, 19)
    for workers in (1, 2, 3):
        b = dhd.sample_q(state, n, seed=19, n_workers=workers)
        np.testing.assert_array_equal(b.samples, want)
        assert b.acceptance_rate == n / proposed


def test_sample_q_matches_the_per_block_sampler_across_park_groups(fig5_state):
    # the balanced fig-5 state has the longest rejection tails; over two full park
    # groups, three more blocks and a partial one, the tails finished together give
    # the bytes and proposals of each block alone, however the worker runs cut the groups
    n = (2 * dhd._PARK + 3) * dhd.BLOCK + 777
    want, proposed = sample_q_per_block(fig5_state, n, 23)
    for workers in (1, 2, 3, 7):
        b = dhd.sample_q(fig5_state, n, seed=23, n_workers=workers)
        np.testing.assert_array_equal(b.samples, want)
        assert b.acceptance_rate == n / proposed


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "2"])
def test_sample_q_refuses_a_bad_worker_count(bad, fig5_state):
    with pytest.raises(DomainError, match="n_workers"):
        dhd.sample_q(fig5_state, 100, seed=1, n_workers=bad)
    with pytest.raises(DomainError, match="n_workers"):
        dhd.sample_unbalanced(fig5_state, -0.3, 100, seed=1, n_workers=bad)


@pytest.fixture(scope="module")
def fig5_frame62(fig5_state):
    """The unbalanced detection frame of the fig-5 state, S(r) rho S(r)^dag, at 62 levels."""
    return fs.apply_gaussian(fig5_state, fs.GaussianUnitaryParams(fs.db_to_r(3.0), math.pi, 0j), out_dim=62)


def test_unbalanced_frame_draws_as_its_62_level_frame(fig5_state, fig5_frame62):
    # the automatic frame holds 32 levels; the mass above them (3e-14) moves no
    # draw at this seed
    b = dhd.sample_unbalanced(fig5_state, -fs.db_to_r(3.0), 100_000, seed=3)
    np.testing.assert_array_equal(b.samples, dhd.sample_q(fig5_frame62, 100_000, seed=3).samples)


def test_sample_q_holds_its_output_once(fig5_frame62):
    # the blocks go straight into the output, so the peak is one output and
    # two block buffers (2 MB each here)
    n = 581_429
    tracemalloc.start()
    try:
        dhd.sample_q(fig5_frame62, n, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * n * 16, peak / (n * 16)


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
    assert unbalanced.dim == 32
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


def test_radial_density_takes_a_scalar(fig5_state):
    got = dhd.radial_density(fig5_state, 1.0)
    assert isinstance(got, float)
    assert got == dhd.radial_density(fig5_state, np.array([0.5, 1.0]))[1]
    assert dhd.radial_density(fig5_state, np.ones((2, 3))).shape == (2, 3)


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


def _reference_csv(batch) -> str:
    """The sample file as one f-string per line, the format's definition."""
    lines = [f"# seed={batch.seed} n={batch.n} acceptance={batch.acceptance_rate:.17g}\n"]
    if batch.zeta != 0:
        lines.append(f"# zeta={batch.zeta.real:.17g},{batch.zeta.imag:.17g}\n")
    if batch.translation != 0:
        lines.append(f"# translation={batch.translation.real:.17g},{batch.translation.imag:.17g}\n")
    lines.extend(f"{z.real:.17g},{z.imag:.17g}\n" for z in batch.effective_samples())
    return "".join(lines)


_SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7976931348623157e308, 0.1]


def test_save_csv_matches_reference_formatter(tmp_path):
    rng = np.random.default_rng(8)
    # 2 BLOCKs and a partial one, exponents over the whole double range
    size = 2 * dhd.BLOCK + 17
    parts = rng.standard_normal(2 * size) * 10.0 ** rng.integers(-300, 301, 2 * size)
    z = parts.view(complex)
    z[: len(_SPECIAL) ** 2] = [complex(a, b) for a in _SPECIAL for b in _SPECIAL]
    batch = dhd.SampleBatch(z, seed=12, acceptance_rate=0.3, zeta=0.25 - 0.5j)
    for b in (batch, dhd.translate_samples(batch, 0.1 + 0.7j), dhd.SampleBatch(z[:0], 0, 1.0)):
        path = tmp_path / "s.csv"
        dhd.save_csv(b, path)
        assert path.read_bytes() == _reference_csv(b).encode()


_DOUBLES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_SPECIAL)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.tuples(_DOUBLES, _DOUBLES), max_size=40),
       seed=st.integers(0, 2**63 - 1), acceptance=st.floats(0.0, 1.0))
def test_csv_roundtrip_bit_identical(parts, seed, acceptance, tmp_path_factory):
    z = np.array([complex(a, b) for a, b in parts], dtype=complex)
    batch = dhd.SampleBatch(z, seed=seed, acceptance_rate=acceptance)
    path = tmp_path_factory.mktemp("roundtrip") / "s.csv"
    dhd.save_csv(batch, path)
    loaded = dhd.load_csv(path)
    # assert_array_equal counts NaN equal to NaN but -0.0 equal to 0.0, so
    # the signs are compared apart; a NaN's sign does not survive "nan"
    np.testing.assert_array_equal(loaded.samples, z)
    signed = ~np.isnan(z.view(float))
    np.testing.assert_array_equal(np.signbit(loaded.samples.view(float))[signed], np.signbit(z.view(float))[signed])
    assert (loaded.seed, loaded.acceptance_rate) == (seed, acceptance)


# (file text, samples, seed) when the file loads; ValueError when it is refused
_LOAD_TABLE = [
    pytest.param(b"\n1,2\n\n3,4\n\n", [1 + 2j, 3 + 4j], 0, id="blank-lines"),
    pytest.param(b" 1 , 2 \n\t3,\t-4\t\n", [1 + 2j, 3 - 4j], 0, id="whitespace-around-fields"),
    pytest.param(b"# seed=5 n=2\r\n1,2\r\n3,4\r\n", [1 + 2j, 3 + 4j], 5, id="crlf"),
    pytest.param(b"# seed=5 n=2\r1,2\r3,4\r", [1 + 2j, 3 + 4j], 5, id="cr-only"),
    pytest.param(b"1,2\n# seed=4 acceptance=0.5\n3,4\n", [1 + 2j, 3 + 4j], 4, id="header-mid-file"),
    pytest.param(b"0.5,-0.25\n1.0,2.0\n", [0.5 - 0.25j, 1 + 2j], 0, id="headerless"),
    pytest.param(b"", [], 0, id="empty"),
    pytest.param(b" \n\n", [], 0, id="whitespace-only"),
    pytest.param(b"# seed=1 n=0 acceptance=1\n", [], 1, id="header-only"),
    pytest.param(b"  # seed=7\n", [], 7, id="indented-header-only"),
    pytest.param(b"# seed=3 n=1 sigma=1.5 acceptance=0.25\n0.5,-1\n", [0.5 - 1j], 3, id="legacy-sigma"),
    pytest.param(b"# seed=1 n=1\n1,2\n# seed=2 n=2\n3,4\n5,6\n", [1 + 2j, 3 + 4j, 5 + 6j], 2,
                 id="concatenated-files"),
    pytest.param(b"nan,-inf\n-0,4.9406564584124654e-324\n",
                 [complex(math.nan, -math.inf), complex(-0.0, 5e-324)], 0, id="special-values"),
    # known difference: numpy's reader strips a trailing comment, so this row now loads
    pytest.param(b"1,2 # note\n", [1 + 2j], 0, id="trailing-comment"),
    pytest.param(b"0.5;0.25\n", ValueError, 0, id="semicolon"),
    pytest.param(b"1,2,3\n", ValueError, 0, id="three-columns"),
    pytest.param(b"1\n2\n", ValueError, 0, id="one-column"),
    pytest.param(b"1,2\n1\n", ValueError, 0, id="ragged"),
    pytest.param(b"abc,1\n", ValueError, 0, id="not-a-number"),
    pytest.param(b"1,2,\n", ValueError, 0, id="trailing-comma"),
    pytest.param(b"1,2\n\xff,3\n", ValueError, 0, id="not-utf8"),
    pytest.param(b"# seed=x\n1,2\n", ValueError, 0, id="bad-seed"),
    pytest.param(b"# seed=1 n=3\n1,2\n3,4\n", ValueError, 0, id="truncated"),
    pytest.param(b"# seed=1 n=1\n1,2\n3,4\n", ValueError, 0, id="extra-row"),
    # known difference: float() took the underscore literal 1_0, numpy's reader does not
    pytest.param(b"1_0,2\n", ValueError, 0, id="underscore-literal"),
    # known difference: numpy's reader skips empty lines, not lines of spaces, and
    # an indented `#` line leaves spaces behind once its comment is stripped
    pytest.param(b"1,2\n  \n3,4\n", ValueError, 0, id="spaces-line-between-rows"),
    pytest.param(b"  # seed=7\n1,2\n", ValueError, 0, id="indented-header-before-rows"),
    # reads of 1, 3 and 7 bytes end between a \r and its \n
    pytest.param(b"# seed=9\r\n1,2\r\n3.5,4\r\n", [1 + 2j, 3.5 + 4j], 9, id="crlf-split-by-a-read"),
    pytest.param(b"1,2\n# seed=6 n=2\n3,4\n", [1 + 2j, 3 + 4j], 6, id="header-across-reads"),
    pytest.param(b"1,2\n3,4\n# seed=8 n=2", [1 + 2j, 3 + 4j], 8, id="header-last-without-newline"),
]


def _assert_loads(path, want, seed):
    if want is ValueError:
        with pytest.raises(ValueError):
            dhd.load_csv(path)
        return
    b = dhd.load_csv(path)
    np.testing.assert_array_equal(b.samples, np.array(want, dtype=complex))
    assert b.samples.dtype == complex and b.samples.shape == (len(want),)
    assert b.seed == seed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, want, seed", _LOAD_TABLE)
def test_load_csv_table(text, want, seed, tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(text)
    _assert_loads(path, want, seed)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("read", [1, 2, 3, 7])
@pytest.mark.parametrize("text, want, seed", _LOAD_TABLE)
def test_load_csv_table_at_small_reads(text, want, seed, read, tmp_path, monkeypatch):
    # the header scan carries each read's partial last line into the next
    monkeypatch.setattr(dhd, "_READ", read)
    path = tmp_path / "s.csv"
    path.write_bytes(text)
    _assert_loads(path, want, seed)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.sampled_from([b"#", b"\n", b"\r", b" ", b"1", b",", b"n=2", b"\t"]), max_size=40),
       read=st.integers(1, 9))
def test_scan_header_does_not_depend_on_the_read_size(parts, read, tmp_path_factory):
    path = tmp_path_factory.mktemp("scan") / "s.csv"
    path.write_bytes(b"".join(parts))
    whole = dhd._scan_header(path)
    with mock.patch.object(dhd, "_READ", read):
        assert dhd._scan_header(path) == whole


def test_load_csv_holds_its_rows_and_a_few_reads(tmp_path):
    # the 14.7 MB file is read 1 MiB at a time: the peak is the parsed rows and a
    # few reads (1.09 rows arrays; 2.5 when the header scan read the file whole)
    n = 368_000
    path = tmp_path / "s.csv"
    dhd.save_csv(dhd.sample_q(fs.make_lossy_fock(2, 0.8, 8), n, seed=11), path)
    tracemalloc.start()
    try:
        dhd.load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * 16 + 4 * dhd._READ, peak / (n * 16)
