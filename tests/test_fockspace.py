import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stellarq import fockspace as fs
from stellarq.errors import CutoffError, DomainError, UndefinedSubtractionError
from stellarq.stellar import StellarPoly, stellar_subtract

from _oracles import (
    count_zeros_winding,
    gaussian_block_expm,
    gaussian_element_closed_form,
    gaussian_element_expm,
    parity_sum,
)


def test_make_fock():
    st = fs.make_fock(0, 8)
    assert st.matrix[0, 0] == 1.0 and st.trace == 1.0
    st2 = fs.make_fock(2, 8)
    assert st2.matrix[2, 2] == 1.0
    assert fs.fidelity(fs.make_fock(1, 8), fs.CoreState.fock(1)) == pytest.approx(1.0)
    with pytest.raises(CutoffError):
        fs.make_fock(8, 8)


def test_make_lossy_fock_fig3a_values():
    st = fs.make_lossy_fock(2, 0.9, 8)
    np.testing.assert_allclose(st.populations()[:3], [0.01, 0.18, 0.81], atol=1e-14)
    st1 = fs.make_lossy_fock(2, 1.0, 8)
    assert st1.matrix[2, 2] == pytest.approx(1.0)
    assert fs.make_lossy_fock(2, 0.6, 8).matrix[2, 2].real == pytest.approx(0.36)
    with pytest.raises(DomainError):
        fs.make_lossy_fock(2, 1.2, 8)


def test_squeezed_thermal_purity():
    vac = fs.make_squeezed_thermal(0.0, 0.0, 1.0, 16)
    assert vac.matrix[0, 0].real == pytest.approx(1.0)
    pure = fs.make_squeezed_thermal(fs.db_to_r(3.0), 0.0, 1.0, 32)
    assert pure.purity == pytest.approx(1.0, abs=1e-9)
    # the fig-5 state: 32 rows of squeeze matrix elements on a 64-level thermal
    # state, with no larger block formed
    tracemalloc.start()
    try:
        mixed = fs.make_squeezed_thermal(fs.db_to_r(3.0), 0.0, 0.95, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000
    assert mixed.purity == pytest.approx(0.95, abs=1e-6)
    assert mixed.trace_deficit < 1e-8
    with pytest.raises(CutoffError):
        fs.make_squeezed_thermal(1.5, 0.0, 0.95, 4)


def test_photon_subtract_and_add():
    one = fs.make_fock(1, 8)
    sub = fs.photon_subtract(one)
    assert sub.matrix[0, 0].real == pytest.approx(1.0)
    assert fs.photon_subtract(fs.make_fock(2, 8)).matrix[1, 1].real == pytest.approx(1.0)
    with pytest.raises(UndefinedSubtractionError):
        fs.photon_subtract(fs.make_fock(0, 8))

    vac = fs.make_fock(0, 8)
    assert fs.photon_add(vac).matrix[1, 1].real == pytest.approx(1.0)
    assert fs.photon_add(one).matrix[2, 2].real == pytest.approx(1.0)
    roundtrip = fs.photon_subtract(fs.photon_add(vac))
    assert roundtrip.matrix[0, 0].real == pytest.approx(1.0)


def test_subtracted_squeezed_vacuum_beats_gaussian_bound():
    sq = fs.make_squeezed_thermal(fs.db_to_r(3.0), 0.0, 1.0, 32)
    sub = fs.photon_subtract(sq)
    f = fs.fidelity(sub, fs.CoreState.fock(1))
    # a S|0> = -e^{i th} sinh(r) S|1>, so the fidelity is cosh(r)^{-3}
    assert f == pytest.approx(math.cosh(fs.db_to_r(3.0)) ** -3, abs=1e-9)
    assert f > 0.478


def test_gaussian_matrix_element_examples():
    ident = fs.GaussianUnitaryParams()
    assert fs.gaussian_matrix_element(0, 0, ident) == pytest.approx(1.0)
    g = fs.GaussianUnitaryParams(0.8, 0.0, 0j)
    assert fs.gaussian_matrix_element(0, 0, g) == pytest.approx(1 / math.sqrt(math.cosh(0.8)))
    beta = 0.9 - 0.4j
    gd = fs.GaussianUnitaryParams(0.0, 0.0, beta)
    for n in range(6):
        want = math.exp(-abs(beta) ** 2 / 2) * beta**n / math.sqrt(math.factorial(n))
        assert fs.gaussian_matrix_element(n, 0, gd) == pytest.approx(want, rel=1e-12)


def test_gaussian_matrix_element_against_oracles():
    rng = np.random.default_rng(10)
    for _ in range(8):
        g = fs.GaussianUnitaryParams(
            rng.uniform(0, 1.0), rng.uniform(-math.pi, math.pi), complex(*rng.normal(size=2))
        )
        for n in range(0, 11, 3):
            for m in range(0, 11, 3):
                got = fs.gaussian_matrix_element(n, m, g)
                assert got == pytest.approx(gaussian_element_expm(n, m, g), abs=1e-9)
                assert got == pytest.approx(gaussian_element_closed_form(n, m, g), abs=1e-9)
    # a tall pure-displacement block, K x 3 with K = 3 + 32 + ceil(8 |beta|^2 + 8 |beta|),
    # the size of an inner factor of S @ D(beta) at |beta| = 3
    for phase in (0.0, 0.9, -2.3):
        beta = 3.0 * np.exp(1j * phase)
        K = 3 + 32 + math.ceil(8 * abs(beta) ** 2 + 8 * abs(beta))
        g = fs.GaussianUnitaryParams(0.0, 0.0, complex(beta))
        got = fs.gaussian_matrix(K, 3, g)
        want = gaussian_block_expm(K, 3, g, dim=2 * K)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_gaussian_matrix_unitarity_columns():
    g = fs.GaussianUnitaryParams(0.6, 1.1, 0.7 - 0.3j)
    u = fs.gaussian_matrix(256, 24, g)
    norms = np.sum(np.abs(u) ** 2, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-8)


def test_gaussian_matrix_squeeze_with_large_displacement():
    # a tall block is D(gamma) @ S, whose inner index covers S|m>, about 100
    # levels at r = 0.3 whatever |beta| is, where D(beta)|m> spans about
    # |beta|^2 = 144 levels past m
    t0 = time.monotonic()
    u = fs.gaussian_matrix(256, 8, fs.GaussianUnitaryParams(0.3, 0.4, 12))
    assert time.monotonic() - t0 < 5.0
    np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, rtol=0, atol=1e-10)


# a tall block far from the origin: |gamma| is about 40 and S|7> needs about
# 2,000 inner levels, so products over fewer levels read about 1e-27 and agree
# with each other, not with the block
_FAR_G = fs.GaussianUnitaryParams(
    2.042150708887782, -1.1365788176808307, 5.260095442375366 + 0.46075655852693576j
)


def test_gaussian_matrix_tall_block_far_from_the_origin():
    u = fs.gaussian_matrix(26, 8, _FAR_G)
    # the ladder recurrences of ``_ladder_block`` run at 40 digits
    assert abs(u[1, 7] - (0.21451228048042422 - 0.1904952424782364j)) <= 1e-12
    np.testing.assert_allclose(u, fs._ladder_block(26, 8, _FAR_G), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(33, 48),
    st.integers(1, 24),
    st.floats(1e-3, 2.5),
    st.floats(-math.pi, math.pi),
    st.floats(-6.0, 6.0),
    st.floats(-6.0, 6.0),
)
def test_gaussian_matrix_orders_agree(n_rows, m_cols, r, th, br, bi):
    # more than 32 rows compose D(gamma) @ S, 24 rows S @ D(beta); the two
    # share their first 24 rows
    g = fs.GaussianUnitaryParams(r, th, complex(br, bi))
    try:
        tall = fs.gaussian_matrix(n_rows, m_cols, g)
    except CutoffError:
        # only where both S|m> and the rows of D(gamma) span more than the
        # 4,096-level cap
        s = fs._squeeze_matrix_recurrence(fs._MAX_AUTO_DIM, m_cols, r, th)
        d = fs._displacement_matrix(n_rows, fs._MAX_AUTO_DIM, complex(fs._affine(g)[2])).T
        for cut in (s, d):
            left = np.maximum(1.0 - np.linalg.norm(cut, axis=0) ** 2, np.linalg.norm(cut[-16:], axis=0))
            assert np.max(left) > 1e-13
        return
    # S @ D(beta) over levels that hold D(beta)|m>, with the squeeze rows from
    # the parity-sector eigendecomposition (2e-15 off at r = 1.35 over 200
    # columns, against the row recurrence run at 40 digits)
    b = abs(g.displacement)
    inner = m_cols + 48 + math.ceil(b * b + 5 * b * math.sqrt(m_cols + 16))
    d = fs._displacement_matrix(inner, m_cols, g.displacement)
    assert np.max(np.linalg.norm(d[-16:], axis=0)) <= 1e-15
    want = fs._squeeze_matrix_padded(24, d.shape[0], r, th) @ d
    # measured 3.0e-13 on the tall rows and 4.5e-13 on the 24-row block at
    # worst over 150 draws
    assert np.max(np.abs(tall[:24] - want)) <= 1e-11
    assert np.max(np.abs(fs.gaussian_matrix(24, m_cols, g) - want)) <= 1e-11


def test_gaussian_matrix_tall_block_at_strong_squeezing():
    # S|m> at r = 2.8 needs over 4,096 inner levels, the rows of D(gamma),
    # |gamma| about 1.6, a few hundred: the composition stops on the rows.
    # The reference is S @ D(beta) on sector-decomposed squeeze rows, over
    # levels that hold D(0.1)|m> to 1e-30
    g = fs.GaussianUnitaryParams(2.8, 0.0, 0.1)
    d = fs._displacement_matrix(40, 2, g.displacement)
    want = fs._squeeze_matrix_padded(64, 40, g.squeeze_r, g.squeeze_theta) @ d
    np.testing.assert_allclose(fs.gaussian_matrix(64, 2, g), want, rtol=0, atol=1e-12)
    # a framed core state at r = 2.5 that holds all but 1e-6 of its norm in
    # 2,048 levels; its reference squeeze columns come from the row recurrence
    # run along 2,048 rows
    frame = fs.GaussianUnitaryParams(2.5, 0.7, 0.1)
    core = fs.CoreState.from_unnormalized([0.3, 1.0], frame)
    v = core.fock_vector(2048)
    assert 1.0 - np.vdot(v, v).real <= fs.DEFICIT_TOL
    d = fs._displacement_matrix(24, 2, frame.displacement)
    want = fs._squeeze_matrix_recurrence(2048, 24, frame.squeeze_r, frame.squeeze_theta) @ d
    np.testing.assert_allclose(v, want @ np.asarray(core.coeffs), rtol=0, atol=1e-12)


def test_gaussian_matrix_rows_cover_a_far_displacement():
    # D(70)|m> sits about 4,900 levels up, past the cap, while the rows of
    # S(0.5) fall to 1e-13 within about 200 levels: the block holds the
    # overlap of the two, below 1e-12
    u = fs.gaussian_matrix(4, 4, fs.GaussianUnitaryParams(0.5, 0.2, 70.0))
    assert np.max(np.abs(u)) <= 1e-12


@pytest.mark.parametrize(
    "n_rows, m_cols, g",
    [
        # S|m> at r = 3 falls by tanh 3 every two levels, so 1e-13 is 6,000
        # levels away; |gamma| is about 140, so D(gamma)'s rows sit about
        # 20,000 levels up
        pytest.param(40, 4, fs.GaussianUnitaryParams(3.0, 0.2, 7j), id="tall"),
        # the rows of S(3) as far away, and D(beta)|m> centred on |beta|^2 = 4,900 levels
        pytest.param(4, 4, fs.GaussianUnitaryParams(3.0, 0.2, 70.0), id="wide"),
    ],
)
def test_gaussian_matrix_inner_index_cap(n_rows, m_cols, g):
    with pytest.raises(CutoffError):
        fs.gaussian_matrix(n_rows, m_cols, g)


def test_displacement_matrix_finite_far_from_the_diagonal():
    # the Laguerre values overflowed from |n - m| = 379 on and the
    # recurrence then formed inf - inf
    d = fs._displacement_matrix(1024, 1100, 0.5)
    assert np.all(np.isfinite(d))
    assert np.max(np.linalg.norm(d, axis=0)) <= 1.0 + 1e-12
    u = fs.gaussian_matrix(1024, 2, fs.GaussianUnitaryParams(0.3, 0.4, 0.5))
    assert np.all(np.isfinite(u))
    assert np.max(np.linalg.norm(u, axis=0)) <= 1.0 + 1e-12


def test_squeeze_recurrence_subnormal_r():
    u = fs._squeeze_matrix_recurrence(3, 5, 5e-324, 0.0)
    np.testing.assert_array_equal(u, np.eye(3, 5))


@pytest.mark.parametrize(
    "n_rows, m_cols, r, pad, bound",
    [
        # measured 2.4e-14, 3.2e-13 and 3.9e-13
        pytest.param(24, 300, 0.5, 486, 1e-13, id="24x300-r0.5"),
        pytest.param(24, 300, 1.0, 486, 2e-12, id="24x300-r1.0"),
        pytest.param(24, 300, 2.0, 1093, 2e-12, id="24x300-r2.0"),
        # measured 8.6e-13
        pytest.param(24, 200, 1.35, 486, 2e-12, id="24x200-r1.35"),
        # 32 rows is the threshold: measured 3.3e-11, and 2.9e-10 at 36 rows
        # over r <= 3
        pytest.param(32, 300, 1.75, 1093, 1e-10, id="32x300-r1.75"),
        # tall blocks: measured 1.2e-13 and 7.8e-12
        pytest.param(300, 24, 1.0, 486, 5e-13, id="300x24-r1.0"),
        pytest.param(1000, 32, 1.75, 1639, 2e-11, id="1000x32-r1.75"),
    ],
)
def test_squeeze_recurrence_accuracy(n_rows, m_cols, r, pad, bound):
    """A block with a side of at most 32 against the parity-sector solve on pad
    levels, which agrees with the one on 1.5 pad levels to 1e-13."""
    assert fs._SQUEEZE_RECURRENCE_MAX == 32
    want = fs._squeeze_matrix_sectors(n_rows, m_cols, r, 0.1, pad)
    wider = fs._squeeze_matrix_sectors(n_rows, m_cols, r, 0.1, int(1.5 * pad))
    assert np.max(np.abs(want - wider)) < 1e-13
    assert np.max(np.abs(fs._squeeze_block(n_rows, m_cols, r, 0.1) - want)) <= bound


@pytest.mark.parametrize("r", [1.0, 1.75])
def test_squeeze_wide_block_runs_along_its_columns(r):
    # 32 rows and 300 columns: the recurrence covers the wide block too,
    # measured 1.4e-11 and 3.3e-11 against the parity-sector solve
    assert fs._SQUEEZE_RECURRENCE_MAX == 32
    want = fs._squeeze_matrix_padded(32, 300, r, 0.7)
    assert np.max(np.abs(fs._squeeze_block(32, 300, r, 0.7) - want)) <= 5e-10


@pytest.mark.parametrize("size, r", [(40, 1.0), (100, 1.5)])
def test_squeeze_padded_blocks_against_expm(size, r):
    # both sides above 32: gaussian_matrix diagonalizes the parity sectors of
    # the padded generator; the oracle exponentiates it on 6x the block's levels
    g = fs.GaussianUnitaryParams(r, 0.3, 0j)
    want = gaussian_block_expm(size, size, g, dim=6 * size)
    np.testing.assert_allclose(fs.gaussian_matrix(size, size, g), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("size", [32, 33, 546])
def test_zero_diagonal_eigh_diagonalizes(size):
    # the SVD of the bidiagonal half, even and odd sizes: H V = V Lambda with
    # V orthogonal
    offdiag = np.random.default_rng(size).uniform(0.05, 40.0, size - 1)
    lam, v = fs._zero_diagonal_eigh(offdiag)
    h = np.diag(offdiag, 1) + np.diag(offdiag, -1)
    scale = np.max(np.abs(lam))
    assert np.max(np.abs(h @ v - v * lam)) <= 1e-13 * size * scale
    assert np.max(np.abs(v.T @ v - np.eye(size))) <= 1e-12


def test_squeeze_padded_large_block():
    # a 2,458-level pad at r = 2, which took 80 s by a padded matrix exponential
    t0 = time.monotonic()
    u = fs.gaussian_matrix(200, 60, fs.GaussianUnitaryParams(2.0, 1.1, 0))
    assert time.monotonic() - t0 < 10.0
    # S|m> reaches far past 200 rows here, so the columns are checked entry by
    # entry: the first ones against the row recurrence run along the long index,
    # the first rows through <n|S(xi)|m> = conj(<m|S(-xi)|n>)
    np.testing.assert_allclose(u[:, :6], fs._squeeze_matrix_recurrence(200, 6, 2.0, 1.1), rtol=0, atol=1e-12)
    adjoint = fs._squeeze_matrix_recurrence(60, 6, 2.0, 1.1 + math.pi).conj().T
    np.testing.assert_allclose(u[:6], adjoint, rtol=0, atol=1e-12)
    assert np.max(np.linalg.norm(u, axis=0)) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.integers(1, 48), st.floats(0.0, 0.3), st.floats(-math.pi, math.pi))
def test_squeeze_padded_matches_recurrence(n_rows, m_cols, r, th):
    # where the row recurrence is accurate (measured 2.7e-14 at worst over
    # r <= 0.3 and 48 columns) the two squeeze paths agree
    got = fs._squeeze_matrix_padded(n_rows, m_cols, r, th)
    assert np.max(np.abs(got - fs._squeeze_matrix_recurrence(n_rows, m_cols, r, th))) <= 1e-13


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    st.floats(-math.pi, math.pi),
    st.one_of(st.just(0.0), st.floats(-6.0, 6.0)),
    st.one_of(st.just(0.0), st.floats(-6.0, 6.0)),
    st.integers(1, 7),
    st.integers(1, 8),
)
def test_ladder_block_matches_gaussian_matrix(r, th, br, bi, n_rows, m_cols):
    # the rank-bounded search's block, over its whole search box (measured
    # 1.7e-14 at worst over these sizes)
    g = fs.GaussianUnitaryParams(r, th, complex(br, bi))
    got = fs._ladder_block(n_rows, m_cols, g)
    assert np.max(np.abs(got - fs.gaussian_matrix(n_rows, m_cols, g))) <= 1e-12


def test_ladder_block_at_its_size_limit():
    # the largest blocks the rank-bounded search builds by recurrence, at
    # random points of its search box (measured 8.9e-12 at worst over 200
    # points)
    rng = np.random.default_rng(3)
    for n_rows, m_cols in ((14, 14), (10, 20), (8, 25)):
        assert n_rows * m_cols <= fs._LADDER_MAX_ENTRIES
        for _ in range(10):
            g = fs.GaussianUnitaryParams(
                rng.uniform(0.0, 4.0), rng.uniform(-math.pi, math.pi), complex(*rng.uniform(-6.0, 6.0, 2))
            )
            got = fs._ladder_block(n_rows, m_cols, g)
            assert np.max(np.abs(got - fs.gaussian_matrix(n_rows, m_cols, g))) <= 2e-11


def test_squeeze_recurrence_tall_column_norms():
    # S|m> is a unit vector; 4,096 rows hold its whole support at r = 2
    # (measured 3.2e-15 off)
    u = fs._squeeze_matrix_recurrence(4096, 6, 2.0, 0.3)
    np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, rtol=0, atol=1e-14)


def test_apply_gaussian_roundtrips():
    st = fs.make_lossy_fock(2, 0.8, 8)
    ident = fs.apply_gaussian(st, fs.GaussianUnitaryParams(), out_dim=8)
    np.testing.assert_allclose(ident.matrix, st.matrix, atol=1e-12)

    beta = 0.6 + 0.2j
    fwd = fs.apply_gaussian(st, fs.GaussianUnitaryParams(0, 0, beta))
    back = fs.apply_gaussian(fwd, fs.GaussianUnitaryParams(0, 0, -beta))
    np.testing.assert_allclose(back.matrix[:8, :8], st.matrix, atol=1e-8)

    vac = fs.make_fock(0, 4)
    disp = fs.apply_gaussian(vac, fs.GaussianUnitaryParams(0, 0, 1.0))
    assert disp.matrix[0, 0].real == pytest.approx(math.exp(-1.0), abs=1e-10)

    with pytest.raises(CutoffError):
        fs.apply_gaussian(vac, fs.GaussianUnitaryParams(0, 0, 4.0), out_dim=4)
    for bad in (0, -1, 2.5, "x"):  # 0 meant automatic, the others raised from numpy
        with pytest.raises(DomainError):
            fs.apply_gaussian(vac, fs.GaussianUnitaryParams(0, 0, 1.0), out_dim=bad)


def test_apply_gaussian_inverse_params():
    # generous cutoffs so the round trip tests the parameter algebra, not
    # the truncation budget
    st = fs.make_lossy_fock(1, 0.7, 6)
    g = fs.GaussianUnitaryParams(0.5, 0.9, 0.4 - 0.7j)
    fwd = fs.apply_gaussian(st, g, out_dim=80)
    back = fs.apply_gaussian(fwd, g.inverse(), out_dim=96)
    np.testing.assert_allclose(back.matrix[:6, :6], st.matrix, atol=1e-9)


def _framed_core(r, th, beta):
    return fs.CoreState.from_unnormalized([0.3, 1.0], fs.GaussianUnitaryParams(r, th, beta)).to_state


@pytest.mark.parametrize(
    "build, dim, want",
    [
        # framed (0.3, 1) cores
        pytest.param(_framed_core(1.0, 0.7, 2.0), 64, 128, id="core-r1-beta2"),
        pytest.param(_framed_core(2.0, 0.0, 0.0), 32, 512, id="core-r2"),
        # a gaussian pipeline step, at which twice the out_dim still loses too much
        pytest.param(
            lambda d: fs.apply_gaussian(fs.make_fock(1, 4), fs.GaussianUnitaryParams(1.25, 0.0, 0.5), out_dim=d),
            16, 128, id="step",
        ),
        # a squeezed thermal state, whose population tail once suggested 52 levels
        pytest.param(lambda d: fs.make_squeezed_thermal(1.0, 0.0, 0.9, d), 32, 64, id="squeezed-thermal"),
        # S(4)|1> fits in no cutoff up to _MAX_AUTO_DIM, so none is suggested
        pytest.param(
            lambda d: fs.apply_gaussian(fs.make_fock(1, 4), fs.GaussianUnitaryParams(4.0), out_dim=d),
            16, None, id="step-r4",
        ),
        pytest.param(
            lambda d: fs.apply_gaussian(fs.make_fock(1, 4), fs.GaussianUnitaryParams(4.0)),
            None, None, id="step-r4-automatic",
        ),
        # an input that already lost (1/3)^8 = 1.5e-4 fits in no cutoff either
        pytest.param(
            lambda d: fs.apply_gaussian(fs.make_thermal(0.5, 8), fs.GaussianUnitaryParams(0.5), out_dim=d),
            16, None, id="lossy-input",
        ),
    ],
)
def test_cutoff_error_suggests_the_first_doubled_cutoff_that_fits(build, dim, want):
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError) as err:
            build(dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if want is None:
        assert "suggested_dim" not in err.value.details
        # the automatic cutoff raises before forming any d x d output
        # (one 1024 x 1024 complex matrix takes 16 MB)
        assert dim is not None or peak < 1024 * 1024 * 16
        return
    assert err.value.details["suggested_dim"] == want
    assert build(want).trace_deficit <= fs.DEFICIT_TOL
    with pytest.raises(CutoffError):
        build(want // 2)


def test_cutoff_search_forms_no_matrix_past_the_cutoff():
    # S(2)|1> needs 512 levels; one 512 x 512 complex matrix takes 4 MB, and the
    # search reads the kept trace from the 512 x 2 rows alone
    core = fs.CoreState.from_unnormalized([0.3, 1.0], fs.GaussianUnitaryParams(2.0, 0.0, 0.0))
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError):
            core.to_state(32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 512 * 16 / 8


def test_to_state_is_the_projector_on_the_fock_vector():
    # a framed core agrees with the outer product of its amplitudes, and a
    # frameless one is that outer product, padded with zeros
    core = fs.CoreState.from_unnormalized([0.3, 1.0], fs.GaussianUnitaryParams(1.0, 0.7, 2.0))
    v = core.fock_vector(128)
    st = core.to_state(128)
    np.testing.assert_allclose(st.matrix, np.outer(v, v.conj()), rtol=0, atol=1e-15)
    assert st.trace_deficit == pytest.approx(1.0 - np.vdot(v, v).real, abs=1e-15)
    bare = fs.CoreState.from_unnormalized([1.0, 0.5j, -0.25])
    c = np.zeros(8, dtype=complex)
    c[:3] = bare.coeffs
    assert np.array_equal(bare.to_state(8).matrix, np.outer(c, c.conj()))
    assert np.array_equal(bare.fock_vector(8), c)


def test_compose_gaussians_puts_the_rotation_first():
    # G1 G2 |c> = R(phi) S(xi) D(beta) |c> up to a global phase, R(phi) = e^{-i phi n}
    rng = np.random.default_rng(3)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    c /= np.linalg.norm(c)
    n = np.arange(40)
    for _ in range(5):
        g1, g2 = (
            fs.GaussianUnitaryParams(rng.uniform(0, 0.4), rng.uniform(-3, 3), complex(*rng.uniform(-0.6, 0.6, 2)))
            for _ in range(2)
        )
        g, phi = fs.compose_gaussians(g1, g2)
        want = fs.gaussian_matrix(40, 120, g1) @ (fs.gaussian_matrix(120, 3, g2) @ c)
        got = np.exp(-1j * phi * n) * (fs.gaussian_matrix(40, 3, g) @ c)
        overlap = np.vdot(got, want)
        np.testing.assert_allclose(want, got * overlap / abs(overlap), rtol=0, atol=1e-12)


def test_husimi_q():
    vac = fs.make_fock(0, 8)
    one = fs.make_fock(1, 8)
    rng = np.random.default_rng(11)
    zs = (rng.normal(size=50) + 1j * rng.normal(size=50)) * 1.5
    np.testing.assert_allclose(
        fs.husimi_q(vac, zs), np.exp(-np.abs(zs) ** 2) / math.pi, atol=1e-12
    )
    np.testing.assert_allclose(
        fs.husimi_q(one, zs), np.exp(-np.abs(zs) ** 2) * np.abs(zs) ** 2 / math.pi, atol=1e-12
    )


def test_husimi_normalization_monte_carlo(reference_states):
    # (1/pi)<z|rho|z> integrates to Tr rho; Gaussian importance MC keeps
    # the integrand ratio bounded so 2e6 points reach the 1e-3 target
    rng = np.random.default_rng(12)
    state = reference_states["squeezed_thermal"]
    sigma = 2.2
    z = sigma * (rng.standard_normal(2_000_000) + 1j * rng.standard_normal(2_000_000)) / math.sqrt(2)
    weight = math.pi * sigma**2 * np.exp(np.abs(z) ** 2 / sigma**2)
    est = np.mean(fs.husimi_q(state, z) * weight)
    assert est == pytest.approx(state.trace, abs=1e-3)


def test_husimi_bounds(reference_states):
    rng = np.random.default_rng(13)
    z = (rng.normal(size=1000) + 1j * rng.normal(size=1000)) * 2.5
    for state in reference_states.values():
        q = fs.husimi_q(state, z)
        assert np.all(q >= -1e-12)
        assert np.all(q <= 1 / math.pi + 1e-12)


def test_wigner_values(reference_states):
    assert fs.wigner(reference_states["vacuum"], 0) == pytest.approx(2 / math.pi)
    assert fs.wigner(reference_states["one"], 0) == pytest.approx(-2 / math.pi)
    lossy = reference_states["lossy2_06"]
    w0 = fs.wigner(lossy, 0)
    assert w0 == pytest.approx(parity_sum(lossy), abs=1e-12)
    vac = reference_states["vacuum"]
    a = 0.7 + 0.3j
    assert fs.wigner(vac, a) == pytest.approx(2 / math.pi * math.exp(-2 * abs(a) ** 2))


def test_fidelity_values(reference_states):
    assert fs.fidelity(reference_states["two"], fs.CoreState.fock(2)) == pytest.approx(1.0)
    assert fs.fidelity(reference_states["lossy2_08"], fs.CoreState.fock(2)) == pytest.approx(0.64)
    assert fs.fidelity(reference_states["vacuum"], fs.CoreState.fock(1)) == 0.0


def test_constructor_invariants_random_sweep():
    rng = np.random.default_rng(14)
    for _ in range(25):
        which = rng.integers(0, 3)
        if which == 0:
            st = fs.make_lossy_fock(int(rng.integers(0, 6)), float(rng.uniform()), 10)
        elif which == 1:
            st = fs.make_squeezed_thermal(
                float(rng.uniform(0, 0.6)),
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(0.5, 1.0)),
                48,
            )
        else:
            st = fs.make_thermal(float(rng.uniform(0, 1.5)), 64)
        st.validate()  # Hermitian, PSD, trace accounting
        assert st.trace + st.trace_deficit == pytest.approx(1.0, abs=1e-9)


def test_lossy_channel_never_raises_purity():
    for n in (1, 2, 4):
        for eta in (0.3, 0.6, 0.9):
            assert fs.make_lossy_fock(n, eta, 10).purity <= 1.0 + 1e-12


def test_stellar_zero_count_matches_rank():
    # build states from known stellar polynomials and count the zeros of
    # the Fock-series representation inside a disc by winding number
    rng = np.random.default_rng(15)
    cases = [
        StellarPoly((1.0,)),  # vacuum, rank 0
        StellarPoly((0.0, 1.0)),  # |1>, rank 1
        StellarPoly((-0.4 + 0.2j, 0.1, 1.0), quad=-0.12, lin=0.3),  # rank 2
        StellarPoly((0.5, -0.2j, 0.4, 1.0), quad=0.1j, lin=-0.2),  # rank 3
    ]
    for poly in cases:
        assert np.all(np.abs(poly.zeros()) < 6.0) if poly.degree else True
        amps = poly.fock_amplitudes(220)
        count = count_zeros_winding(amps, radius=8.0)
        assert count == poly.degree


def test_photon_subtract_matches_stellar_derivative():
    # the matrix-level a rho a^dag and the stellar-function derivative
    # describe the same state
    poly = StellarPoly((0.3, 1.0), quad=-0.15, lin=0.2)
    amps = poly.fock_amplitudes(64)
    state = fs.TruncatedState(np.outer(amps, amps.conj()), trace_deficit=0.0, validate=False)
    sub_matrix = fs.photon_subtract(state)
    sub_poly = stellar_subtract(poly)
    amps2 = sub_poly.fock_amplitudes(63)
    overlap = np.vdot(amps2, sub_matrix.matrix @ amps2).real
    assert overlap == pytest.approx(1.0, abs=1e-9)
    assert sub_poly.degree <= poly.degree + 1


def test_state_json_roundtrip():
    st = fs.make_squeezed_thermal(0.3, 0.7, 0.9, 24)
    st2 = fs.TruncatedState.from_json_dict(st.to_json_dict())
    assert np.array_equal(st.matrix, st2.matrix)
    assert st2.trace_deficit == st.trace_deficit


def test_core_state_validation():
    with pytest.raises(DomainError):
        fs.CoreState((0.5, 0.5))  # not normalized
    with pytest.raises(DomainError):
        fs.CoreState((1.0, 0.0))  # zero leading coefficient
    c = fs.CoreState.from_unnormalized([1.0, 0.0])
    assert c.stellar_rank == 0
