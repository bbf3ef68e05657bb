import math

import numpy as np
import pytest

from stellarq import specfun
from stellarq.errors import DegreeLimitError, DomainError

from _oracles import laguerre2d_direct, laguerre_direct


def test_laguerre2d_base_cases():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = complex(*rng.normal(size=2))
        assert specfun.laguerre2d(0, 0, z) == pytest.approx(1.0)
        assert specfun.laguerre2d(1, 1, z) == pytest.approx(abs(z) ** 2 - 1.0)
        assert specfun.laguerre2d(2, 0, z) == pytest.approx(np.conj(z) ** 2 / math.sqrt(2))


def test_laguerre2d_matches_direct_sum():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k, l = rng.integers(0, 13, size=2)
        z = complex(*rng.uniform(-20, 20, size=2))
        if abs(z) > 20:
            z *= 20 / abs(z)
        got = specfun.laguerre2d(int(k), int(l), z)
        want = laguerre2d_direct(int(k), int(l), z)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_laguerre2d_symmetries():
    # swapping the indices conjugates the value; swapping indices and
    # conjugating the argument leaves it unchanged
    rng = np.random.default_rng(2)
    for _ in range(100):
        k, l = (int(t) for t in rng.integers(0, 13, size=2))
        z = complex(*rng.normal(size=2)) * 3
        v = specfun.laguerre2d(k, l, z)
        assert specfun.laguerre2d(l, k, z) == pytest.approx(np.conj(v), rel=1e-12, abs=1e-12)
        assert specfun.laguerre2d(l, k, np.conj(z)) == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_laguerre2d_diagonal_is_radial():
    # the two independent code paths (recurrence vs direct sum) agree on
    # the diagonal, where the value reduces to (-1)^n L_n(|z|^2)
    rng = np.random.default_rng(3)
    for n in range(7):
        for _ in range(10):
            z = complex(*rng.normal(size=2)) * 2
            v = specfun.laguerre2d(n, n, z)
            assert v.imag == pytest.approx(0.0, abs=1e-10)
            assert v == pytest.approx(laguerre2d_direct(n, n, z), rel=1e-10, abs=1e-12)
            assert v.real == pytest.approx(
                (-1) ** n * laguerre_direct(n, abs(z) ** 2), rel=1e-9, abs=1e-9
            )
            rot = specfun.laguerre2d(n, n, z * np.exp(0.71j))
            assert rot == pytest.approx(v, rel=1e-10, abs=1e-10)


def test_laguerre2d_no_overflow_at_large_argument():
    big = specfun.laguerre2d(64, 64, 1e3 + 0j)
    assert np.isfinite(big)
    small = specfun.laguerre2d(0, 64, 1e3 * np.exp(0.3j))
    assert np.isfinite(small)


def test_laguerre_examples():
    assert specfun.laguerre(0, 0.7) == 1.0
    xs = np.linspace(-3, 3, 7)
    for x in xs:
        assert specfun.laguerre(1, x) == pytest.approx(1.0 - x)
    assert specfun.laguerre(3, 2.0) == pytest.approx(laguerre_direct(3, 2.0), rel=1e-12)
    for n in range(13):
        for x in np.linspace(0, 20, 9):
            assert specfun.laguerre(n, x) == pytest.approx(
                laguerre_direct(n, x), rel=1e-10, abs=1e-10
            )


def test_log_binomial():
    assert specfun.log_binomial(5, 0) == 0.0
    assert specfun.log_binomial(4, 2) == pytest.approx(math.log(6.0), rel=1e-14)
    assert specfun.log_binomial(100, 50) == pytest.approx(
        math.log(math.comb(100, 50)), rel=1e-12
    )
    assert specfun.log_binomial(10_000, 137) == pytest.approx(
        math.log(math.comb(10_000, 137)), rel=1e-12
    )
    with pytest.raises(DomainError):
        specfun.log_binomial(3, 4)


def test_context_invariants_and_degree_bound():
    table = specfun._LOG_FACTORIAL
    assert table[0] == 0.0
    assert np.all(np.diff(table[1:]) > 0)  # strictly increasing from 1! on
    assert table.size > 2 * specfun._MAX_DEGREE + 2
    assert specfun.log_factorial(20) == pytest.approx(math.log(math.factorial(20)), rel=1e-14)
    bound = specfun._MAX_DEGREE
    assert np.isfinite(specfun.laguerre2d(bound, 0, 1.0))
    with pytest.raises(DegreeLimitError):
        specfun.laguerre2d(bound + 1, 0, 1.0)
    with pytest.raises(DegreeLimitError):
        specfun.laguerre(bound + 1, 0.5)
    with pytest.raises(DomainError):
        specfun.laguerre_assoc(-1, 0, 1.0)


def test_laguerre2d_accepts_arrays():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    for k, l in ((0, 0), (3, 1), (1, 4), (5, 5)):
        got = specfun.laguerre2d(k, l, z)
        assert got.shape == z.shape
        want = [specfun.laguerre2d(k, l, complex(t)) for t in z.ravel()]
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-13, atol=1e-13)
