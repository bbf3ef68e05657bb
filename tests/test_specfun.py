import math

import numpy as np
import pytest

from stellarq import specfun
from stellarq.errors import DomainError


def test_log_factorial_table():
    table = specfun._LOG_FACTORIAL
    assert table[0] == 0.0
    assert np.all(np.diff(table[1:]) > 0)  # strictly increasing from 1! on
    assert specfun.log_factorial(20) == pytest.approx(math.log(math.factorial(20)), rel=1e-14)
    np.testing.assert_array_equal(specfun.log_factorial(np.arange(5)), table[:5])
    assert specfun.log_factorial(np.arange(0)).size == 0


def test_table_bound_raises_domain_error():
    top = specfun._MAX_N
    assert np.isfinite(specfun.log_factorial(top))
    for bad in (top + 1, np.arange(top + 2), -1, np.array([3, -2])):
        with pytest.raises(DomainError, match=str(top)) as exc:
            specfun.log_factorial(bad)
        assert exc.value.details["limit"] == top
