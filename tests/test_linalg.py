import numpy as np
import pytest

from rwl1.linalg import SUPPORT_TOL, as_matrix, as_vector, count_nonzeros


@pytest.mark.parametrize("x, tol, expected", [
    ((0.0, 0.0, 3.0), 1e-6, 1),
    ((1e-8, 2.0), 1e-6, 1),
    ((1.0, -1.0, 0.5), 1e-6, 3),
])
def test_count_nonzeros(x, tol, expected):
    assert tol == SUPPORT_TOL
    assert count_nonzeros(x) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        as_vector([1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[1.0, bad]])


def test_shape_checks():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], length=3)
