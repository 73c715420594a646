import numpy as np
import pytest

from rwl1.linalg import as_matrix, as_vector, count_nonzeros


@pytest.mark.parametrize("x, tol, expected", [
    ((0.0, 0.0, 3.0), 1e-6, 1),
    ((1e-8, 2.0), 1e-6, 1),
    ((1.0, -1.0, 0.5), 1e-6, 3),
])
def test_count_nonzeros(x, tol, expected):
    assert count_nonzeros(x, tol) == expected


def test_count_nonzeros_rejects_bad_tol():
    with pytest.raises(ValueError):
        count_nonzeros([1.0], 0.0)


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
