import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oversmooth import GridFunction
from oversmooth.grids import csv_table

finite_values = arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(min_value=-1e6, max_value=1e6),
)


def test_rejects_too_short():
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0]))


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, np.inf]))


def test_rejects_matrix():
    with pytest.raises(ValueError):
        GridFunction(np.zeros((2, 2)))


def test_values_are_read_only():
    u = GridFunction.ones(8)
    with pytest.raises(ValueError):
        u.values[0] = 2.0


def test_grid_nodes():
    u = GridFunction.zeros(5)
    assert np.allclose(u.x, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert u.h == 0.25


@given(finite_values)
def test_sup_norm_zero_iff_zero(vals):
    u = GridFunction(vals)
    assert u.sup_norm() >= 0.0
    assert (u.sup_norm() == 0.0) == bool(np.all(vals == 0.0))


@given(finite_values)
def test_arithmetic(vals):
    u = GridFunction(vals)
    assert np.array_equal((u - u).values, np.zeros_like(vals))
    assert np.array_equal((2.0 * u).values, 2.0 * vals)
    assert np.array_equal((-u).values, -vals)
    assert np.array_equal((u + u).values, 2.0 * vals)


def test_size_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        GridFunction.zeros(4) + GridFunction.zeros(5)


def test_csv_table_bytes():
    rows = [(np.float64(0.1), True, np.True_, 7, "ones"), (0.25, False, np.False_, np.int64(-3), "x")]
    assert csv_table("f,b,nb,i,s", rows) == "f,b,nb,i,s\n0.10000000000000001,1,1,7,ones\n0.25,0,0,-3,x\n"
    assert csv_table("only,header", []) == "only,header\n"
