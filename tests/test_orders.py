"""Order assignment: definition, edge cases, and properties."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rarepath.orders import INFINITY, assign_order


def test_order_zero_for_large_probability():
    assert assign_order(0.5, 0.1) == 0
    assert assign_order(1.0, 0.1) == 0
    # just above eps still counts as order 0
    assert assign_order(0.11, 0.1) == 0


def test_order_one():
    assert assign_order(0.1, 0.1) == 1
    assert assign_order(0.05, 0.1) == 1
    # prefactor must strictly exceed eps
    assert assign_order(0.011, 0.1) == 1


def test_order_two():
    assert assign_order(0.01, 0.1) == 2
    assert assign_order(0.005, 0.1) == 2


def test_known_values_small_epsilon():
    assert assign_order(1e-4, 0.01) == 2
    assert assign_order(0.5e-4, 0.01) == 2
    assert assign_order(1e-2, 0.01) == 1


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_rejects_bad_probability(bad):
    with pytest.raises(ValueError):
        assign_order(bad, 0.1)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
def test_rejects_bad_epsilon(bad):
    with pytest.raises(ValueError):
        assign_order(0.5, bad)


def test_infinity_saturates():
    assert INFINITY + 3 == INFINITY
    assert 3 < INFINITY


@given(
    st.floats(min_value=1e-12, max_value=1.0, exclude_min=True),
    st.floats(min_value=1e-3, max_value=0.9),
)
def test_order_satisfies_definition(p, eps):
    """r is the smallest non-negative integer with p / eps**r > eps."""
    r = assign_order(p, eps)
    assert r >= 0
    assert p / eps**r > eps
    if r > 0:
        assert p / eps ** (r - 1) <= eps


@given(
    st.integers(min_value=0, max_value=10),
    st.floats(min_value=0.01, max_value=0.5),
    st.floats(min_value=0.51, max_value=0.99),
)
def test_theta_scaling_recovers_order(r, eps, pre):
    """A probability pre * eps**r with prefactor in (eps, 1) gets order r."""
    p = pre * eps**r
    assert assign_order(p, eps) == r
