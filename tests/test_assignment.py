import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mdlq import assignment
from mdlq.assignment import min_cost_assignment

from .reference_design import eager_min_cost_assignment


def test_trivial_cases():
    assert min_cost_assignment([]) == ([], 0)
    cols, total = min_cost_assignment([[7]])
    assert cols == [0] and total == 7


def test_known_matrix():
    cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
    cols, total = min_cost_assignment(cost)
    assert total == 5
    assert sorted(cols) == [0, 1, 2]


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy_on_random_int_matrices(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    cost = rng.integers(-50, 100, size=(n, n))
    cols, total = min_cost_assignment(cost.tolist())
    ri, ci = linear_sum_assignment(cost)
    assert total == int(cost[ri, ci].sum())
    assert sorted(cols) == list(range(n))


def test_deterministic_given_input_order():
    cost = [[1, 1], [1, 1]]
    assert min_cost_assignment(cost) == min_cost_assignment(cost)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        min_cost_assignment([[1, 2], [3]])


def test_rejects_non_integer_costs():
    # Truncated to int64 these would all read 0 and give the wrong matching.
    with pytest.raises(TypeError):
        min_cost_assignment([[0.9, 0.1], [0.1, 0.9]])


@pytest.mark.parametrize("n", [1, 2, 7, 30, 64, 120])
def test_matches_scipy_with_many_ties(n):
    rng = np.random.default_rng(n)
    cost = rng.integers(0, 4, size=(n, n))
    cols, total = min_cost_assignment(cost.tolist())
    ri, ci = linear_sum_assignment(cost)
    assert total == int(cost[ri, ci].sum())
    assert sorted(cols) == list(range(n))
    assert total == sum(int(cost[i, c]) for i, c in enumerate(cols))


def test_costs_beyond_int64_run_exactly():
    rng = np.random.default_rng(7)
    n = 25
    small = rng.integers(-20, 20, size=(n, n))
    big = [[int(x) + 2**70 for x in row] for row in small.tolist()]
    cols, total = min_cost_assignment(big)
    ri, ci = linear_sum_assignment(small)
    assert total == int(small[ri, ci].sum()) + n * 2**70
    assert sorted(cols) == list(range(n))


@st.composite
def _tie_heavy_matrices(draw):
    n = draw(st.integers(1, 9))
    values = draw(st.sampled_from([st.integers(0, 2), st.integers(-3, 3), st.integers(-60, 60)]))
    return [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(cost=_tie_heavy_matrices())
def test_same_columns_as_eager_potential_updates(cost):
    """The lazy potentials pick the columns of the solver that moves every
    potential at every step, ties and negative costs included, and so does
    the Python-int path on the same matrix shifted past int64."""
    expected = eager_min_cost_assignment(cost)
    assert min_cost_assignment(cost) == expected
    cols, _ = min_cost_assignment([[x + 2**70 for x in row] for row in cost])
    assert cols == expected[0]


def _matrix_with_abs_sum(total, seed):
    """A 4 x 4 matrix of multiples of 2**55, mixed signs and ties, whose
    absolute values sum to ``total * 2**55`` (exact in float64 for scipy)."""
    rng = np.random.default_rng(seed)
    small = rng.integers(-3, 4, size=(4, 4))
    small[0, 0] = 0
    small[0, 0] = -(total - int(np.abs(small).sum()))
    assert int(np.abs(small).sum()) == total
    return [[int(x) * 2**55 for x in row] for row in small.tolist()], small


@pytest.mark.parametrize("total,dtype", [(63, np.dtype(np.int64)), (64, np.dtype(object))])
@pytest.mark.parametrize("seed", range(4))
def test_int64_switch(monkeypatch, total, dtype, seed):
    """Just below 4 * inf = 2**63 the solver stays on int64 and just above it
    moves to Python ints; both totals equal scipy's."""
    cost, small = _matrix_with_abs_sum(total, seed)
    inf = total * 2**55 + 1
    assert (4 * inf < 2**63) == (dtype == np.int64)
    made = set()

    class _Numpy:  # numpy, recording the dtype of every tentative-distance row
        def __getattr__(self, name):
            return getattr(np, name)

        def full(self, shape, fill, dtype):
            made.add(np.dtype(dtype))
            return np.full(shape, fill, dtype=dtype)

    monkeypatch.setattr(assignment, "np", _Numpy())
    cols, got = min_cost_assignment(cost)
    assert made == {dtype}
    ri, ci = linear_sum_assignment(small)
    assert got == int(small[ri, ci].sum()) * 2**55
    assert sorted(cols) == list(range(4))
