import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mdlq import assignment
from mdlq.assignment import min_cost_assignment

from .reference_design import eager_min_cost_assignment

# A square assignment is the transportation problem with one unit-capacity
# type per column; most tests below pose it that way.


def _square(cost):
    return min_cost_assignment(cost, [1] * len(cost))


def test_trivial_cases():
    assert min_cost_assignment([], []) == ([], 0)
    types, total = _square([[7]])
    assert types == [0] and total == 7


def test_known_matrix():
    cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
    types, total = _square(cost)
    assert total == 5
    assert sorted(types) == [0, 1, 2]


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy_on_random_int_matrices(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    cost = rng.integers(-50, 100, size=(n, n))
    types, total = _square(cost.tolist())
    ri, ci = linear_sum_assignment(cost)
    assert total == int(cost[ri, ci].sum())
    assert sorted(types) == list(range(n))


def test_deterministic_given_input_order():
    cost = [[1, 1], [1, 1]]
    assert _square(cost) == _square(cost)
    assert min_cost_assignment([[1], [1]], [2]) == ([0, 0], 2)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        _square([[1, 2], [3]])
    with pytest.raises(ValueError):  # capacities that do not sum to the rows
        min_cost_assignment([[1, 2], [3, 4]], [1, 2])


def test_rejects_non_integer_costs():
    # Truncated to int64 these would all read 0 and give the wrong matching.
    with pytest.raises(TypeError):
        _square([[0.9, 0.1], [0.1, 0.9]])


@pytest.mark.parametrize("n", [1, 2, 7, 30, 64, 120])
def test_matches_scipy_with_many_ties(n):
    rng = np.random.default_rng(n)
    cost = rng.integers(0, 4, size=(n, n))
    types, total = _square(cost.tolist())
    ri, ci = linear_sum_assignment(cost)
    assert total == int(cost[ri, ci].sum())
    assert sorted(types) == list(range(n))
    assert total == sum(int(cost[i, c]) for i, c in enumerate(types))


def test_costs_beyond_int64_run_exactly():
    rng = np.random.default_rng(7)
    n = 25
    small = rng.integers(-20, 20, size=(n, n))
    big = [[int(x) + 2**70 for x in row] for row in small.tolist()]
    types, total = _square(big)
    ri, ci = linear_sum_assignment(small)
    assert total == int(small[ri, ci].sum()) + n * 2**70
    assert sorted(types) == list(range(n))


@st.composite
def _typed_problems(draw):
    """An n x K matrix of small values (often tied), capacities summing to n,
    and a shift that moves every value past int64 or leaves it."""
    n = draw(st.integers(0, 9))
    k = draw(st.sampled_from([1, n, draw(st.integers(1, n))])) if n else 0
    types = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)) if k else []
    caps = np.bincount(types, minlength=k).tolist()
    values = draw(st.sampled_from([st.integers(0, 2), st.integers(-3, 3), st.integers(-60, 60)]))
    cost = [draw(st.lists(values, min_size=k, max_size=k)) for _ in range(n)]
    shift = draw(st.sampled_from([0, 2**63, -(2**70)]))
    return [[x + shift for x in row] for row in cost], caps


@settings(max_examples=300, deadline=None)
@given(problem=_typed_problems())
@example(problem=([], []))
@example(problem=([[2**63, 2**63 + 1], [2**63 + 1, 2**63]], [1, 1]))
def test_transportation_matches_eager_assignment_on_expanded_columns(problem):
    """The typed solver reaches the optimum of the square problem whose
    columns repeat each type as often as its capacity, ties, K = 1, K = n and
    the Python-int path included, and fills every type to its capacity."""
    cost, caps = problem
    types, total = min_cost_assignment(cost, caps)
    cols = [t for t, c in enumerate(caps) for _ in range(c)]
    assert total == eager_min_cost_assignment([[row[t] for t in cols] for row in cost])[1]
    assert total == sum(row[t] for row, t in zip(cost, types))
    assert np.bincount(types, minlength=len(caps)).tolist() == caps


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
    """Just below 4 * (sum|c| + 1) = 2**63 the solver stays on int64 and just
    above it moves to Python ints; both totals equal scipy's."""
    cost, small = _matrix_with_abs_sum(total, seed)
    bound = total * 2**55 + 1
    assert (4 * bound < 2**63) == (dtype == np.int64)
    made = []

    class _Numpy:  # numpy, recording the dtype of the working cost matrix
        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, obj, dtype=None):
            made.append(dtype)
            return np.array(obj, dtype=dtype)

    monkeypatch.setattr(assignment, "np", _Numpy())
    types, got = _square(cost)
    assert (np.int64 in made) == (dtype == np.int64)
    ri, ci = linear_sum_assignment(small)
    assert got == int(small[ri, ci].sum()) * 2**55
    assert sorted(types) == list(range(4))
