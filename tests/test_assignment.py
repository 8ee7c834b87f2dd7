import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mdlq.assignment import min_cost_assignment


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

