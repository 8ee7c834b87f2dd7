"""Exact minimum-cost bipartite assignment (Hungarian algorithm).

Runs on exact integers so that optimality comparisons in the labeling
construction are never subject to float noise.  This is the O(n^3)
shortest augmenting path method with row/column potentials (Jonker &
Volgenant, Computing 1987; Crouse, IEEE TAES 2016); each row step is a
handful of numpy vector ops.
The orbit matrices of the labeling construction reach 90 rows (Z2 N=181)
and 150 rows (Z1 N=301).  It is deterministic for a fixed input order:
ties go to the first minimal column.
"""

from __future__ import annotations

import numbers

import numpy as np


def min_cost_assignment(cost):
    """Solve the square assignment problem exactly.

    ``cost`` is an n x n matrix (sequence of sequences) of ints.
    Returns ``(cols, total)`` where ``cols[i]`` is the column assigned to row
    ``i`` and ``total`` is the exact optimal cost.
    """
    n = len(cost)
    if n == 0:
        return [], 0
    if any(len(row) != n for row in cost):
        raise ValueError("cost matrix must be square")
    inf = sum(abs(c) for row in cost for c in row) + 1
    if not isinstance(inf, numbers.Integral):  # int64 storage would truncate
        raise TypeError(f"costs must be integers, got a sum of type {type(inf).__name__}")
    # Free columns keep v = 0, so with M = max|c| < inf the potentials of the
    # rows and real columns lie in [-3M, 2M] and their reduced costs in
    # [-3M, 4M]; the dummy column's |v| is a partial optimum, below inf.  Every
    # value fits int64 while 4 * inf < 2**63; beyond it the same code runs on
    # Python ints.
    dtype = np.int64 if 4 * inf < 2**63 else object
    c = np.zeros((n, n + 1), dtype=dtype)  # column 0 is the dummy start column
    c[:, 1:] = cost

    u = np.zeros(n + 1, dtype=dtype)
    v = np.zeros(n + 1, dtype=dtype)
    p = np.zeros(n + 1, dtype=np.intp)  # p[j] = row matched to column j (1-based, 0 = free)
    way = np.zeros(n + 1, dtype=np.intp)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, inf, dtype=dtype)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            free = ~used
            i0 = p[j0]
            cur = c[i0 - 1] - u[i0] - v
            better = free & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            masked = np.where(free, minv, inf)
            delta = masked.min()
            j1 = int(np.flatnonzero(masked == delta)[0])  # first minimal column
            done = np.flatnonzero(used)
            u[p[done]] += delta
            v[done] -= delta
            minv[free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    cols = [0] * n
    for j in range(1, n + 1):
        cols[p[j] - 1] = j - 1
    total = sum(cost[i][cols[i]] for i in range(n))
    return cols, total
