"""Exact minimum-cost bipartite assignment (Hungarian algorithm).

Runs on exact integers so that optimality comparisons in the labeling
construction are never subject to float noise.  This is the O(n^3)
shortest augmenting path method with row/column potentials (Jonker &
Volgenant, Computing 1987; Crouse, IEEE TAES 2016) in Dijkstra form: a row's
search keeps the potentials fixed, holds tentative distances, and moves the
scanned columns' potentials once, at its end.  Each search step is a few
numpy ops on one row; the labeling's matrices reach 500 rows (Z1 N=1001) and
1 496 (Z2 N=2993).  Ties go to the first minimal column, so a fixed input
order gives a fixed matching.
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
    # With M = max|c| < inf, before each row u lies in [-M, M] and the real
    # columns' v in [-2M, 0] (free columns keep v = 0); the dummy column's |v|
    # is a partial optimum, below inf.  A distance is a signed sum of distinct
    # costs minus one v, so it lies in (-inf, 3 inf), and each final shift in
    # (-inf, 2 inf).  Every value fits int64 while 4 * inf < 2**63; beyond it the
    # same code runs on Python ints.  ``scanned`` exceeds every distance.
    dtype, scanned = (np.int64, np.iinfo(np.int64).max) if 4 * inf < 2**63 else (object, 4 * inf)
    c = np.zeros((n, n + 1), dtype=dtype)  # column 0 is the dummy start column
    c[:, 1:] = cost

    u = np.zeros(n + 1, dtype=dtype)
    v = np.zeros(n + 1, dtype=dtype)
    p = np.zeros(n + 1, dtype=np.intp)  # p[j] = row matched to column j (1-based, 0 = free)
    way = np.zeros(n + 1, dtype=np.intp)
    for i in range(1, n + 1):
        p[0] = i
        j0, d0 = 0, 0
        minv = np.full(n + 1, inf, dtype=dtype)  # tentative distance of each column
        free = np.ones(n + 1, dtype=bool)
        seen, dist = [], []  # the scanned columns and their distances
        while p[j0]:
            free[j0] = False
            minv[j0] = scanned
            seen.append(j0)
            dist.append(d0)
            i0 = p[j0]
            cur = c[i0 - 1] - v + (d0 - u[i0])  # d0 plus the reduced costs
            better = free & (cur < minv)
            np.copyto(minv, cur, where=better)
            np.copyto(way, j0, where=better)
            j0 = int(minv.argmin())  # first minimal column
            d0 = minv[j0]
        shift = d0 - np.array(dist, dtype=dtype)
        u[p[seen]] += shift
        v[seen] -= shift
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    cols = [0] * n
    for j in range(1, n + 1):
        cols[p[j] - 1] = j - 1
    total = sum(cost[i][cols[i]] for i in range(n))
    return cols, total
