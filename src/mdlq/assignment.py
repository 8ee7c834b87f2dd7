"""Exact minimum-cost transportation of n rows to K types.

Type t takes exactly ``caps[t]`` rows (K = n with unit capacities is the
square assignment).  Successive shortest paths: each row in order goes to a
type directly or by moving placed rows j from type s to t at gain
``cost[j, t] - cost[j, s]``, until a type with free capacity; Bellman-Ford
finds the path over the K x K least gains, formed in numpy (the rows placed so
far are assigned optimally, so no cycle is negative).  Ties: the first free
type of least distance ends the path, and along it the first row of least gain
moves.  Exact: int64 while every value fits, Python ints beyond.
"""

from __future__ import annotations

import numbers

import numpy as np


def min_cost_assignment(cost, caps):
    """Solve the transportation problem exactly.

    ``cost`` is an n x K matrix (array or sequence of sequences) of ints and
    ``caps`` K ints summing to n.  Returns ``(types, total)``: ``types[i]`` is
    the type of row ``i`` and ``total`` the exact optimal cost.
    """
    n, k = len(cost), len(caps)
    if sum(caps) != n:
        raise ValueError(f"capacities sum to {sum(caps)}, not to the {n} rows")
    r = np.array(cost, dtype=object).reshape(n, k)  # a ragged matrix does not fit
    bound = sum(map(abs, r.flat)) + 1
    if not isinstance(bound, numbers.Integral):  # int64 storage would truncate
        raise TypeError(f"costs must be integers, got a sum of type {type(bound).__name__}")
    # A distance sums distinct entries with signs, so it is at most the bound;
    # a candidate adds one gain, two entries more.  int64 holds all of them.
    r = np.array(r, dtype=np.int64 if 4 * bound < 2**63 else object)
    free = np.array(caps)
    types = np.zeros(n, dtype=np.intp)
    for i in range(n):
        dist, pred = r[i].copy(), np.full(k, -1)  # pred -1: straight from row i
        placed = types[:i]
        gain = r[:i] - r[np.arange(i), placed][:, None]  # gain[j, t]: move row j to t
        order = np.argsort(placed, kind="stable")
        occ, starts = np.unique(placed[order], return_index=True)
        least = np.minimum.reduceat(gain[order], starts, axis=0)  # least gain occ[s] -> t
        for _ in range(min(i, k)):  # Bellman-Ford: a path leaves each occupied type at most once
            cand = dist[occ, None] + least
            src = cand.argmin(axis=0)
            best = cand[src, np.arange(k)]
            upd = best < dist
            if not upd.any():
                break
            dist[upd] = best[upd]
            pred[upd] = occ[src[upd]]
        avail = np.flatnonzero(free)
        t = avail[dist[avail].argmin()]
        free[t] -= 1
        while pred[t] >= 0:
            s = pred[t]
            j = np.flatnonzero((placed == s) & (gain[:, t] == least[occ.searchsorted(s), t]))[0]
            types[j], t = t, s
        types[i] = t
    return types.tolist(), sum(r[np.arange(n), types].tolist())
