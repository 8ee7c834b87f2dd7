"""Test references: the hand-constructed labeling of the hexagonal N=31
design, the scalar side distortion, the brute-force nearest sublattice
point and the edge relocation built on it, the exhaustive optimum of small
designs, the square assignment solver that moves every potential
at every step, and the asymptotic sweep computed one index at a time.

This is the classic worked assignment for the index-31 hexagonal design in
the frame u = 5 - w (params (5, -1)): each orbit of the order-6 rotation
group is anchored to one edge class.  It is *not* cost-optimal (total 540 vs
the optimizer's 528) but is the fixture against which the worked-example
values are checked, and its cost is the ceiling the optimizer must beat.

Anchor map: point-orbit representative -> class difference vector, both in
lattice coordinates (x, y) for x + y*w.
"""

import math
import numbers
import operator
import sys
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from mdlq.errors import InadmissibleIndex, InvalidInput, SizeMismatch
from mdlq.evaluation import analytic_d0, rate_targeted_beta
from mdlq.labeling import (
    Labeling,
    _add,
    _neg,
    _sub,
    base_edge_set,
    build_labeling,
    canonical_edge,
    class_key,
)
from mdlq.lattices import Lattice, sphere_second_moment
from mdlq.sublattices import SimilarSublattice, design_sublattice, find_params

# u = (5, -1), v = w*u = (1, 6)
HAND_ANCHORS_A2_31 = {
    (1, 0): (5, -1),  # first shell       -> class [u]       (edge {O, A})
    (3, 2): (-4, 7),  # outer shell (i=7) -> class [v - u]   (edge {A, C})
    (1, 2): (10, -2),  # shell i=3        -> class [2u]      (diameter {A, D})
    (3, 1): (16, 3),  # outer shell (i=7) -> class [3u + v]  (edge {D, G})
    (2, 0): (17, 9),  # shell i=4         -> class [3u + 2v] (edge {E, G})
}

HAND_COST_A2_31 = Fraction(540)


def hand_labeling_a2_31() -> Labeling:
    sub = design_sublattice("A2", 31, params=(5, -1))
    lab = build_labeling(sub, anchors=HAND_ANCHORS_A2_31)
    assert lab.cost_total == HAND_COST_A2_31
    return lab


def ds_cost(lat: Lattice, lam, edge) -> Fraction:
    """Side distortion d_s(lam, edge) = (||lam-a||^2 + ||lam-b||^2)/2, exact."""
    a, b = edge
    return Fraction(lat.qshell(_sub(lam, a)) + lat.qshell(_sub(lam, b)), 2 * lat.dim)


def brute_nearest2(sub: SimilarSublattice, t2):
    """Nearest sublattice point to the half-integer target t2/2 by exhaustive
    search, by distance and then lexicographic order: over the
    {floor, floor + 1}^L box of sub-coordinates in an orthogonal frame, where
    distances separate over them, and over a 6 x 6 box on A2.  It reads only
    Gt, its adjugate and the Gram matrix, none of the package's nearest-point
    or coset rules."""
    lat = sub.lattice
    n = sub.index
    num = [sum(map(operator.mul, row, t2)) for row in sub.adjugate]
    base = [x // (2 * n) for x in num]
    best = None
    span = range(-2, 4) if lat.name == "A2" else range(2)
    for off in product(span, repeat=lat.dim):
        u = [b + o for b, o in zip(base, off)]
        p = tuple(sum(map(operator.mul, row, u)) for row in sub.gtilde_rows)
        w = [t - 2 * c for t, c in zip(t2, p)]
        key = (sum(x * sum(map(operator.mul, row, w)) for x, row in zip(w, lat.gram2_rows)), p)
        if best is None or key < best:
            best = key
    return best[1]


def closest_edge_in_class(sub: SimilarSublattice, lam, delta):
    """Relocate the class with difference ``delta`` closest to ``lam``, one
    point at a time with ``brute_nearest2``: the oracle of the bulk
    ``mdlq.labeling._relocate``.

    The optimal shift places the midpoint at the sublattice point nearest to
    lam - delta/2; the result does not depend on the sign of delta.
    """
    w = brute_nearest2(sub, tuple(2 * x - d for x, d in zip(lam, delta)))
    return canonical_edge(w, _add(w, delta))


def brute_force_min_cost(sub: SimilarSublattice) -> Fraction:
    """Exhaustive optimum over all constrained bijections (small designs).

    Equivalent-point / equivalent-edge constraints reduce the search to
    bijections between the (N-1)/2 negation pairs of V0(0) and the (N-1)/2
    nonzero edge classes; each pairing costs 2 * d_s(p, [k]).
    """
    lat = sub.lattice
    endpoints = base_edge_set(sub)
    reps = [r for r in sub.voronoi_reps if any(r)]
    pairs = sorted({max(r, _neg(r)) for r in reps})
    keys = sorted({class_key(p) for p in endpoints if any(p)})
    if len(pairs) != len(keys):
        raise SizeMismatch("pair/class counts differ")
    if len(pairs) > 8:
        raise ValueError("brute force limited to (N-1)/2 <= 8")
    cost = [
        [2 * ds_cost(lat, p, closest_edge_in_class(sub, p, k)) for k in keys] for p in pairs
    ]
    best = None
    for perm in permutations(range(len(keys))):
        c = sum(cost[i][perm[i]] for i in range(len(pairs)))
        if best is None or c < best:
            best = c
    return best


def eager_min_cost_assignment(cost):
    """The square Hungarian solver that moves every potential by ``delta``
    at every step: the oracle of the optimal totals of ``mdlq.assignment``,
    posed with each type's column repeated as often as its capacity."""
    n = len(cost)
    if n == 0:
        return [], 0
    inf = sum(abs(c) for row in cost for c in row) + 1
    assert isinstance(inf, numbers.Integral)
    dtype = np.int64 if 4 * inf < 2**63 else object
    c = np.zeros((n, n + 1), dtype=dtype)  # column 0 is the dummy start column
    c[:, 1:] = cost
    u = np.zeros(n + 1, dtype=dtype)
    v = np.zeros(n + 1, dtype=dtype)
    p = np.zeros(n + 1, dtype=np.intp)
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
            j1 = int(np.flatnonzero(masked == delta)[0])
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
    return cols, sum(cost[i][cols[i]] for i in range(n))


def asymptotic_rows_per_index(lat: Lattice, n_sequence, a: float, h_bits: float = 0.0):
    """The asymptotic sweep computed one index at a time: representability by
    the parameter search, K from a theta series covering N, and the shell sum
    over a second theta series up to K.  ``asymptotic_limit_check`` must give
    the same rows and raise the same error at the same first bad N."""
    if not 0 < a < 1:
        raise InvalidInput(f"exponent a must lie in (0, 1), got {a}")
    l = lat.dim
    rows = []
    for n in n_sequence:
        find_params(lat, n)
        k = None
        if l == 1:
            k = ((n - 1) // 2) ** 2 if n >= 1 and n % 2 else None
        elif n >= 1:
            total = 0
            for i, ai in enumerate(lat.shells_covering(n).A):
                total += ai
                if total >= n:
                    k = i if total == n else None
                    break
        if k is None:
            raise InadmissibleIndex(f"N={n} does not fill shells exactly")
        if math.log2(n) / l <= 1.0:
            raise InadmissibleIndex(f"N={n} too small for the rate map N=2^(L(aR+1))")
        if l == 1:
            m = math.isqrt(k)
            sum_i_ai = m * (m + 1) * (2 * m + 1) // 3
        else:
            sum_i_ai = sum(i * ai for i, ai in enumerate(lat.shells(k).A))
        rate = (math.log2(n) / l - 1.0) / a
        beta = rate_targeted_beta(lat, rate, a, h_bits)
        sum_l2 = sum_i_ai * n ** (2.0 / l) / l
        d_tilde = beta * beta * sum_l2 / (4.0 * n)
        try:
            d0 = analytic_d0(lat, beta)
            ratio = d_tilde * 2.0 ** (2.0 * rate * (1.0 - a)) / 2.0 ** (2.0 * h_bits)
            d0_norm = d0 * 2.0 ** (2.0 * rate * (1.0 + a)) * 4.0 / 2.0 ** (2.0 * h_bits)
        except (ArithmeticError, InvalidInput):  # cell_volume rejects beta^L out of range
            d0 = ratio = d0_norm = math.nan
        values = (beta * beta, d_tilde, d0, ratio, d0_norm)
        if not all(sys.float_info.min <= v < math.inf for v in values):
            raise InvalidInput(
                f"entropy {h_bits} bits takes the N={n} row beyond the normal float range"
            )
        rows.append(
            {
                "N": n,
                "K": k,
                "R": rate,
                "beta": beta,
                "d_tilde": d_tilde,
                "ratio": ratio,
                "sphere_G": sphere_second_moment(l),
                "d0_normalized": d0_norm,
            }
        )
    return rows
