"""Test references: the hand-constructed labeling of the hexagonal N=31
design and the exhaustive optimum of small designs.

This is the classic worked assignment for the index-31 hexagonal design in
the frame u = 5 - w (params (5, -1)): each orbit of the order-6 rotation
group is anchored to one edge class.  It is *not* cost-optimal (total 540 vs
the optimizer's 528) but is the fixture against which the worked-example
values are checked, and its cost is the ceiling the optimizer must beat.

Anchor map: point-orbit representative -> class difference vector, both in
lattice coordinates (x, y) for x + y*w.
"""

from fractions import Fraction
from itertools import permutations

from mdlq.errors import SizeMismatch
from mdlq.labeling import (
    Labeling,
    _neg,
    base_edge_set,
    build_labeling,
    class_key,
    closest_edge_in_class,
    ds_cost,
)
from mdlq.sublattices import SimilarSublattice, design_sublattice

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


def brute_force_min_cost(sub: SimilarSublattice) -> Fraction:
    """Exhaustive optimum over all constrained bijections (small designs).

    Equivalent-point / equivalent-edge constraints reduce the search to
    bijections between the (N-1)/2 negation pairs of V0(0) and the (N-1)/2
    nonzero edge classes; each pairing costs 2 * d_s(p, [k]).
    """
    lat = sub.lattice
    endpoints, _, _ = base_edge_set(sub)
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
