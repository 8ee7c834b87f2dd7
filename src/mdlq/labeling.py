"""The labeling function: map each lattice point to an ordered pair of
sublattice points so that either component alone is a coarse description and
the pair determines the point exactly.

Construction pipeline (all exact integer / rational arithmetic):

1. ``base_edge_set``     -- the N shortest undirected sublattice edges with
                            one endpoint at the origin.
2. ``_relocate``          -- relocate edge classes so their midpoints are as
                            close as possible to the points being labeled.
3. ``optimal_class_matching`` -- group-reduced exact min-cost assignment of
                            discrete-Voronoi cosets to edge classes, one
                            transportation over types of class orbits; every
                            tie goes to the first candidate in order; the
                            group acts on arrays in one product, ``_act``.
4. color / direction rules -- turn the undirected label into a directed one
                            so the two channels stay balanced.

The direction rule has one form, ``_orient`` on the rows of integer arrays:
the color of an edge at its first differing axis and the side of the edge's
midpoint that the point lies on.  It builds every ``Row`` of a design in one
pass, the public ``direct_edge`` and ``color`` are one-row calls of it, and
``verify_properties`` applies it to every label it checks.

A finished ``Labeling`` keeps one row table in coset-index order: each
``Row`` holds a V0(0) representative, its relocated edge and its direction,
and ``class_table`` maps each edge class to a row index.  ``encode`` shifts
the row of the point's coset index, ``decode_both`` the row of the label's
class by the shift taken at the label's first endpoint; both evaluate one
parity, ``orientation_flip``, which the bulk encoder applies to the same
table as arrays.  ``verify_properties`` checks Properties 1-3 on the same table
as arrays: the bulk encoder and its decoder (``codec.BulkEncoder``) label every
representative, partner, base edge and shifted representative at once, and
the direction rule gives the direction each label must have.
"""

from __future__ import annotations

import contextlib
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .assignment import min_cost_assignment
from .errors import (
    AsymmetricEdgeSet,
    GroupPropertyViolation,
    InadmissibleIndex,
    InvalidInput,
    NotALabel,
    PropertyCheckFailed,
    SizeMismatch,
    ZeroEdge,
)
from .lattices import Lattice, get_lattice, int_point
from .sublattices import SimilarSublattice, bulk_coset_index, bulk_nearest2
from .symmetry import SymmetryGroup, group_for, minus_identity_group


class DirectedEdge(NamedTuple):
    """Ordered label: ``first`` goes to channel 1, ``second`` to channel 2."""

    first: tuple
    second: tuple

    def reversed(self) -> "DirectedEdge":
        return DirectedEdge(self.second, self.first)


def _neg(v):
    return tuple(map(operator.neg, v))


def _add(a, b):
    return tuple(map(operator.add, a, b))


def _sub(a, b):
    return tuple(map(operator.sub, a, b))


def canonical_edge(a, b):
    """Undirected edge as an ordered pair, smaller endpoint first."""
    return (a, b) if a <= b else (b, a)


def class_key(delta):
    """Canonical representative of the edge class with difference +-delta."""
    nd = _neg(delta)
    return delta if delta <= nd else nd


# ---------------------------------------------------------------------------
# color and direction rules
# ---------------------------------------------------------------------------


# A table row: rep + vp (vp a sublattice point) is labeled (first + vp,
# second + vp), reversed where orientation_flip(phase, step, vp[axis]) is 1.
Row = namedtuple("Row", "rep first second axis step phase")


def orientation_flip(phase, step, shift):
    """The one shift-dependent bit of a label, for Python ints and integer arrays."""
    return (phase + 2 * shift) // step & 1


def _lead(v: np.ndarray) -> np.ndarray:
    """The first nonzero entry of each row of ``v``; 0 on a zero row."""
    return np.take_along_axis(v, (v != 0).argmax(axis=1)[:, None], axis=1)[:, 0]


def _orient(lat: Lattice, a: np.ndarray, b: np.ndarray, lam: np.ndarray):
    """The color and direction rules for the edges (a, b) labeling the points
    ``lam``, row by row, on int64 rows or Python ints in object arrays.

    The color is floor((a_j + b_j) / step) mod 2 at the first axis j with
    a_j != b_j, step = 2 |b_j - a_j|: it alternates along any line of shifted
    copies and does not depend on the endpoint order.  The sign of
    <a - b, lam - mu>, mu the midpoint, is positive where lam is nearer to a;
    on the tie hyperplane the first nonzero coordinate of lam - mu decides,
    and only the midpoint gets 0.  Returns the ``Row`` fields axis j, step and
    phase = a_j + b_j (+ step where the sign is negative), so that
    ``orientation_flip(phase, step, 0)`` is 1 where (a, b) is reversed, and
    whether the sign is 0; a zero edge gets axis 0, step 1, phase 0.  The sign
    is formed in int64 while its terms bound it below 2^63, else on Python ints."""
    d, w2 = a - b, 2 * lam - a - b
    if d.dtype != object and w2.dtype != object:
        reach = int(np.abs(d).max(initial=0)) * int(np.abs(w2).max(initial=0))
        if reach * int(np.abs(lat.gram2).sum()) >= 2**63:
            d, w2 = d.astype(object), w2.astype(object)
    s = (d @ lat.gram2 * w2).sum(axis=1)
    s = np.where(s != 0, s, _lead(w2))
    j = (d != 0).argmax(axis=1)[:, None]
    dj = np.abs(np.take_along_axis(d, j, axis=1)[:, 0])
    step = np.where(dj != 0, 2 * dj, 1)
    phase = np.where(dj != 0, np.take_along_axis(a + b, j, axis=1)[:, 0] + step * (s < 0), 0)
    return j[:, 0], step, phase, s == 0


def _directed(lat: Lattice, a: np.ndarray, b: np.ndarray, lam: np.ndarray):
    """The labels (first, second) of the canonical edges (a, b) for the points
    ``lam``: color 0 sends the endpoint nearer to lam on channel 1, color 1
    on channel 2, and a point at the midpoint gets (a, b)."""
    _, step, phase, tie = _orient(lat, a, b, lam)
    rev = (~tie & (orientation_flip(phase, step, 0) == 1))[:, None]
    return np.where(rev, b, a), np.where(rev, a, b)


def _rule_rows(*points):
    """One (n, L) array of Python-int points per argument, stacked, for
    ``_orient``; the bound keeps every sum that it forms below 2^63 in int64."""
    return _int_rows(points, 2**60)


def _int_edge(lat: Lattice, edge):
    """The endpoints of ``edge`` as points of ``lat``; InvalidInput otherwise."""
    try:
        p, q = edge
    except (TypeError, ValueError):
        raise InvalidInput(f"{edge!r} is not a pair of points") from None
    return int_point(p, lat.dim), int_point(q, lat.dim)


def color(lat: Lattice, edge) -> int:
    """Parity bit of an edge; alternates along any line of shifted copies.

    For endpoints p, q and the first coordinate j with q_j != p_j the color
    is floor((p_j + q_j) / (2*|q_j - p_j|)) mod 2.  Orientation independent:
    it is the direction rule's flip at the endpoint p itself.
    """
    p, q = _int_edge(lat, edge)
    if p == q:
        raise ZeroEdge("color is undefined for the zero-length edge")
    _, step, phase, _ = _orient(lat, *_rule_rows([p], [q], [p]))
    return int(orientation_flip(phase, step, 0)[0])


def direct_edge(lat: Lattice, edge, lam) -> DirectedEdge:
    """Orient an undirected label for the point it labels.

    Color 0 sends the endpoint nearer to ``lam`` on channel 1, color 1 sends
    it on channel 2.  A point exactly at the midpoint gets the canonical
    orientation.
    """
    a, b = canonical_edge(*_int_edge(lat, edge))
    first, second = _directed(lat, *_rule_rows([a], [b], [int_point(lam, lat.dim)]))
    return DirectedEdge(tuple(first[0].tolist()), tuple(second[0].tolist()))


def _table_rows(lat: Lattice, reps, edges) -> list:
    """The ``Row`` of each edge (a, b) relocated for its representative, in
    one pass of the direction rule: a shift by vp moves only the color
    floor((a_j + b_j + 2 vp_j) / step) mod 2, and the phase adds step where
    the representative is nearer to b.  At odd N only the zero row has its
    representative at the midpoint; step 1 never reverses it."""
    firsts, seconds = zip(*edges)
    axis, step, phase, _ = _orient(lat, *_rule_rows(firsts, seconds, reps))
    return list(map(Row, reps, firsts, seconds, axis.tolist(), step.tolist(), phase.tolist()))


def _class_keys(delta: np.ndarray) -> np.ndarray:
    """The ``class_key`` of each row of ``delta``."""
    return np.where((_lead(delta) > 0)[:, None], -delta, delta)


def _packed(rows: np.ndarray, reach: np.ndarray):
    """Each row packed in mixed radix over the box [-reach, reach] (first
    coordinate most significant, so packing keeps lexicographic order), and
    whether it lies in the box; a row outside packs as 0.  Every box packed
    bounds the base edge set or V0(0), so the keys stay far below 2^63."""
    inside = ((rows >= -reach) & (rows <= reach)).all(axis=1)
    radix = np.cumprod(np.append(2 * reach[1:] + 1, 1)[::-1])[::-1]
    digits = np.where(inside[:, None], rows + reach, 0).astype(np.int64)
    return digits @ radix, inside


def _int_rows(points, bound: int) -> np.ndarray:
    """The (n, L) array of Python-int points: int64 while every coordinate
    lies within +-bound, else Python ints in an object array."""
    try:
        rows = np.array(points, dtype=np.int64)
        if -bound <= rows.min(initial=0) and rows.max(initial=0) <= bound:
            return rows
    except OverflowError:
        pass
    return np.array(points, dtype=object)


# ---------------------------------------------------------------------------
# edge set and relocation
# ---------------------------------------------------------------------------


def base_edge_set(sub: SimilarSublattice):
    """The N shortest undirected sublattice edges {0, p}.

    Returns the sorted far endpoints in parent coordinates (the zero edge
    included as the origin).  The shortest vectors come from the ball of the
    first norm 2^j that holds N points; kmax is the norm of the N-th of them
    in norm order.  The shells below kmax are taken whole, and shell kmax is
    completed with whole +- pairs, smallest canonical endpoint first; an odd
    number of leftover slots cannot keep the set negation-closed and raises
    AsymmetricEdgeSet.
    """
    lat = sub.lattice
    n = sub.index
    budget = 1
    while len(ball := lat.ball(budget)) < n:
        budget *= 2
    norms = lat.norms(ball)
    kmax = np.partition(norms, n - 1)[n - 1]
    full = ball[norms < kmax]
    last = ball[norms == kmax]
    need = n - len(full)
    if need != len(last):
        if need % 2:
            raise AsymmetricEdgeSet(f"{need} slots remain in shell {kmax}; cannot keep +- pairs")
        pairs = {min(u, _neg(u)) for u in map(tuple, last.tolist())}
        order = sorted(pairs, key=sub.from_sub_coords)
        last = np.array([v for u in order[: need // 2] for v in (u, _neg(u))])
    return sorted(map(tuple, (np.concatenate([full, last]) @ sub.gtilde.T).tolist()))


def _relocate(sub: SimilarSublattice, lam: np.ndarray, delta: np.ndarray):
    """Relocate the class with difference ``delta`` closest to ``lam``, on the
    rows of (n, L) arrays (``lam`` may be one row).

    The optimal shift puts the midpoint at the sublattice point nearest to
    lam - delta/2, whatever the sign of delta.  Returns the near endpoints w,
    so each edge is {w, w + delta}, and 2L * d_s of each row, where
    d_s(lam, {a, b}) = (||lam - a||^2 + ||lam - b||^2) / 2."""
    w = bulk_nearest2(sub, 2 * lam - delta)
    d = np.concatenate([lam - w, lam - w - delta])
    if np.abs(d).max(initial=0) >= 2**27:  # keep the squared lengths exact
        d = d.astype(object)
    q = sub.lattice.norms(d)
    return w, q[: len(w)] + q[len(w) :]


# ---------------------------------------------------------------------------
# group-reduced optimal matching
# ---------------------------------------------------------------------------


def _act(group: SymmetryGroup, points) -> np.ndarray:
    """The image g x of each point x (the rows of ``points``) under each
    element g of ``group``, as an (order, n, L) array: int64 where every image
    stays within 2^62, else Python ints in an object array."""
    mats = np.array(group.elements, dtype=np.int64)
    rows = _int_rows(points, 2**62 // int(np.abs(mats).sum(axis=2).max()))
    return rows.reshape(-1, group.lattice.dim) @ mats.astype(rows.dtype).transpose(0, 2, 1)


def _orbits(items: np.ndarray, images: np.ndarray, size: int, what: str) -> np.ndarray:
    """The orbits of the sorted distinct rows ``items`` from their (order, n, L)
    ``images`` under a group: per orbit, by first member, its members' indices
    in ascending order.  SizeMismatch names the first item whose orbit leaves
    ``items`` or does not hold ``size`` elements."""
    order, n, dim = images.shape
    reach = np.abs(items).max(axis=0, initial=0)
    table, (keys, inside) = _packed(items, reach)[0], _packed(images.reshape(-1, dim), reach)
    at = np.searchsorted(table, keys).clip(max=max(n - 1, 0))
    at = np.where(inside & (table.take(at) == keys), at, -1).reshape(order, n)
    members = np.sort(at, axis=0)
    count = 1 + (np.diff(members, axis=0) != 0).sum(axis=0)
    bad = (members[0] < 0) | (count != size)
    if bad.any():
        i = int(bad.argmax())
        x = tuple(items[i].tolist())
        if members[0, i] < 0:
            out = min(map(tuple, images[at[:, i] < 0, i].tolist()))
            raise SizeMismatch(f"{what} orbit of {x} leaves the {what} set at {out}: "
                               f"the set is not closed under the group of order {order}")
        raise SizeMismatch(f"{what} orbit of {x} has size {count[i]}, expected {size}")
    # An orbit's first member is the least image of each of its items, and
    # each member is the image of order/size elements (orbit-stabilizer).
    return members[:: order // size, np.unique(members[0])].T


def _check_group_lattice(sub: SimilarSublattice, group: SymmetryGroup) -> None:
    if group.lattice.name != sub.lattice.name:
        raise InvalidInput(f"a group of {group.lattice.name} cannot act on a {sub.lattice.name} design")


def _orbit_sets(sub: SimilarSublattice, base_endpoints, group: SymmetryGroup):
    """The first member of each orbit of the nonzero Voronoi points (each
    moves to the V0(0) point of its image's coset), and the sorted twists of
    each orbit of the base edge set's nonzero class keys.  The class orbits are
    cheap and fail when the full group does not fit the index: checked first."""
    _check_group_lattice(sub, group)
    m, dim = group.order, sub.dim
    reps = np.array([r for r in sub.voronoi_reps if any(r)], dtype=np.int64).reshape(-1, dim)
    ends = np.array(base_endpoints, dtype=np.int64).reshape(-1, dim)
    keys = np.unique(_class_keys(ends[ends.any(axis=1)]), axis=0)
    if 2 * len(keys) != len(reps):
        raise SizeMismatch(f"{len(reps)} points vs {len(keys)} edge classes")
    moved = _class_keys(_act(group, keys).reshape(-1, dim)).reshape(m, len(keys), dim)
    corbs = _orbits(keys, moved, m // 2, "edge class")
    moved = np.array(sub.coset_reps)[bulk_coset_index(sub, _act(group, reps).reshape(-1, dim))]
    porbs = _orbits(reps, moved.reshape(m, len(reps), dim), m, "Voronoi point")
    if len(porbs) != len(corbs):
        raise SizeMismatch(f"{len(porbs)} point orbits vs {len(corbs)} class orbits")
    return reps[porbs[:, 0]], keys[corbs]


def optimal_class_matching(sub: SimilarSublattice, base_endpoints, group: SymmetryGroup):
    """Minimum-cost pairing of coset orbits with edge-class orbits.

    The cost of matching the orbit of point p0 with the orbit of class k0 is
    ``order * min_g d_s(p0, alpha*(p0, [g k0]))`` -- the inner minimum ranges
    over the distinct classes of the orbit ("twists"), which preserves exact
    optimality of the reduced problem.  d_s(p, delta) is ||delta||^2 / 4, the
    same for every twist, plus the squared distance from p - delta/2 to the
    sublattice, which depends on delta only mod 2 Lambda'.  So class orbits
    whose twists have the same sublattice coordinates mod 2 form one type of
    columns equal up to a constant; ``min_cost_assignment`` routes point orbits
    to types (ties: first type of least distance, first row of least gain), and
    a type's point orbits take its class orbits in order, each anchored at its
    first minimal twist in sorted order.  Returns anchor pairs
    ``{point_orbit_rep: class_key}`` and the exact total cost.
    """
    pts, tw = _orbit_sets(sub, base_endpoints, group)
    m, dim = group.order, sub.dim
    # A type is the set of its twists' sublattice coordinates mod 2, each a
    # bit mask; types are numbered in class-orbit order.
    bits = tw @ np.array(sub.adjugate, dtype=np.int64).T // sub.index % 2 @ (1 << np.arange(dim))
    types = {}
    col_type = [types.setdefault(frozenset(b), len(types)) for b in bits.tolist()]
    _, firsts, caps = np.unique(col_type, return_index=True, return_counts=True)

    def ds2(orbit):  # 2L d_s of each point orbit p against the twists of class orbit orbit[p]
        lam = np.repeat(pts, m // 2, axis=0)
        return _relocate(sub, lam, tw[orbit].reshape(-1, dim))[1].reshape(-1, m // 2)
    # Costs are kept as integers 2L * m * d_s; every d_s has denominator 2L.
    # One relocation per type keeps the working arrays at one row per twist.
    reduced = m * np.array([ds2(np.full(len(pts), f)).min(axis=1) for f in firsts]).T
    row_type, _ = min_cost_assignment(reduced, caps)
    # Within each type, point orbits in order take class orbits in order.
    orbit = np.zeros(len(pts), dtype=np.intp)
    orbit[np.argsort(row_type, kind="stable")] = np.argsort(col_type, kind="stable")
    cost = ds2(orbit)
    anchor = tw[orbit, cost.argmin(axis=1)]
    anchors = dict(zip(map(tuple, pts.tolist()), map(tuple, anchor.tolist())))
    return anchors, Fraction(m * sum(cost.min(axis=1).tolist()), 2 * dim)


# ---------------------------------------------------------------------------
# the labeling object
# ---------------------------------------------------------------------------


@dataclass
class Labeling:
    """A complete labeling design: per-coset relocated edges plus the exact
    machinery to encode and decode arbitrary lattice points."""

    sub: SimilarSublattice
    group: SymmetryGroup
    table: dict  # V0(0) representative -> relocated undirected edge
    base_endpoints: list
    anchors: dict
    cost_total: Fraction
    rows: list = field(init=False)  # coset index -> Row
    class_table: dict = field(init=False)  # edge class key -> index of its first row

    def __post_init__(self):
        reps = self.sub.coset_reps
        self.rows = _table_rows(self.lattice, reps, [self.table[rep] for rep in reps])
        self.class_table = {}
        for i, row in enumerate(self.rows):
            self.class_table.setdefault(class_key(_sub(row.second, row.first)), i)

    # -- public accessors ------------------------------------------------------

    @property
    def lattice(self) -> Lattice:
        return self.sub.lattice

    @property
    def index(self) -> int:
        return self.sub.index

    def edge_lengths_sq(self):
        """Normalized squared lengths l^2(e) over all N table rows, exact."""
        lat = self.lattice
        return [Fraction(lat.qshell(_sub(e[1], e[0])), lat.dim) for e in self.table.values()]

    # -- encoding ----------------------------------------------------------------

    def encode(self, lam) -> DirectedEdge:
        """Directed label of a lattice point: the row of its coset shifted by
        vp = lam - rep, reversed where ``orientation_flip`` is 1.

        The color is evaluated on the shifted edge, so orientation alternates
        along lines of equivalent edges exactly as the balance rule requires.
        """
        lam = int_point(lam, self.sub.dim)
        row = self.rows[self.sub._coset_index(lam)]
        vp = _sub(lam, row.rep)
        a, b = _add(row.first, vp), _add(row.second, vp)
        if orientation_flip(row.phase, row.step, vp[row.axis]):
            return DirectedEdge(b, a)
        return DirectedEdge(a, b)

    def decode_both(self, de) -> tuple:
        """Invert ``encode``: (a, b) is the row's edge (first, second) + shift,
        forward or reversed, and labels rep + shift or its mirror."""
        try:
            a, b = de
        except (TypeError, ValueError):
            raise NotALabel(f"{de!r} is not a pair of points") from None
        a, b = int_point(a, self.sub.dim, NotALabel), int_point(b, self.sub.dim, NotALabel)
        diff = _sub(b, a)
        i = self.class_table.get(class_key(diff))
        if i is None:
            raise NotALabel(f"edge class {class_key(diff)} is not part of this design")
        row = self.rows[i]
        forward = diff == _sub(row.second, row.first)
        shift = _sub(a, row.first if forward else row.second)
        if self.sub._coset_index(shift):
            raise NotALabel(f"{DirectedEdge(a, b)} is not a shift of a design edge")
        cand = _add(row.rep, shift)
        if orientation_flip(row.phase, row.step, shift[row.axis]) != forward:
            return cand
        return _sub(_add(a, b), cand)

    # -- property verification ----------------------------------------------------

    def verify_properties(self) -> None:
        """Check Properties 1-3 exactly on the row table, each in a few array
        passes; raise PropertyCheckFailed naming the check and its first bad row."""
        from .codec import BulkEncoder  # codec imports this module

        lat, sub, n, rows = self.lattice, self.sub, self.index, self.rows
        enc = BulkEncoder(self)
        reps, first, second = enc.reps, enc.ends[:n], enc.ends[n:]

        def check(name, bad, detail):
            if bad.any():
                raise PropertyCheckFailed(name, detail(int(bad.argmax())))

        def same(x, y):
            return (x == y).all(axis=1)

        # Every row's edge class is a class of the base edge set.  Property 1
        # implies it; checked first, it bounds every coordinate formed below.
        base = np.array(self.base_endpoints, dtype=np.int64)
        reach = np.abs(base).max(axis=0)
        keys, inside = _packed(_class_keys(second - first), reach)
        bad = ~(inside & np.isin(keys, _packed(_class_keys(base), reach)[0]))
        check("reuse", bad, lambda i: f"{rows[i]}: its edge class is no base edge class")

        # Property 3 (+ pairwise balance): each positive-length edge labels two
        # points summing to the edge-endpoint sum, with opposite orientations.
        # Every row is canonical, and its stored direction follows direct_edge.
        e1, e2 = enc.encode(reps)[:2]
        d1, d2 = _directed(lat, first, second, reps)
        bad = (_lead(second - first) < 0) | ~same(e1, d1) | ~same(e2, d2)
        check("direction", bad, lambda i: f"rep {rows[i].rep} -> {rows[i]}")
        zero = same(first, second)
        bad = zero & ((first != 0) | (reps != 0)).any(axis=1)
        check("zero-edge", bad, lambda i: f"{rows[i]}")
        partner = first + second - reps
        p1, p2 = enc.encode(partner)[:2]
        bad = ~zero & ~(same(p1, first) & same(p2, second) | same(p1, second) & same(p2, first))
        check("midpoint-sum", bad, lambda i: f"{rows[i]} labels its rep but not {partner[i].tolist()}")
        bad = ~zero & ~same(partner, reps) & ~(same(p1, e2) & same(p2, e1))
        check("orientation-pairing", bad, lambda i: f"{rows[i]}: its partner "
              f"{partner[i].tolist()} gets ({p1[i].tolist()}, {p2[i].tolist()})")

        # Property 1: exactly N points use each sublattice point per channel.
        # By the shift property it suffices to check the vertex at the origin:
        # each base edge (0, p), (p, 0) and (0, 0) decodes to a point that it
        # labels.  encode is a function, so distinct labels have distinct
        # points, and each channel labels N points when the N base endpoints
        # are distinct.
        ends = base[base.any(axis=1)]
        o = np.zeros((len(base) - len(ends), lat.dim), dtype=np.int64)
        a, b = np.concatenate([0 * ends, ends, o]), np.concatenate([ends, 0 * ends, o])
        try:
            lam = enc.decode(a, b)
        except NotALabel as err:
            raise PropertyCheckFailed("reuse", f"a base edge at vertex 0 is no label: {err}") from None
        f1, f2 = enc.encode(lam)[:2]
        bad = ~same(f1, a) | ~same(f2, b)
        check("reuse", bad, lambda i: f"({a[i].tolist()}, {b[i].tolist()}) decodes to "
              f"{lam[i].tolist()}, encode mismatch")
        count = len(np.unique(base, axis=0))
        if count != n:
            raise PropertyCheckFailed("reuse", f"vertex 0 labels {count} points, expected N")

        # Property 2: shift covariance at every representative and each of the
        # L sublattice generators s: encode(rep + s) is the stored table's edge
        # of rep moved by s, directed by direct_edge.
        gens = np.tile(sub.gtilde.T, (n, 1))
        at = np.repeat(reps, lat.dim, axis=0)
        lam = at + gens
        edges = [self.table[rep] for rep in sub.coset_reps]
        t1, t2 = (np.repeat(_int_rows(e, 2**62), lat.dim, axis=0) + gens for e in zip(*edges))
        q1, q2 = enc.encode(lam)[:2]
        swap = (_lead(q2 - q1) < 0)[:, None]  # canonical_edge of the label
        c1, c2 = np.where(swap, q2, q1), np.where(swap, q1, q2)
        bad = ~same(c1, t1) | ~same(c2, t2)
        check("shift", bad, lambda i: f"lam={at[i].tolist()}, shift={gens[i].tolist()}")
        x1, x2 = _directed(lat, c1, c2, lam)
        bad = ~same(q1, x1) | ~same(q2, x2)
        check("direction", bad, lambda i: f"lam={at[i].tolist()}, shift={gens[i].tolist()}")

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        rows = [
            {"rep": list(rep), "edge": [list(e) for e in self.table[rep]]}
            for rep in sorted(self.table)
        ]
        return {
            "schema": 1,
            "lattice": self.lattice.name,
            "params": list(self.sub.params),
            "index": self.index,
            "group_order": self.group.order,
            "orbit_matching": [
                {"point": list(p), "class": list(k)} for p, k in sorted(self.anchors.items())
            ],
            "table": rows,
            "cost_summary": {
                "total": float(self.cost_total),
                "total_num": self.cost_total.numerator,
                "total_den": self.cost_total.denominator,
                "mean_excess": float(self.cost_total / self.index),
            },
        }


def _expand_anchors(sub: SimilarSublattice, group: SymmetryGroup, anchors):
    """Equivariant extension of per-orbit anchor pairs to the full table: the
    zero row, then the images of each anchor pair under every element."""
    _check_group_lattice(sub, group)

    def images(x):  # the zero row, then the images of each row of x in turn
        return np.concatenate([[(0,) * sub.dim], _act(group, x).swapaxes(0, 1).reshape(-1, sub.dim)])
    moved, delta = images(list(anchors)), _class_keys(images(list(anchors.values())))
    # alpha* commutes with the group action up to the coset shift, so
    # relocating for the reduced representatives is exact.
    reps = np.array(sub.coset_reps)[bulk_coset_index(sub, moved)]
    w, ds2 = _relocate(sub, reps, delta)
    table = {}
    for rep, a, b in zip(map(tuple, reps.tolist()), w.tolist(), (w + delta).tolist()):
        if rep in table:
            raise SizeMismatch(f"orbit expansion revisits representative {rep}")
        table[rep] = canonical_edge(tuple(a), tuple(b))
    return table, Fraction(sum(ds2.tolist()), 2 * sub.dim)


def build_labeling(
    sub: SimilarSublattice,
    group: SymmetryGroup | None = None,
    anchors: dict | None = None,
    check: bool = True,
) -> Labeling:
    """Construct the labeling for a sublattice design.

    With no explicit ``group`` the full symmetry group is used where it
    normalizes the sublattice and both orbit sets close under it with equal
    counts (orbit sizes are index dependent), else the always-valid {I, -I};
    with no explicit ``anchors`` the optimal group-reduced matching is solved.
    Properties 1-3 are verified before returning unless ``check=False``.
    """
    if sub.index % 2 == 0:
        raise InadmissibleIndex(
            f"labeling requires an odd index (got N={sub.index}); even indices "
            "put points on coset boundaries and break the pairing structure"
        )
    endpoints = base_edge_set(sub)  # negation closed, or AsymmetricEdgeSet
    if group is None:
        try:
            group = group_for(sub.lattice, sub)
            _orbit_sets(sub, endpoints, group)
        except (GroupPropertyViolation, SizeMismatch):
            group = minus_identity_group(sub.lattice)
    if anchors is None:
        anchors, _ = optimal_class_matching(sub, endpoints, group)
    else:
        anchors = {int_point(p, sub.dim): class_key(int_point(k, sub.dim)) for p, k in anchors.items()}
    table, cost = _expand_anchors(sub, group, anchors)
    if len(table) != sub.index:
        raise SizeMismatch(f"table has {len(table)} rows, expected {sub.index}")
    lab = Labeling(sub, group, table, endpoints, anchors, cost)
    if check:
        lab.verify_properties()
    return lab


def _is_int(x) -> bool:
    return type(x) is int  # JSON true and 2.0 are not integers here


def labeling_from_dict(data: dict) -> Labeling:
    """Rebuild a labeling from its serialized design file (and re-verify).

    Every orbit-matching point is a coset representative, each point and
    table rep appears once, and the stored orbit matching and table equal
    those of the rebuild."""
    from .sublattices import design_sublattice

    if not isinstance(data, dict) or data.get("schema") != 1:
        schema = data.get("schema") if isinstance(data, dict) else None
        raise InvalidInput(f"unsupported design schema {schema!r}")
    try:
        lat_name, index, params = data["lattice"], data["index"], data["params"]
        group_order, matching, rows = data["group_order"], data["orbit_matching"], data["table"]
    except KeyError as err:
        raise InvalidInput(f"malformed design file: KeyError {err}") from None
    if not (
        isinstance(lat_name, str)
        and _is_int(index)
        and _is_int(group_order)
        and isinstance(params, list)
        and all(map(_is_int, params))
    ):
        raise InvalidInput(
            "malformed design file: lattice must be a name, index, group_order and params integers"
        )
    dim = get_lattice(lat_name).dim

    def point(v):
        if not (isinstance(v, list) and len(v) == dim and all(map(_is_int, v))):
            raise InvalidInput(f"malformed design file: {v!r} is not a point of {lat_name}")
        return tuple(v)

    try:
        anchors = {point(r["point"]): point(r["class"]) for r in matching}
        stored = {point(r["rep"]): tuple(map(point, r["edge"])) for r in rows}
    except (KeyError, TypeError) as err:
        raise InvalidInput(f"malformed design file: {type(err).__name__} {err}") from None
    # A dict keeps the last copy of a key, so a duplicate would go unchecked.
    if len(anchors) != len(matching) or len(stored) != len(rows):
        raise InvalidInput("malformed design file: an orbit_matching point or table rep repeats")
    sub = design_sublattice(lat_name, index=index, params=params)
    off = sorted(set(anchors) - set(sub.voronoi_reps))
    if off:
        raise InvalidInput(
            f"malformed design file: orbit_matching point {off[0]} is not a coset representative"
        )
    groups = [minus_identity_group(sub.lattice)]  # and first the full group if it normalizes sub
    with contextlib.suppress(GroupPropertyViolation):
        groups.insert(0, group_for(sub.lattice, sub))
    group = next((g for g in groups if g.order == group_order), None)
    if group is None:
        orders = [g.order for g in groups]
        raise InvalidInput(f"group_order {group_order} is none of this design's groups {orders}")
    lab = build_labeling(sub, group=group, anchors=anchors)
    if stored != lab.table or anchors != lab.anchors:
        raise PropertyCheckFailed(
            "serialization", "stored orbit matching or table does not match the rebuild"
        )
    return lab
