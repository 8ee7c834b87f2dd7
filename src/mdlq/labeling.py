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
                            tie goes to the first candidate in order.
4. color / direction rules -- turn the undirected label into a directed one
                            so the two channels stay balanced.

A finished ``Labeling`` keeps one row table in coset-index order: each
``Row`` holds a V0(0) representative, its relocated edge and its direction,
and ``class_table`` maps each edge class to a row index.  ``encode`` shifts
the row of the point's coset index, ``decode_both`` the row of the label's
class by the shift taken at the label's first endpoint; both evaluate one
parity, ``orientation_flip``, which the bulk encoder applies to the same
table as arrays; ``verify_properties`` checks every row against ``direct_edge``.
"""

from __future__ import annotations

import itertools
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
from .sublattices import SimilarSublattice, _imatvec, bulk_coset_index, bulk_nearest2
from .symmetry import SymmetryGroup, group_for, minus_identity_group


# Voronoi representatives on which verify_properties checks shift covariance.
_SHIFT_SAMPLES = 8


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


def color(lat: Lattice, edge) -> int:
    """Parity bit of an edge; alternates along any line of shifted copies.

    For endpoints p, q and the first coordinate j with q_j != p_j the color
    is floor((p_j + q_j) / (2*|q_j - p_j|)) mod 2.  Orientation independent.
    """
    p, q = edge
    for j in range(lat.dim):
        d = abs(q[j] - p[j])
        if d:
            return ((p[j] + q[j]) // (2 * d)) % 2
    raise ZeroEdge("color is undefined for the zero-length edge")


def _orientation_sign(lat: Lattice, edge, lam) -> int:
    """Sign of <a - b, lam - mu> with the deterministic boundary rule.

    ``edge`` must already be in canonical endpoint order.  On the tie
    hyperplane the sign of the first nonzero coordinate of lam - mu decides;
    a zero vector (point at the midpoint) returns 0.
    """
    a, b = edge
    d = _sub(a, b)
    w2 = tuple(2 * x - y - z for x, y, z in zip(lam, a, b))
    s = lat.inner2(d, w2)
    if s:
        return 1 if s > 0 else -1
    for x in w2:
        if x:
            return 1 if x > 0 else -1
    return 0


def direct_edge(lat: Lattice, edge, lam) -> DirectedEdge:
    """Orient an undirected label for the point it labels.

    Color 0 sends the endpoint nearer to ``lam`` on channel 1, color 1 sends
    it on channel 2.  A point exactly at the midpoint gets the canonical
    orientation.
    """
    a, b = canonical_edge(*edge)
    if a == b:
        return DirectedEdge(a, b)
    s = _orientation_sign(lat, (a, b), lam)
    if s == 0:
        return DirectedEdge(a, b)
    # s > 0 means lam is nearer to a.
    if (s > 0) == (color(lat, (a, b)) == 0):
        return DirectedEdge(a, b)
    return DirectedEdge(b, a)


# A table row: rep + vp (vp a sublattice point) is labeled (first + vp,
# second + vp), reversed where orientation_flip(phase, step, vp[axis]) is 1.
Row = namedtuple("Row", "rep first second axis step phase")


def orientation_flip(phase, step, shift):
    """The one shift-dependent bit of a label, for Python ints and int64 arrays."""
    return (phase + 2 * shift) // step & 1


def _row(lat: Lattice, rep, edge) -> Row:
    """Row of the canonical edge (a, b) relocated for ``rep``: a shift by vp
    moves only the color floor((a_j + b_j + 2 vp_j) / step) mod 2, and the edge
    is reversed where it differs from the sign bit (1 if rep is nearer to b).
    At odd N only the zero row has rep at its midpoint; step 1 never reverses it."""
    a, b = edge
    if a == b:
        return Row(rep, a, b, 0, 1, 0)
    j = next(i for i in range(lat.dim) if a[i] != b[i])
    step = 2 * abs(b[j] - a[j])
    phase = a[j] + b[j] + (step if _orientation_sign(lat, edge, rep) < 0 else 0)
    return Row(rep, a, b, j, step, phase)


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
    while len(ball := list(lat.points_in_shell_ball(budget))) < n:
        budget *= 2
    norms = lat.norms(ball).tolist()
    kmax = sorted(norms)[n - 1]
    full = [u for u, q in zip(ball, norms) if q < kmax]
    last = [u for u, q in zip(ball, norms) if q == kmax]
    need = n - len(full)
    if need == len(last):
        chosen = last
    else:
        if need % 2:
            raise AsymmetricEdgeSet(f"{need} slots remain in shell {kmax}; cannot keep +- pairs")
        order = sorted({min(u, _neg(u)) for u in last}, key=sub.from_sub_coords)
        chosen = [v for u in order[: need // 2] for v in (u, _neg(u))]
    return sorted(sub.from_sub_coords(u) for u in full + chosen)


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


def _orbit_reps(group: SymmetryGroup, items, act, size: int, what: str):
    """Lexicographically first element of each orbit of ``items`` under
    ``act(g, x)``; every orbit must stay inside ``items`` and hold ``size``
    elements, otherwise SizeMismatch names the condition that failed."""
    remaining = set(items)
    reps = []
    for x in sorted(items):
        if x not in remaining:
            continue
        orb = {act(g, x) for g in group.elements}
        outside = sorted(orb - remaining)
        if outside:
            raise SizeMismatch(
                f"{what} orbit of {x} leaves the {what} set at {outside[0]}: "
                f"the set is not closed under the group of order {group.order}"
            )
        if len(orb) != size:
            raise SizeMismatch(f"{what} orbit of {x} has size {len(orb)}, expected {size}")
        remaining -= orb
        reps.append(x)
    return reps


def _coset_orbits(sub: SimilarSublattice, group: SymmetryGroup, reps):
    """Orbits of the nonzero Voronoi representatives under the group action
    on cosets (apply the matrix, then take the V0(0) point of the image's
    coset); every image is indexed in one bulk call."""
    pts = np.array(reps, dtype=np.int64).reshape(-1, sub.dim)
    moved = (pts @ np.array(group.elements).transpose(0, 2, 1)).reshape(-1, sub.dim)
    images = map(sub.coset_reps.__getitem__, bulk_coset_index(sub, moved).tolist())
    act = dict(zip(itertools.product(group.elements, reps), images))
    return _orbit_reps(group, reps, lambda g, r: act[g, r], group.order, "Voronoi point")


def _class_orbits(group: SymmetryGroup, keys):
    """Orbits of canonical class keys; each orbit holds order/2 classes."""
    return _orbit_reps(
        group, keys, lambda g, k: class_key(_imatvec(g, k)), group.order // 2, "edge class"
    )


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
    reps = [r for r in sub.voronoi_reps if any(r)]
    keys = sorted({class_key(p) for p in base_endpoints if any(p)})
    if 2 * len(keys) != len(reps):
        raise SizeMismatch(f"{len(reps)} points vs {len(keys)} edge classes")
    # The class orbits are cheap and are the ones that fail when the full
    # group does not fit the index, so they are checked first.
    corbs = _class_orbits(group, keys)
    porbs = _coset_orbits(sub, group, reps)
    if len(porbs) != len(corbs):
        raise SizeMismatch(f"{len(porbs)} point orbits vs {len(corbs)} class orbits")
    m, dim = group.order, sub.dim
    twists = [sorted({class_key(_imatvec(g, k0)) for g in group.elements}) for k0 in corbs]
    mod2 = [frozenset(tuple(x // sub.index % 2 for x in _imatvec(sub.adjugate, k)) for k in ks)
            for ks in twists]
    types = {}
    col_type = [types.setdefault(key, len(types)) for key in mod2]  # numbered in class-orbit order
    _, firsts, caps = np.unique(col_type, return_index=True, return_counts=True)
    tw = np.array(twists, dtype=np.int64).reshape(len(corbs), m // 2, dim)
    pts = np.array(porbs, dtype=np.int64).reshape(-1, dim)

    def ds2(orbit):  # 2L d_s of each point orbit p against the twists of class orbit orbit[p]
        lam = np.repeat(pts, m // 2, axis=0)
        return _relocate(sub, lam, tw[orbit].reshape(-1, dim))[1].reshape(-1, m // 2)
    # Costs are kept as integers 2L * m * d_s; every d_s has denominator 2L.
    # One relocation per type keeps the working arrays at one row per twist.
    reduced = m * np.array([ds2(np.full(len(porbs), f)).min(axis=1) for f in firsts]).T
    row_type, _ = min_cost_assignment(reduced, caps)
    # Within each type, point orbits in order take class orbits in order.
    orbit = np.zeros(len(porbs), dtype=np.intp)
    orbit[np.argsort(row_type, kind="stable")] = np.argsort(col_type, kind="stable")
    cost = ds2(orbit)
    anchors = {p0: twists[c][i] for p0, c, i in zip(porbs, orbit, cost.argmin(axis=1).tolist())}
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
        self.rows = [_row(self.lattice, rep, self.table[rep]) for rep in self.sub.coset_reps]
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

    def alpha_u(self, lam):
        """Undirected label of an arbitrary lattice point (shift extension);
        ``coset_reduce`` checks ``lam``."""
        vp, rep = self.sub.coset_reduce(lam)
        a, b = self.table[rep]
        return (_add(a, vp), _add(b, vp))

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
        """Check Properties 1-3 exactly; raise PropertyCheckFailed on violation."""
        lat = self.lattice
        sub = self.sub
        zero = (0,) * lat.dim

        # Property 3 (+ pairwise balance): each positive-length edge labels two
        # points summing to the edge-endpoint sum, with opposite orientations.
        # Every row is canonical, and its stored direction follows direct_edge.
        for row in self.rows:
            rep, edge = row.rep, (row.first, row.second)
            de_a = self.encode(rep)
            if edge != canonical_edge(*edge) or de_a != direct_edge(lat, edge, rep):
                raise PropertyCheckFailed("direction", f"rep {rep} -> {row}")
            if edge[0] == edge[1]:
                if edge[0] != zero or rep != zero:
                    raise PropertyCheckFailed("zero-edge", f"rep {rep} -> {edge}")
                continue
            partner = _sub(_add(edge[0], edge[1]), rep)
            de_b = self.encode(partner)
            if canonical_edge(*de_b) != edge:
                raise PropertyCheckFailed(
                    "midpoint-sum", f"edge {edge} labels {rep} but not {partner}"
                )
            if partner != rep and de_b != de_a.reversed():
                raise PropertyCheckFailed(
                    "orientation-pairing", f"{rep}:{de_a} vs {partner}:{de_b}"
                )

        # Property 1: exactly N points use each sublattice point per channel.
        # By the shift property it suffices to check the vertex at the origin.
        firsts = set()
        seconds = set()
        for p in self.base_endpoints:
            for de in (
                [DirectedEdge(zero, zero)]
                if p == zero
                else [DirectedEdge(zero, p), DirectedEdge(p, zero)]
            ):
                lam = self.decode_both(de)
                if self.encode(lam) != de:
                    raise PropertyCheckFailed("reuse", f"{de} decodes to {lam}, encode mismatch")
                if de.first == zero:
                    firsts.add(lam)
                if de.second == zero:
                    seconds.add(lam)
        if len(firsts) != self.index or len(seconds) != self.index:
            raise PropertyCheckFailed(
                "reuse", f"vertex 0 labels {len(firsts)}/{len(seconds)} points, expected N"
            )

        # Property 2: shift covariance on a deterministic sample.  Every row
        # is canonical by now, so the undirected label is that of the encoding.
        gens = [sub.from_sub_coords(u) for u in _unit_vectors(lat.dim)]
        reps = list(sub.voronoi_reps)
        for i in range(min(_SHIFT_SAMPLES, len(reps))):
            lam = reps[(i * 7919) % len(reps)]
            rhs = self.alpha_u(lam)
            for s in gens:
                de = self.encode(_add(lam, s))
                lhs = canonical_edge(*de)
                if lhs != (_add(rhs[0], s), _add(rhs[1], s)):
                    raise PropertyCheckFailed("shift", f"lam={lam}, shift={s}")
                if de != direct_edge(lat, lhs, _add(lam, s)):
                    raise PropertyCheckFailed("direction", f"lam={lam}, shift={s}")

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


def _unit_vectors(dim):
    return [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]


def _expand_anchors(sub: SimilarSublattice, group: SymmetryGroup, anchors):
    """Equivariant extension of per-orbit anchor pairs to the full table."""
    zero = (0,) * sub.dim
    moved, keys = [zero], [zero]
    for p0, k0 in anchors.items():
        for g in group.elements:
            moved.append(_imatvec(g, p0))
            keys.append(class_key(_imatvec(g, k0)))
    # alpha* commutes with the group action up to the coset shift, so
    # relocating for the reduced representatives is exact.
    reps = np.array(sub.coset_reps)[bulk_coset_index(sub, np.array(moved))]
    delta = np.array(keys)
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

    With no explicit ``anchors`` the optimal group-reduced matching is
    solved; the full symmetry group is tried first and the always-valid
    {I, -I} group is used when the requested index breaks an orbit
    (orbit sizes are index dependent).  Properties 1-3 are verified before
    returning unless ``check=False``.
    """
    if sub.index % 2 == 0:
        raise InadmissibleIndex(
            f"labeling requires an odd index (got N={sub.index}); even indices "
            "put points on coset boundaries and break the pairing structure"
        )
    endpoints = base_edge_set(sub)
    if sub.index > 1:
        # Negation closure of the edge set (positive-length classes in pairs).
        eps = set(endpoints)
        if any(_neg(p) not in eps for p in endpoints):
            raise AsymmetricEdgeSet("edge set is not negation closed")

    last_err = None
    for g in [group] if group is not None else _candidate_groups(sub):
        try:
            if anchors is None:
                found, _ = optimal_class_matching(sub, endpoints, g)
            else:
                found = {
                    int_point(p, sub.dim): class_key(int_point(k, sub.dim))
                    for p, k in anchors.items()
                }
            table, cost = _expand_anchors(sub, g, found)
            if len(table) != sub.index:
                raise SizeMismatch(f"table has {len(table)} rows, expected {sub.index}")
            lab = Labeling(sub, g, table, endpoints, found, cost)
            if check:
                lab.verify_properties()
            return lab
        except SizeMismatch as err:
            last_err = err
            if anchors is not None:
                break
            continue
    raise last_err


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
    groups = _candidate_groups(sub)
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


def _candidate_groups(sub: SimilarSublattice):
    """The full symmetry group if it normalizes ``sub``, then always {I, -I}."""
    fallback = minus_identity_group(sub.lattice)
    try:
        return [group_for(sub.lattice, sub), fallback]
    except GroupPropertyViolation:
        return [fallback]
