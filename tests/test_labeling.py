import dataclasses
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mdlq.errors import (
    AsymmetricEdgeSet,
    InadmissibleIndex,
    InvalidInput,
    NotALabel,
    PropertyCheckFailed,
    SizeMismatch,
    ZeroEdge,
)
from mdlq.evaluation import edge_histogram
from mdlq.labeling import (
    DirectedEdge,
    Labeling,
    _coset_orbits,
    _neg,
    _relocate,
    _table_rows,
    base_edge_set,
    build_labeling,
    canonical_edge,
    class_key,
    color,
    direct_edge,
    labeling_from_dict,
    optimal_class_matching,
    orientation_flip,
)
from mdlq.lattices import get_lattice
from mdlq.sublattices import build_sublattice, design_sublattice
from mdlq.symmetry import group_for, minus_identity_group

from .conftest import design
from .reference_design import (
    HAND_COST_A2_31,
    alpha_u,
    brute_force_min_cost,
    closest_edge_in_class,
    ds_cost,
    hand_labeling_a2_31,
    scalar_color,
    scalar_direct_edge,
    scalar_row,
    scalar_verify_properties,
)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


# -- coloring rule ---------------------------------------------------------------


def test_color_worked_examples(a2):
    assert color(a2, ((1, 6), (4, -7))) == 0  # {C, L}: floor(5/6) even
    assert color(a2, ((17, 9), (23, 14))) == 1  # floor(40/12) = 3 odd
    assert color(a2, ((23, 14), (17, 9))) == 1  # orientation independent


def test_color_z2_translate_alternates(z2):
    assert color(z2, ((0, 0), (2, 1))) == 0  # floor(2/4) = 0
    assert color(z2, ((2, 1), (4, 2))) == 1  # floor(6/4) = 1


def test_color_zero_edge_raises(a2):
    with pytest.raises(ZeroEdge):
        color(a2, ((3, 1), (3, 1)))


def test_color_second_coordinate_rule(z2):
    # Delta_1 = 0 falls through to the second coordinate.
    assert color(z2, ((1, 0), (1, 4))) == 0  # floor(4/8) = 0
    assert color(z2, ((1, 4), (1, 8))) == 1  # floor(12/8) = 1


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13)])
def test_color_alternates_along_lines(name, n):
    lab = design(name, n)
    lat = lab.lattice
    for rep in list(lab.table)[:12]:
        e = lab.table[rep]
        if e[0] == e[1]:
            continue
        delta = _sub(e[1], e[0])
        cols = [
            color(lat, (_add(e[0], tuple(k * d for d in delta)), _add(e[1], tuple(k * d for d in delta))))
            for k in range(4)
        ]
        assert cols == [cols[0], 1 - cols[0], cols[0], 1 - cols[0]]


# -- direction and point-selection rules -------------------------------------------


def test_direct_edge_worked_examples(a2):
    hand = hand_labeling_a2_31()
    # ac = 1 - 2w carries {C, L}; L = 4 - 7w is nearer, color 0 -> (L, C).
    assert hand.encode((1, -2)) == DirectedEdge((4, -7), (1, 6))
    # 18 + 10w: color 1, nearer endpoint 17+9w goes to channel 2.
    assert hand.encode((18, 10)) == DirectedEdge((23, 14), (17, 9))


def test_direct_edge_zero_edge(a2):
    assert direct_edge(a2, ((3, 1), (3, 1)), (3, 1)) == DirectedEdge((3, 1), (3, 1))


def test_direct_edge_and_color_check_their_inputs(a2):
    """An edge is two points and a point is two integers; anything else
    raises InvalidInput naming the vector as passed, and the zero edge has
    no color."""
    with pytest.raises(InvalidInput, match=r"^\(1,\) has 1 coordinates, expected 2$"):
        color(a2, ((1,), (2, 3)))
    with pytest.raises(InvalidInput, match=r"^\(1\.5, 0\) is not a vector of integers$"):
        color(a2, ((1.5, 0), (0, 0)))
    with pytest.raises(InvalidInput, match="^1 is not a vector of integers$"):
        direct_edge(a2, (1, 2), (0, 0))
    with pytest.raises(InvalidInput, match=r"^\('a', 0\) is not a vector of integers$"):
        direct_edge(a2, ((0, 0), (1, 0)), ("a", 0))
    with pytest.raises(InvalidInput, match=r"^\(1, 'a'\) is not a vector of integers$"):
        direct_edge(a2, ((1, "a"), (1, 0)), (0, 0))
    with pytest.raises(InvalidInput, match="^5 is not a pair of points$"):
        color(a2, 5)
    with pytest.raises(ZeroEdge):
        color(a2, ((3, 1), (3, 1)))


_RULE_COORD = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**60, 2**62, 2**63 - 1, 2**63]).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def _rule_case(draw, lat):
    """An edge, in either endpoint order, and a point: free, on the tie
    hyperplane of the edge, at its midpoint, or with a zero edge."""
    dim = lat.dim
    point = st.tuples(*[_RULE_COORD] * dim)
    lam, e = draw(point), draw(point)
    kind = draw(st.sampled_from(["free", "tie", "midpoint", "zero"]))
    if kind == "free":
        a, b = e, draw(point)
    elif kind == "zero":
        a = b = e
    else:  # a = lam - e - v, b = lam + e - v: lam - mu = v, orthogonal to a - b = -2e
        v = (0,) * dim
        if kind == "tie" and dim > 1:
            g = [sum(map(int.__mul__, row, e)) for row in lat.gram2_rows]
            i, j = draw(st.permutations(range(dim)))[:2]
            k = draw(st.integers(-3, 3))
            v = tuple(k * (g[j] if t == i else -g[i] if t == j else 0) for t in range(dim))
        a, b = _sub(_sub(lam, e), v), _sub(_add(lam, e), v)
    return ((b, a) if draw(st.booleans()) else (a, b)), lam


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["Z1", "Z2", "A2", "Z4", "Z8"]), data=st.data())
def test_direction_rule_matches_the_scalar_oracle(name, data):
    """``direct_edge``, ``color`` and the row build agree with the scalar
    rules of the reference, in int64 and on Python ints past 2^63."""
    lat = get_lattice(name)
    cases = data.draw(st.lists(_rule_case(lat), min_size=1, max_size=6))
    for edge, lam in cases:
        assert direct_edge(lat, edge, lam) == scalar_direct_edge(lat, edge, lam)
        if edge[0] == edge[1]:
            with pytest.raises(ZeroEdge):
                color(lat, edge)
        else:
            assert color(lat, edge) == scalar_color(lat, edge)
    rows = _table_rows(lat, [lam for _, lam in cases], [edge for edge, _ in cases])
    assert rows == [scalar_row(lat, lam, edge) for edge, lam in cases]
    assert all(type(x) is int for row in rows for x in row[3:])


def test_direction_rule_matches_the_scalar_oracle_at_the_int64_edges():
    """Every edge and point with coordinates at the limits of the int64 path,
    where a sum formed in int64 would wrap, one row at a time."""
    edges = [2**60, 2**61, 2**62, 2**63 - 1]
    for name, values in [("Z1", [0, 1, *edges, *(-x for x in edges), -(2**63)]),
                         ("A2", [0, 2**62, -(2**62), 2**63 - 1])]:
        lat = get_lattice(name)
        for a, b, lam in itertools.product(itertools.product(values, repeat=lat.dim), repeat=3):
            assert direct_edge(lat, (a, b), lam) == scalar_direct_edge(lat, (a, b), lam)
            assert _table_rows(lat, [lam], [(a, b)]) == [scalar_row(lat, lam, (a, b))]
            if a != b:
                assert color(lat, (a, b)) == scalar_color(lat, (a, b))


def test_select_point_worked_example():
    hand = hand_labeling_a2_31()
    de = DirectedEdge((23, 14), (17, 9))
    assert hand.decode_both(de) == (18, 10)
    # The other orientation labels the mirror point 2*mu - (18, 10).
    assert hand.decode_both(de.reversed()) == (22, 13)


def test_reverse_orientation_labels_neighbor_cell():
    # The other orientation of {C, L} labels 2*mu - ac = 4 + w, which lives
    # in the Voronoi set of the sublattice point A = 5 - w.
    hand = hand_labeling_a2_31()
    other = hand.decode_both(DirectedEdge((1, 6), (4, -7)))
    assert other == (4, 1)
    vp, _ = hand.sub.coset_reduce(other)
    assert vp == (5, -1)
    assert hand.encode(other) == DirectedEdge((1, 6), (4, -7))


def test_select_point_degenerate():
    # A zero edge at a sublattice point labels that point.
    hand = hand_labeling_a2_31()
    assert hand.decode_both(DirectedEdge((5, -1), (5, -1))) == (5, -1)


def test_select_point_inverts_direction_rule(lab31):
    lat = lab31.lattice
    for rep, e in lab31.table.items():
        de = direct_edge(lat, e, rep)
        assert lab31.decode_both(de) == rep
        if e[0] != e[1]:
            assert lab31.decode_both(de.reversed()) == _sub(_add(e[0], e[1]), rep)


# -- base edge set ------------------------------------------------------------------


def test_base_edge_set_a2_31(lab31):
    endpoints = base_edge_set(lab31.sub)
    assert len(endpoints) == 31
    assert edge_histogram(lab31)["B"] == {0: 1, 1: 6, 3: 6, 4: 6, 7: 12}
    eps = set(endpoints)
    assert all(_neg(p) in eps for p in endpoints)


def test_base_edge_set_n1():
    assert base_edge_set(design_sublattice("A2", 1)) == [(0, 0)]
    assert edge_histogram(design("A2", 1))["B"] == {0: 1}


def test_base_edge_set_z2_5():
    sub = design_sublattice("Z2", 5)
    endpoints = base_edge_set(sub)
    nonzero = [p for p in endpoints if any(p)]
    assert len(nonzero) == 4
    assert all(sub.lattice.qshell(p) == 5 for p in nonzero)


def test_base_edge_set_partial_shell_keeps_pairs():
    sub = design_sublattice("Z8", 81)
    endpoints = base_edge_set(sub)
    assert len(endpoints) == 81
    hist = edge_histogram(design("Z8", 81))
    assert hist["K"] == 2 and hist["B"][2] == 64  # 64 of the 112 shell-2 points
    eps = set(endpoints)
    assert all(_neg(p) in eps for p in endpoints)


@pytest.mark.parametrize("n", [8195, 10001])
def test_base_edge_set_large_z1_is_the_closed_form(n):
    # The ball of the N shortest vectors spans norms up to ((N - 1) / 2)^2.
    m = (n - 1) // 2
    assert base_edge_set(design_sublattice("Z1", n)) == [(n * u,) for u in range(-m, m + 1)]


def test_base_edge_set_odd_leftover_raises():
    # Even index: shell 1 offers 6 points but only 3 slots remain.
    sub = build_sublattice(get_lattice("A2"), (2, 0))
    with pytest.raises(AsymmetricEdgeSet):
        base_edge_set(sub)


# -- alpha* (closest edge in class) --------------------------------------------------


def test_closest_edge_worked_example():
    sub = design_sublattice("A2", 31, params=(5, -1))
    # Class of {C, L} has difference +-(3, -13); relocated for ac = 1 - 2w the
    # midpoint is 5/2 - w/2, i.e. the edge {1+6w, 4-7w} itself.
    edge = closest_edge_in_class(sub, (1, -2), (3, -13))
    assert edge == ((1, 6), (4, -7))
    # The class representative sign does not matter.
    assert closest_edge_in_class(sub, (1, -2), (-3, 13)) == edge


def test_closest_edge_at_origin(lab31):
    sub = lab31.sub
    for p in lab31.base_endpoints:
        if not any(p):
            continue
        e = closest_edge_in_class(sub, (0, 0), p)
        mid2 = _add(e[0], e[1])
        # No strictly closer shift of the same class exists.
        assert sub.lattice.qshell(mid2) <= sub.lattice.qshell(_sub(mid2, tuple(2 * x for x in p)))


def test_closest_edge_z2_brute():
    sub = design_sublattice("Z2", 5)
    lat = sub.lattice
    delta = (2, 1)
    lam = (1, 0)
    got = closest_edge_in_class(sub, lam, delta)
    # Brute force over nearby shifts of the class.
    best = None
    for i in range(-3, 4):
        for j in range(-3, 4):
            w = sub.from_sub_coords((i, j))
            e = canonical_edge(w, _add(w, delta))
            key = (ds_cost(lat, lam, e), e)
            if best is None or key < best:
                best = key
    assert got == best[1]


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z1", 7)])
def test_relocate_matches_scalar_oracle(name, n):
    sub = design_sublattice(name, n)
    lat = sub.lattice
    keys = sorted({class_key(p) for p in base_edge_set(sub)})  # the zero class too
    for lam in sub.voronoi_reps:
        w, ds2 = _relocate(sub, np.array([lam]), np.array(keys))
        for k, wk, q in zip(keys, map(tuple, w.tolist()), ds2.tolist()):
            e = closest_edge_in_class(sub, lam, k)
            assert canonical_edge(wk, _add(wk, k)) == e
            assert q == 2 * lat.dim * ds_cost(lat, lam, e)


def test_parallelogram_identity(lab31):
    # 2 d_s = l^2/2 + 2 r^2, exactly, for every table row.
    lat = lab31.lattice
    for rep, e in lab31.table.items():
        l2 = Fraction(lat.qshell(_sub(e[1], e[0])), lat.dim)
        mid2 = _add(e[0], e[1])
        r2 = Fraction(lat.qshell(_sub(tuple(2 * x for x in rep), mid2)), 4 * lat.dim)
        assert 2 * ds_cost(lat, rep, e) == Fraction(1, 2) * l2 + 2 * r2


# -- optimal matching -----------------------------------------------------------------


def test_matching_n1_trivial():
    lab = design("A2", 1)
    assert lab.table == {(0, 0): ((0, 0), (0, 0))}
    assert lab.cost_total == 0


def test_optimal_cost_equals_brute_force_small():
    for name, n in [("Z1", 3), ("Z1", 5), ("Z1", 7), ("A2", 7)]:
        lab = design(name, n)
        assert lab.cost_total == brute_force_min_cost(lab.sub)


def test_optimal_beats_hand_assignment():
    lab = design("A2", 31, params=(5, -1))
    assert lab.cost_total <= HAND_COST_A2_31
    assert lab.cost_total == 528  # frozen exact optimum


@pytest.mark.parametrize("name,n", [("A2", 31), ("A2", 49), ("Z2", 25), ("Z4", 9)])
def test_group_reduction_matches_full_assignment(name, n):
    # Independent oracle: the unreduced pair<->class problem solved by scipy.
    sub = design_sublattice(name, n, params=(5, -1) if (name, n) == ("A2", 31) else None)
    lat = sub.lattice
    endpoints = base_edge_set(sub)
    reps = [r for r in sub.voronoi_reps if any(r)]
    porbs = _coset_orbits(sub, minus_identity_group(lat), reps)
    keys = sorted({class_key(p) for p in endpoints if any(p)})
    cost = np.array(
        [
            [float(2 * ds_cost(lat, p, closest_edge_in_class(sub, p, k))) for k in keys]
            for p in porbs
        ]
    )
    ri, ci = linear_sum_assignment(cost)
    lab = design(name, n, params=(5, -1) if (name, n) == ("A2", 31) else None)
    assert float(lab.cost_total) == pytest.approx(cost[ri, ci].sum(), abs=1e-9)


def test_matching_anchor_classes_cover_orbits(lab31):
    g = group_for(lab31.lattice, lab31.sub)
    anchors, total = optimal_class_matching(lab31.sub, lab31.base_endpoints, g)
    assert len(anchors) == (31 - 1) // g.order
    assert total == lab31.cost_total


@pytest.mark.parametrize("name,n", [("Z2", 41), ("A2", 49)])
def test_full_group_failure_names_the_open_edge_set(name, n):
    # These indices fall back to {I, -I}; the error says why the full group failed.
    sub = design_sublattice(name, n)
    with pytest.raises(SizeMismatch, match=r"leaves the edge class set at .* not closed under"):
        build_labeling(sub, group=group_for(sub.lattice, sub))


# -- build, properties, round trips -----------------------------------------------------


def test_build_rejects_even_index():
    sub = build_sublattice(get_lattice("A2"), (2, 0))
    with pytest.raises(InadmissibleIndex):
        build_labeling(sub)


def test_table_rows_and_classes(lab31):
    assert len(lab31.table) == 31
    # Every nonzero class is used exactly twice; the zero edge once.
    cnt = Counter(class_key(_sub(e[1], e[0])) for e in lab31.table.values())
    zero = (0, 0)
    assert cnt[zero] == 1
    assert all(v == 2 for k, v in cnt.items() if k != zero)


def test_round_trip_region(lab31):
    rng = np.random.default_rng(2)
    for lam in rng.integers(-60, 60, size=(2000, 2)):
        lam = tuple(int(x) for x in lam)
        de = lab31.encode(lam)
        assert lab31.decode_both(de) == lam


def test_exhaustive_round_trip_and_reuse_one_period():
    # Every lattice point of a full 3x3-period block round-trips, and every
    # interior sublattice point is used exactly N times per channel.
    lab = design("A2", 13)
    sub = lab.sub
    c1 = Counter()
    pts = []
    for rep in sub.voronoi_reps:
        for i in range(-1, 2):
            for j in range(-1, 2):
                pts.append(_add(rep, sub.from_sub_coords((i, j))))
    assert len(set(pts)) == 13 * 9
    for lam in pts:
        de = lab.encode(lam)
        assert lab.decode_both(de) == lam
        c1[de.first] += 1
    assert c1[(0, 0)] == 13  # the origin is interior to the block


def test_shift_property(lab31):
    sub = lab31.sub
    rng = np.random.default_rng(4)
    for _ in range(200):
        lam = tuple(int(x) for x in rng.integers(-30, 30, 2))
        shift = sub.from_sub_coords(tuple(int(x) for x in rng.integers(-3, 4, 2)))
        a, b = alpha_u(lab31, lam)
        assert alpha_u(lab31, _add(lam, shift)) == canonical_edge(_add(a, shift), _add(b, shift))


def test_reuse_index_region_count():
    lab = design("A2", 7)
    lat = lab.lattice
    c1 = Counter()
    c2 = Counter()
    b = 40
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            de = lab.encode((x, y))
            c1[de.first] += 1
            c2[de.second] += 1
    interior = [p for p in c1 if lat.qshell(p) < (b // 2) ** 2]
    assert len(interior) > 50
    assert all(c1[p] == 7 for p in interior)
    assert all(c2[p] == 7 for p in interior)


def test_midpoint_law_full_period(lab31):
    for rep, e in lab31.table.items():
        if e[0] == e[1]:
            continue
        partner = _sub(_add(e[0], e[1]), rep)
        assert alpha_u(lab31, partner) == e
        assert _add(rep, partner) == _add(e[0], e[1])


def test_per_edge_channel_distances_match(lab31):
    # Both points labeled by an edge see the same channel-1 and channel-2
    # distances (the exact form of the pairing symmetry).
    lat = lab31.lattice
    for rep, e in lab31.table.items():
        if e[0] == e[1]:
            continue
        partner = _sub(_add(e[0], e[1]), rep)
        da = lab31.encode(rep)
        db = lab31.encode(partner)
        assert db == da.reversed()
        assert lat.qshell(_sub(rep, da.first)) == lat.qshell(_sub(partner, db.first))
        assert lat.qshell(_sub(rep, da.second)) == lat.qshell(_sub(partner, db.second))


def test_decode_errors(lab31):
    with pytest.raises(NotALabel):
        lab31.decode_both(((0, 0), (100, 3)))  # not a design class
    with pytest.raises(NotALabel):
        lab31.decode_both(((1, 0), (1, 0)))  # equal endpoints off the sublattice


def test_bad_scalar_inputs_raise_named_errors():
    lab = design("Z2", 13)
    for bad in [(1.5, 2), (1, 2, 3), (1,), "ab", 5, (np.float64(1.0), 2)]:
        with pytest.raises(InvalidInput):
            lab.encode(bad)
        with pytest.raises(InvalidInput):
            direct_edge(lab.lattice, ((0, 0), (1, 0)), bad)
        with pytest.raises(InvalidInput):
            color(lab.lattice, ((0, 0), bad))
    good = lab.encode((1, 2))
    for bad in ["ab", (good.first,), (good.first, good.second, good.first), 5,
                (good.first, (0.5, 1)), (good.first, (1, 2, 3))]:
        with pytest.raises(NotALabel):
            lab.decode_both(bad)


@pytest.mark.parametrize("name,n", [("Z2", 13), ("A2", 31), ("Z8", 81)])
def test_int64_labels_decode_without_wrapping(name, n):
    lab = design(name, n)
    lam = (2**62 + 7, 5) + tuple(range(-1, lab.lattice.dim - 3))
    de = lab.encode(np.array(lam, dtype=np.int64))
    assert de == lab.encode(lam)
    with np.errstate(over="raise"):
        assert lab.decode_both(np.array(de, dtype=np.int64)) == lam
        assert lab.decode_both(tuple(np.array(e, dtype=np.int64) for e in de)) == lam


def test_encode_matches_hand_design_colors():
    # Colors are assignment independent: both designs agree on shifted edges.
    hand = hand_labeling_a2_31()
    opt = design("A2", 31, params=(5, -1))
    lat = hand.lattice
    rng = np.random.default_rng(9)
    for lam in rng.integers(-20, 20, size=(50, 2)):
        lam = tuple(int(v) for v in lam)
        e_hand = alpha_u(hand, lam)
        e_opt = alpha_u(opt, lam)
        for e in (e_hand, e_opt):
            if e[0] != e[1]:
                color(lat, e)  # well defined everywhere


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=-200, max_value=200),
    y=st.integers(min_value=-200, max_value=200),
)
def test_round_trip_property(x, y):
    lab = design("Z2", 13)
    de = lab.encode((x, y))
    assert lab.decode_both(de) == (x, y)


@pytest.mark.parametrize("name,n", [("Z1", 9), ("Z4", 9), ("Z8", 81)])
def test_round_trip_other_families(name, n):
    lab = design(name, n)
    dim = lab.lattice.dim
    rng = np.random.default_rng(6)
    for lam in rng.integers(-25, 25, size=(200, dim)):
        lam = tuple(int(x) for x in lam)
        assert lab.decode_both(lab.encode(lam)) == lam


_COORD = st.one_of(st.integers(-50, 50), st.integers(-(2**80), 2**80))


@settings(max_examples=300, deadline=None)
@given(
    design_key=st.sampled_from([("A2", 7), ("A2", 31), ("Z1", 5), ("Z2", 13), ("Z4", 49), ("Z8", 81)]),
    kind=st.sampled_from(["valid", "reversed", "shifted", "class", "random"]),
    data=st.data(),
)
def test_decode_both_inverts_encode_or_raises(design_key, kind, data):
    """Any pair either is no label (NotALabel) or decodes to the point whose
    label it is; a valid label decodes to its point, and a label moved by a
    vector off the sublattice is no label."""
    lab = design(*design_key)
    sub, dim = lab.sub, lab.lattice.dim
    point = st.tuples(*[_COORD] * dim)
    lam = data.draw(point)
    de = lab.encode(lam)
    if kind == "reversed":
        de = de.reversed()
    elif kind == "shifted":
        k = data.draw(st.integers(1, sub.index - 1))
        v = _add(sub.coset_reps[k], sub.from_sub_coords(data.draw(point)))
        de = DirectedEdge(_add(de.first, v), _add(de.second, v))
    elif kind == "class":  # a design class at an arbitrary place
        a = data.draw(point)
        de = DirectedEdge(a, _add(a, data.draw(st.sampled_from(lab.base_endpoints))))
    elif kind == "random":
        de = DirectedEdge(data.draw(point), data.draw(point))
    try:
        got = lab.decode_both(de)
    except NotALabel:
        assert kind not in ("valid", "reversed")
        return
    assert kind != "shifted"
    assert lab.encode(got) == de
    if kind == "valid":
        assert got == lam


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z8", 81)])
def test_verify_catches_a_flipped_row_direction(name, n):
    lab = dataclasses.replace(design(name, n))  # fresh rows; the cached design stays intact
    i, row = next((i, w) for i, w in enumerate(lab.rows) if w.first != w.second)
    before = lab.encode(row.rep)
    lab.rows[i] = row._replace(phase=row.phase + row.step)
    assert lab.encode(row.rep) == before.reversed()  # encode reads the flipped row
    with pytest.raises(PropertyCheckFailed, match="direction"):
        lab.verify_properties()


def test_verify_catches_a_non_canonical_row(lab31):
    rep, edge = next((r, e) for r, e in sorted(lab31.table.items()) if e[0] != e[1])
    lab = dataclasses.replace(lab31, table={**lab31.table, rep: (edge[1], edge[0])})
    with pytest.raises(PropertyCheckFailed, match="direction"):
        lab.verify_properties()


def _failed_check(verify, lab):
    """The name of the check that ``verify`` reports failed on ``lab``, or None."""
    try:
        verify(lab)
    except PropertyCheckFailed as err:
        return err.prop
    except NotALabel:  # the scalar oracle's decode of a base edge that is no label
        return "reuse"
    return None


def _both_fail(lab, name):
    """The array verify and the scalar oracle both report check ``name``."""
    assert _failed_check(Labeling.verify_properties, lab) == name
    assert _failed_check(scalar_verify_properties, lab) == name


def _with_row(lab, rep, edge):
    """A copy of ``lab`` whose table gives ``rep`` the edge ``edge``, rows rebuilt."""
    return dataclasses.replace(lab, table={**lab.table, rep: edge})


def test_verify_catches_a_zero_edge_off_the_origin(lab31):
    rep = lab31.sub.coset_reps[1]  # the first row that the scalar loop checks
    a, _ = lab31.table[rep]
    _both_fail(_with_row(lab31, rep, (a, a)), "zero-edge")


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z8", 81)])
def test_verify_catches_an_edge_moved_along_the_sublattice(name, n):
    # The class and the direction at the representative stay right; the
    # partner rep' = a + b - rep moves by 2s and gets another edge.
    lab = design(name, n)
    rep = lab.sub.coset_reps[1]
    a, b = lab.table[rep]
    s = lab.sub.from_sub_coords((1,) + (0,) * (lab.lattice.dim - 1))
    _both_fail(_with_row(lab, rep, (_add(a, s), _add(b, s))), "midpoint-sum")


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z4", 49), ("A2", 199)])
def test_verify_catches_a_partner_with_the_same_orientation(name, n):
    # Move the phase of the row that labels a partner within its step block,
    # so the row keeps its direction at vp = 0 but flips at the partner's vp.
    # That needs a partner whose 2 vp is no multiple of the row's step, which
    # no row of Z2/13 or Z8/81 has.
    lab = dataclasses.replace(design(name, n))
    sub = lab.sub
    for row in lab.rows:
        if row.first == row.second:
            continue
        partner = _sub(_add(row.first, row.second), row.rep)
        j = sub._coset_index(partner)
        other = lab.rows[j]
        vp = partner[other.axis] - other.rep[other.axis]
        x, y = other.phase % other.step, (other.phase + 2 * vp) % other.step
        if x != y:
            break
    else:
        pytest.fail("no partner's vp moves the phase within a step")
    delta = other.step - 1 - x if y > x else -x
    flip = orientation_flip(other.phase, other.step, 0)
    assert orientation_flip(other.phase + delta, other.step, 0) == flip
    lab.rows[j] = other._replace(phase=other.phase + delta)
    _both_fail(lab, "orientation-pairing")


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z1", 151)])
def test_verify_catches_a_base_class_that_no_row_holds(name, n):
    # Both rows of one class take another class, each relocated for its own
    # representative: Property 3 holds, but the base edges of the first class
    # are no label.
    lab = design(name, n)
    ri, rj = _same_class_reps(lab)
    a, b = lab.table[ri]
    other = next(k for k in map(class_key, lab.base_endpoints) if any(k) and k != class_key(_sub(b, a)))
    table = {**lab.table, **{r: closest_edge_in_class(lab.sub, r, other) for r in (ri, rj)}}
    moved = dataclasses.replace(lab, table=table)
    with pytest.raises(PropertyCheckFailed, match="reuse.*is no label"):
        moved.verify_properties()
    assert _failed_check(scalar_verify_properties, moved) == "reuse"


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z8", 81)])
def test_verify_catches_a_base_edge_that_decodes_wrong(name, n):
    # A phase moved by half a step that keeps every Property 3 label but
    # sends a base edge of vertex 0 to a point with another label.
    base = design(name, n)
    for i, row in enumerate(base.rows):
        lab = dataclasses.replace(base)
        lab.rows[i] = row._replace(phase=row.phase + row.step // 2)
        if _failed_check(scalar_verify_properties, lab) == "reuse":
            break
    else:
        pytest.fail("no half-step phase breaks only Property 1")
    assert _failed_check(Labeling.verify_properties, lab) == "reuse"


def test_verify_catches_rows_that_differ_from_the_table(lab31):
    # The stored table, not the row table, is the design: encode reads the
    # rows, and Property 2 compares each shifted label with the table.
    lab = dataclasses.replace(lab31)
    rep = lab.sub.coset_reps[1]
    a, b = lab.table[rep]
    lab.table = {**lab.table, rep: (b, a)}
    _both_fail(lab, "shift")


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z1", 151), ("Z8", 81)])
@pytest.mark.parametrize("m", [2**40, 2**58, 2**61, 2**70])
def test_verify_is_exact_on_rows_far_from_their_representatives(name, n, m):
    # Both rows of one class moved by +s and -s keep Properties 1-3, however
    # far s is; with one of them also reversed at its representative, both
    # verifies fail.  Past the int64-safe bounds the arrays hold Python ints.
    lab = design(name, n)
    ri, rj = _same_class_reps(lab)
    s = lab.sub.from_sub_coords((m,) + (0,) * (lab.lattice.dim - 1))
    table = dict(lab.table)
    table[ri] = tuple(_add(e, s) for e in table[ri])
    table[rj] = tuple(_sub(e, s) for e in table[rj])
    far = dataclasses.replace(lab, table=table)
    assert _failed_check(Labeling.verify_properties, far) is None
    assert _failed_check(scalar_verify_properties, far) is None
    i = lab.sub.coset_reps.index(ri)
    far.rows[i] = far.rows[i]._replace(phase=far.rows[i].phase + far.rows[i].step)
    _both_fail(far, "direction")


def _same_class_reps(lab):
    """The two representatives whose rows hold the first nonzero class."""
    by_class = {}
    for rep in lab.sub.coset_reps:
        a, b = lab.table[rep]
        by_class.setdefault(class_key(_sub(b, a)), []).append(rep)
    return next(reps for key, reps in by_class.items() if any(key))


def _corrupt(lab, rng):
    """A copy of ``lab`` with one random corruption of its table or rows: a
    phase moved by half a step or a whole step, a row's endpoints swapped,
    two rows' edges swapped, or an endpoint moved by a short lattice or
    sublattice vector."""
    lab = dataclasses.replace(lab)
    reps = lab.sub.coset_reps
    i = int(rng.integers(1, lab.index))
    kind = rng.integers(5)
    if kind < 2:
        row = lab.rows[i]
        lab.rows[i] = row._replace(phase=row.phase + (row.step if kind else row.step // 2))
        return lab
    table = dict(lab.table)
    a, b = table[reps[i]]
    if kind == 2:
        table[reps[i]] = (b, a)
    elif kind == 3:
        j = int(rng.integers(lab.index))
        table[reps[i]], table[reps[j]] = table[reps[j]], table[reps[i]]
    else:
        v = tuple(rng.integers(-2, 3, lab.lattice.dim).tolist())
        if rng.integers(2):
            v = lab.sub.from_sub_coords(v)
        table[reps[i]] = (_add(a, v), b)
    return dataclasses.replace(lab, table=table)


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z4", 49), ("Z8", 81), ("Z1", 151), ("A2", 199)])
def test_verify_agrees_with_the_scalar_oracle_on_corrupted_rows(name, n):
    rng = np.random.default_rng(24)
    outcomes = Counter()
    for _ in range(40):
        lab = _corrupt(design(name, n), rng)
        got = _failed_check(Labeling.verify_properties, lab)
        want = _failed_check(scalar_verify_properties, lab)
        assert (got is None) == (want is None), (got, want)
        outcomes[got is None] += 1
    assert outcomes[False] >= 30  # most corruptions break a property


def test_decode_zero_edge(lab31):
    vp = lab31.sub.from_sub_coords((2, 1))
    assert lab31.decode_both((vp, vp)) == vp
    assert lab31.encode(vp) == DirectedEdge(vp, vp)


# -- serialization -------------------------------------------------------------------


def test_design_serialization_round_trip(lab31):
    doc = lab31.to_dict()
    assert doc["schema"] == 1
    assert doc["index"] == 31
    assert all(isinstance(v, int) for row in doc["table"] for e in row["edge"] for v in e)
    rebuilt = labeling_from_dict(doc)
    assert rebuilt.table == lab31.table
    assert rebuilt.cost_total == lab31.cost_total


def test_design_file_with_an_unknown_lattice_is_invalid_input(lab31):
    # get_lattice names the error itself; nothing translates it on the way.
    doc = dict(lab31.to_dict(), lattice="A3")
    with pytest.raises(InvalidInput, match="unknown lattice 'A3'"):
        labeling_from_dict(doc)


def test_hand_design_serialization_round_trip():
    hand = hand_labeling_a2_31()
    rebuilt = labeling_from_dict(hand.to_dict())
    assert rebuilt.table == hand.table


def test_only_a_broken_orbit_falls_back_to_the_order_2_group(monkeypatch):
    # A full-group design that fails its property check is an error, not a
    # reason to return the {I, -I} design instead.
    verify = Labeling.verify_properties

    def fail_beyond_order_2(self):
        if self.group.order > 2:
            raise PropertyCheckFailed("forced", f"group of order {self.group.order}")
        return verify(self)

    monkeypatch.setattr(Labeling, "verify_properties", fail_beyond_order_2)
    with pytest.raises(PropertyCheckFailed, match="forced"):
        build_labeling(design_sublattice("A2", 31))
    assert build_labeling(design_sublattice("A2", 49)).group.order == 2


def test_serialization_round_trip_fallback_group():
    # N=49 needs the {I,-I} fallback (its edge class set is not closed under
    # the full rotation group).
    lab = design("A2", 49)
    assert lab.group.order == 2
    rebuilt = labeling_from_dict(lab.to_dict())
    assert rebuilt.table == lab.table
