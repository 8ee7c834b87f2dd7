import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlq.codec import bulk_coset_reduce
from mdlq.errors import InadmissibleIndex, InvalidInput, NoRepresentation, NotALabel, NotSimilar
from mdlq.lattices import get_lattice, int_point
from mdlq.sublattices import (
    _imatmul,
    _imatvec,
    _smith_rows,
    build_sublattice,
    bulk_coset_index,
    bulk_nearest2,
    bulk_nearest2_coords,
    design_sublattice,
    find_params,
    sublattice_indices,
)

from .reference_design import brute_nearest2


def test_build_a2_31_reference_frame(a2):
    sub = build_sublattice(a2, (5, -1))
    assert sub.index == 31
    assert sub.scale_sq == 31
    # First generator column is u = 5 - w.
    assert tuple(sub.gtilde[:, 0]) == (5, -1)


def test_scalar_methods_reject_non_integer_coordinates(lab31):
    """Every public scalar entry takes a vector of ``dim`` integers only.  A
    float used to be truncated in one product and kept in the rest, giving a
    float "representative"; a wrong length was cut short by ``zip``."""
    sub = design_sublattice("A2", 31)
    lat = sub.lattice
    entries = [
        lat.qshell,
        lambda v: lat.inner2(v, (1, 0)),
        lambda v: lat.inner2((1, 0), v),
        sub.contains,
        sub.from_sub_coords,
        sub.nearest2,
        sub.coset_reduce,
        lab31.encode,
        lab31.alpha_u,
    ]
    for bad in [(1, 2, 3), (1,), (), (1.5, 0), (0.5, 0.5), (np.float64(4.0), 0), "ab", (1, "2"), 5]:
        for entry in entries:
            with pytest.raises(InvalidInput):
                entry(bad)
        with pytest.raises(NotALabel):
            lab31.decode_both(((5, -1), bad))
    with pytest.raises(InvalidInput):
        get_lattice("Z2").qshell((1.5, 0))
    with pytest.raises(InvalidInput, match=r"\(4\.6, 0\) is not"):
        sub.coset_reduce((4.6, 0))
    assert sub.coset_reduce((np.int64(4), 0)) == sub.coset_reduce((4, 0)) == ((5, -1), (-1, 1))


def test_build_z2_identity(z2):
    sub = build_sublattice(z2, (1, 0))
    assert sub.index == 1
    assert sub.voronoi_reps == ((0, 0),)


def test_build_z4_index_is_square_of_form_value():
    z4 = get_lattice("Z4")
    sub = build_sublattice(z4, (1, 1, 1, 0))
    assert sub.scale_sq == 3
    assert sub.index == 9
    gt = sub.gtilde
    assert (gt.T @ gt == 3 * np.eye(4, dtype=np.int64)).all()
    # The all-in-one-coordinate representation scales the whole lattice: the
    # matrix for s=9 is 3*I with Gt^T Gt = 9I, and the coset count is 3^4.
    sub9 = build_sublattice(z4, (3, 0, 0, 0))
    assert (sub9.gtilde == 3 * np.eye(4, dtype=np.int64)).all()
    assert (sub9.gtilde.T @ sub9.gtilde == 9 * np.eye(4, dtype=np.int64)).all()
    assert sub9.index == 81


def test_build_z8_certificate():
    sub = design_sublattice("Z8", 81)
    gt = sub.gtilde
    assert (gt.T @ gt == sub.scale_sq * np.eye(8, dtype=np.int64)).all()
    assert sub.index == 81


@pytest.mark.parametrize(
    "name,params",
    [("A2", (5, -1)), ("A2", (1, 6)), ("Z2", (2, 3)), ("Z4", (1, 2, 0, 0)), ("Z8", (1, 1, 1, 0))],
)
def test_similarity_certificate_exact(name, params):
    lat = get_lattice(name)
    sub = build_sublattice(lat, params)
    gram = lat.gram2.astype(object)
    gt = sub.gtilde.astype(object)
    assert (gt.T @ gram @ gt == sub.scale_sq * gram).all()
    # Index equals |det Gt| (via float det, exact for these sizes).
    assert round(abs(np.linalg.det(sub.gtilde.astype(float)))) == sub.index


def test_inadmissible_params():
    z2 = get_lattice("Z2")
    with pytest.raises(InadmissibleIndex):
        build_sublattice(z2, (1, 1))  # even index
    z4 = get_lattice("Z4")
    with pytest.raises(InadmissibleIndex):
        build_sublattice(z4, (1, 1, 0, 0))  # even form value
    z1 = get_lattice("Z1")
    with pytest.raises(InadmissibleIndex):
        build_sublattice(z1, (4,))


def test_find_params_examples(a2, z2):
    a, b = find_params(a2, 31)
    assert a * a - a * b + b * b == 31
    # The found generator spans the same sublattice as the reference (5, -1).
    ref = build_sublattice(a2, (5, -1))
    found = build_sublattice(a2, (a, b))
    assert ref.voronoi_reps == found.voronoi_reps
    assert find_params(z2, 5) in [(1, 2), (2, 1)]
    with pytest.raises(NoRepresentation):
        find_params(z2, 3)
    with pytest.raises(NoRepresentation):
        find_params(z2, 10)  # even
    assert find_params(get_lattice("Z4"), 9) == (0, 1, 1, 1)
    assert find_params(get_lattice("Z1"), 7) == (7,)
    with pytest.raises(NoRepresentation):
        find_params(get_lattice("Z8"), 82)


# Each family's index as a function of its params, written out, and whether
# the index must be odd.
_FORMS = {
    "Z1": (lambda n: n, True),
    "Z2": (lambda a, b: a * a + b * b, True),
    "A2": (lambda a, b: a * a - a * b + b * b, False),
    "Z4": (lambda a, b, c, d: (a * a + b * b + c * c + d * d) ** 2, True),
    "Z8": (lambda a, b, c, d: (a * a + b * b + c * c + d * d) ** 4, False),
}


@pytest.mark.parametrize(
    "name,arity,side,n_max,probes",
    [
        ("Z1", 1, 2001, 2000, range(-2, 2001)),
        ("Z2", 2, 46, 2000, range(-2, 2001)),
        ("A2", 2, 53, 2000, range(-2, 2001)),  # a^2 - ab + b^2 >= 3/4 max(a, b)^2
        ("Z4", 4, 11, 10**4, [s * s + d for s in range(101) for d in (-1, 0, 1)]),
        ("Z8", 4, 4, 15**4, [s**4 + d for s in range(16) for d in (-1, 0, 1)]),
    ],
    ids=["Z1", "Z2", "A2", "Z4", "Z8"],
)
def test_index_rule_matches_a_brute_force_box(name, arity, side, n_max, probes):
    # The box [0, side)^arity holds every nonnegative params vector of index
    # <= n_max; itertools.product walks it in lexicographic order.
    lat = get_lattice(name)
    form, odd = _FORMS[name]
    first = {}
    for p in itertools.product(range(side), repeat=arity):
        n = form(*p)
        if 1 <= n <= n_max and (n % 2 or not odd):
            first.setdefault(n, p)
    assert sublattice_indices(lat, n_max) == set(first)
    for n in probes:
        if n in first:
            assert find_params(lat, n) == first[n]
            assert build_sublattice(lat, first[n]).index == n  # the exact certificate
        else:
            with pytest.raises(NoRepresentation):
                find_params(lat, n)


def test_design_sublattice_index_mismatch():
    with pytest.raises(InadmissibleIndex):
        design_sublattice("A2", index=7, params=(5, -1))


# -- discrete Voronoi set -------------------------------------------------------


def test_voronoi_a2_31(lab31):
    reps = lab31.sub.voronoi_reps
    assert len(reps) == 31
    lat = lab31.lattice
    shells = sorted(lat.qshell(r) for r in reps)
    assert shells == [0] + [1] * 6 + [3] * 6 + [4] * 6 + [7] * 12


def test_voronoi_z2_5():
    sub = design_sublattice("Z2", 5)
    assert set(sub.voronoi_reps) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_voronoi_n1():
    sub = design_sublattice("A2", 1)
    assert sub.voronoi_reps == ((0, 0),)


@pytest.mark.parametrize("name,n", [("A2", 31), ("A2", 9), ("Z2", 25), ("Z4", 9)])
def test_voronoi_negation_closed_on_cosets(name, n):
    sub = design_sublattice(name, n)
    reps = set(sub.voronoi_reps)
    zero = (0,) * sub.dim
    # n distinct points, each the representative of its own coset.
    assert len(reps) == n and all(sub.coset_reduce(r) == (zero, r) for r in reps)
    for r in reps:
        vp, rep = sub.coset_reduce(tuple(-x for x in r))
        assert rep in reps and sub.contains(vp)


# -- coset arithmetic -----------------------------------------------------------


def test_coset_reduce_worked_example(lab31):
    vp, rep = lab31.sub.coset_reduce((18, 10))
    assert vp == (17, 9)
    assert rep == (1, 1)


def test_coset_reduce_sublattice_point(lab31):
    sub = lab31.sub
    p = sub.from_sub_coords((2, -1))
    vp, rep = sub.coset_reduce(p)
    assert vp == p and rep == (0, 0)


def test_coset_reduce_z2_generator():
    # Frame with generator (2, 1): that point reduces to itself.
    sub = design_sublattice("Z2", 5, params=(2, 1))
    vp, rep = sub.coset_reduce((2, 1))
    assert vp == (2, 1) and rep == (0, 0)


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z4", 25)])
def test_partition_property(name, n):
    sub = design_sublattice(name, n)
    lat = sub.lattice
    reps = set(sub.voronoi_reps)
    rng = np.random.default_rng(3)
    for lam in rng.integers(-40, 40, size=(300, lat.dim)):
        lam = tuple(int(x) for x in lam)
        vp, rep = sub.coset_reduce(lam)
        assert rep in reps
        assert sub.contains(vp)
        assert tuple(v + r for v, r in zip(vp, rep)) == lam


# -- coset index ------------------------------------------------------------------


def _exact_det(m):
    """Determinant of a square matrix of ints, by exact Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for t in range(len(a)):
        p = next((i for i in range(t, len(a)) if a[i][t]), None)
        if p is None:
            return 0
        if p != t:
            a[t], a[p] = a[p], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, len(a)):
            f = a[i][t] / a[t][t]
            a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return det


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_smith_rows_give_the_quotient_group(data):
    """For a random nonsingular integer matrix m: U is unimodular, the factors
    divide each other and multiply to |det m|, and row i of U m is 0 mod d_i.
    Then v -> (U_i v mod d_i) maps Z^L / m Z^L one to one onto the product of
    the Z/d_i, since both have |det m| elements."""
    dim = data.draw(st.integers(1, 4))
    entry = st.integers(-9, 9)
    m = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    det = _exact_det(m)
    if det == 0:
        return
    u, d = _smith_rows(m)
    assert abs(_exact_det(u)) == 1
    assert math.prod(d) == abs(det) and all(x >= 1 for x in d)
    assert all(b % a == 0 for a, b in zip(d, d[1:]))
    assert all(x % f == 0 for row, f in zip(_imatmul(u, m), d) for x in row)


@pytest.mark.parametrize(
    "name,n,factors",
    [
        ("A2", 31, (31,)),
        ("Z2", 25, (5, 5)),
        ("A2", 49, (7, 7)),
        ("Z4", 49, (7, 7)),
        ("Z8", 81, (3, 3, 3, 3)),
        ("Z8", 625, (5, 5, 5, 5)),
        ("Z8", 16, (2, 2, 2, 2)),
    ],
)
def test_invariant_factors(name, n, factors):
    sub = design_sublattice(name, n)
    rows, got = sub.coset_form
    assert got == factors and len(rows) == len(factors)
    assert all(0 <= x < f for row, f in zip(rows, factors) for x in row)


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 25), ("Z4", 49), ("Z8", 16)])
def test_coset_reps_by_index(name, n):
    """coset_reps lists V0(0) in index order, the sublattice has index 0, and
    a shift by a sublattice point keeps the index."""
    sub = design_sublattice(name, n)
    reps = sub.coset_reps
    assert sorted(reps) == list(sub.voronoi_reps) and not any(reps[0])
    idx = bulk_coset_index(sub, np.array(reps))
    assert idx.tolist() == list(range(n))
    shift = np.array(sub.from_sub_coords(range(1, sub.dim + 1)))
    assert (bulk_coset_index(sub, np.array(reps) + shift) == idx).all()
    assert all(sub.contains(r) == (i == 0) for i, r in enumerate(reps))


def test_coset_reps_reject_a_shared_index(monkeypatch):
    """Two V0(0) points in one coset (a duplicate index) raise NotSimilar."""
    sub = design_sublattice("Z2", 13)
    reps = list(sub.voronoi_reps)
    reps[1] = tuple(map(operator.add, reps[2], sub.from_sub_coords((1, 0))))
    monkeypatch.setitem(sub.__dict__, "voronoi_reps", tuple(reps))
    with pytest.raises(NotSimilar, match="share a coset index"):
        sub.coset_reps


_COSET_DESIGNS = [("A2", 31), ("Z2", 13), ("Z4", 49), ("Z8", 81), ("Z8", 16), ("A2", 4)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coset_reduce_matches_brute_force(data):
    """Scalar ``coset_reduce`` and ``codec.bulk_coset_reduce`` against the
    brute-force nearest point, on random lattice points and on midpoints of
    two sublattice points that are lattice points; at even N (Z8/16, A2/4)
    many of those are ties."""
    name, n = data.draw(st.sampled_from(_COSET_DESIGNS))
    sub = _cached_design(name, n)
    dim = sub.dim

    def vec(lo, hi):
        return st.lists(st.integers(lo, hi), min_size=dim, max_size=dim)

    pts = data.draw(st.lists(vec(-60, 60), max_size=6))
    for _ in range(data.draw(st.integers(1, 6))):
        a = sub.from_sub_coords(data.draw(vec(-2, 2)))
        b = sub.from_sub_coords(data.draw(vec(-2, 2)))
        if all((x + y) % 2 == 0 for x, y in zip(a, b)):
            pts.append([(x + y) // 2 for x, y in zip(a, b)])
    if not pts:
        return
    lam = np.array(pts, dtype=np.int64)
    idx, u, vp = bulk_coset_reduce(sub, lam, np.array(sub.coset_reps))
    assert (u @ sub.gtilde.T == vp).all()
    for p, v in zip(pts, vp.tolist()):
        want = brute_nearest2(sub, [2 * x for x in p])
        assert sub.coset_reduce(p) == (want, tuple(x - y for x, y in zip(p, want)))
        assert tuple(v) == want


@pytest.mark.parametrize("name,n", [("A2", 31), ("A2", 9), ("Z2", 13), ("Z4", 9), ("Z8", 81)])
def test_nearest_sublattice_point_vs_brute(name, n):
    """Random doubled targets, and doubled midpoints a + b of sublattice
    points, which tie in every sub-coordinate where a and b differ by an odd
    step."""
    sub = design_sublattice(name, n)
    rng = np.random.default_rng(5)
    targets = [tuple(map(int, t2)) for t2 in rng.integers(-51, 51, size=(400, sub.dim))]
    for u, w in rng.integers(-3, 4, size=(100, 2, sub.dim)).tolist():
        targets.append(tuple(map(operator.add, sub.from_sub_coords(u), sub.from_sub_coords(w))))
    for t2 in targets:
        assert sub.nearest2(t2) == brute_nearest2(sub, t2)


_cached_design = functools.lru_cache(design_sublattice)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bulk_nearest2_matches_scalar(data):
    """The bulk kernel against the scalar rule and the brute-force box, on
    doubled midpoints of sublattice-point pairs (the cell-boundary ties),
    +-1 around them and random targets; a shift by a far sublattice point
    takes the targets past the int64 guard onto the object path."""
    name, n = data.draw(st.sampled_from([("Z1", 7), ("Z2", 13), ("Z4", 9), ("Z8", 81), ("A2", 31)]))
    sub = _cached_design(name, n)
    dim = sub.dim

    def vec(lo, hi):
        return st.lists(st.integers(lo, hi), min_size=dim, max_size=dim)

    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        a = sub.from_sub_coords(data.draw(vec(-3, 3)))
        b = sub.from_sub_coords(data.draw(vec(-3, 3)))
        off = data.draw(vec(-1, 1))
        rows += [[x + y for x, y in zip(a, b)], [x + y + o for x, y, o in zip(a, b, off)]]
    rows += data.draw(st.lists(vec(-120, 120), max_size=4))
    t2 = np.array(rows, dtype=np.int64)
    got = [tuple(p) for p in bulk_nearest2(sub, t2).tolist()]
    assert got == [brute_nearest2(sub, tuple(t)) for t in rows]
    u = [data.draw(st.integers(2**64, 2**70))] + data.draw(vec(-(2**70), 2**70))[1:]
    far = np.array(t2.tolist(), dtype=object) + np.array([2 * x for x in sub.from_sub_coords(u)])
    assert np.abs(far).max() > sub.t2_bound
    out = bulk_nearest2(sub, far)
    assert out.dtype == object
    assert [tuple(p) for p in out.tolist()] == [brute_nearest2(sub, t) for t in far.tolist()]


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z4", 49), ("Z8", 81)])
def test_nearest2_coords_give_nearest2(name, n):
    """Gt times the sublattice coordinates is ``bulk_nearest2``, on int64
    targets and on the same targets shifted by a sublattice point far past
    ``t2_bound``, whose coordinates shift by exactly its own; on the int64
    targets it is the brute-force nearest point."""
    sub = _cached_design(name, n)
    rng = np.random.default_rng(12)
    t2 = rng.integers(-400, 400, size=(300, sub.dim))
    w = [2**70 + 3] + [-(2**66) + k for k in range(1, sub.dim)]
    far = t2.astype(object) + np.array([2 * x for x in sub.from_sub_coords(w)])
    assert np.abs(far).max() > sub.t2_bound
    u = bulk_nearest2_coords(sub, t2)
    u_far = bulk_nearest2_coords(sub, far)
    assert u.dtype == np.int64 and u_far.dtype == object
    assert (u_far - u == np.array(w, dtype=object)).all()
    for targets, coords in [(t2, u), (far, u_far)]:
        assert (coords @ sub.gtilde.T).tolist() == bulk_nearest2(sub, targets).tolist()
    points = list(map(tuple, (u @ sub.gtilde.T).tolist()))
    assert points == [brute_nearest2(sub, t) for t in t2.tolist()]


@pytest.mark.parametrize("n", [7, 31])
def test_scalar_nearest2_matches_bulk_in_box_a2(n):
    """Every doubled target in [-2N, 2N]^2, half-integer ties included: the
    one-row ``nearest2``, the int64 batch and the brute-force search agree."""
    sub = design_sublattice("A2", n)
    r = np.arange(-2 * n, 2 * n + 1)
    t2 = np.stack(np.meshgrid(r, r, indexing="ij"), axis=-1).reshape(-1, 2)
    got = list(map(tuple, bulk_nearest2(sub, t2).tolist()))
    assert got == [brute_nearest2(sub, t) for t in t2.tolist()]
    assert got[:: n + 1] == [sub.nearest2(t) for t in t2[:: n + 1].tolist()]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_integer_helpers_match_object_reference(data):
    """_imatvec, _imatmul, qshell and inner2 against object-dtype numpy, on
    Python ints up to 2^100 and on int64 inputs near 2^62, which must not wrap
    (``int_point`` turns them into Python ints, as every public entry does)."""
    lat = get_lattice(data.draw(st.sampled_from(["Z1", "Z2", "Z4", "Z8", "A2"])))
    dim = lat.dim
    big = st.integers(-(2**100), 2**100)
    near62 = st.integers(2**62 - 2**20, 2**63 - 1) | st.integers(-(2**63), -(2**62) + 2**20)

    def vec(elements):
        return data.draw(st.lists(elements, min_size=dim, max_size=dim))

    m = tuple(tuple(vec(big)) for _ in range(dim))
    b = tuple(tuple(vec(big)) for _ in range(dim))
    m_ref = np.array(m, dtype=object)
    assert list(map(list, _imatmul(m, b))) == (m_ref @ np.array(b, dtype=object)).tolist()
    gram = lat.gram2.astype(object)
    for u, v in [(vec(big), vec(big)), (np.array(vec(near62)), np.array(vec(near62)))]:
        u_ref, v_ref = np.array(u, dtype=object), np.array(v, dtype=object)
        if isinstance(u, np.ndarray):  # int64 entries become Python ints
            u_ref, v_ref = u.astype(object), v.astype(object)
        assert _imatvec(m, int_point(v, dim)) == tuple((m_ref @ v_ref).tolist())
        assert lat.inner2(u, v) == u_ref @ gram @ v_ref
        assert lat.qshell(u) == u_ref @ gram @ u_ref // 2


def test_covering_radius_scaling():
    sub = design_sublattice("A2", 31)
    assert sub.covering_radius_sq() == Fraction(31, 6)
    subz = design_sublattice("Z1", 5)
    assert subz.covering_radius_sq() == Fraction(25, 4)


def test_design_sublattice_without_index_or_params_is_invalid_input():
    with pytest.raises(InvalidInput, match="either index or params"):
        design_sublattice("A2")
