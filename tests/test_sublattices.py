import functools
import itertools
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlq.errors import InadmissibleIndex, InvalidInput, NoRepresentation, NotALabel
from mdlq.lattices import get_lattice, int_point
from mdlq.sublattices import (
    _imatmul,
    _imatvec,
    build_sublattice,
    bulk_nearest2,
    bulk_nearest2_coords,
    design_sublattice,
    find_params,
    sublattice_indices,
)


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


def _brute_nearest2(sub, t2):
    """Exhaustive search by distance, then lexicographic order: over the
    {floor, floor + 1}^L box of sub-coordinates in an orthogonal frame, where
    distances separate over them, and over a 6 x 6 box on A2."""
    lat = sub.lattice
    n = sub.index
    num = [sum(sub.adjugate[i][j] * t2[j] for j in range(lat.dim)) for i in range(lat.dim)]
    base = [x // (2 * n) for x in num]
    best = None
    span = range(-2, 4) if lat.name == "A2" else range(2)
    for off in itertools.product(span, repeat=lat.dim):
        u = tuple(b + o for b, o in zip(base, off))
        p = sub.from_sub_coords(u)
        w = tuple(t - 2 * c for t, c in zip(t2, p))
        key = (lat.qshell(w), p)
        if best is None or key < best:
            best = key
    return best[1]


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
        assert sub.nearest2(t2) == _brute_nearest2(sub, t2)


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
    assert got == [sub.nearest2(tuple(t)) for t in rows]
    assert got == [_brute_nearest2(sub, tuple(t)) for t in rows]
    u = [data.draw(st.integers(2**64, 2**70))] + data.draw(vec(-(2**70), 2**70))[1:]
    far = np.array(t2.tolist(), dtype=object) + np.array([2 * x for x in sub.from_sub_coords(u)])
    assert np.abs(far).max() > sub.t2_bound
    out = bulk_nearest2(sub, far)
    assert out.dtype == object
    assert [tuple(p) for p in out.tolist()] == [sub.nearest2(tuple(t)) for t in far.tolist()]


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z4", 49), ("Z8", 81)])
def test_nearest2_coords_give_nearest2(name, n):
    """Gt times the sublattice coordinates is ``bulk_nearest2`` and the scalar
    rule, on int64 targets and on the same targets shifted by a sublattice
    point far past ``t2_bound``, whose coordinates shift by exactly its own."""
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
        points = (coords @ sub.gtilde.T).tolist()
        assert points == bulk_nearest2(sub, targets).tolist()
        assert list(map(tuple, points)) == [sub.nearest2(t) for t in targets.tolist()]


@pytest.mark.parametrize("n", [7, 31])
def test_scalar_nearest2_matches_bulk_in_box_a2(n):
    """Every doubled target in [-2N, 2N]^2, half-integer ties included."""
    sub = design_sublattice("A2", n)
    r = np.arange(-2 * n, 2 * n + 1)
    t2 = np.stack(np.meshgrid(r, r, indexing="ij"), axis=-1).reshape(-1, 2)
    got = [sub.nearest2(t) for t in map(tuple, t2.tolist())]
    assert got == list(map(tuple, bulk_nearest2(sub, t2).tolist()))


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
