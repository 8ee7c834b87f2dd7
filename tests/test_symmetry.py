import itertools
import re

import numpy as np
import pytest

from mdlq.errors import GroupPropertyViolation, InvalidInput, SizeMismatch
from mdlq.labeling import _act, _lead, _orbits, base_edge_set, canonical_edge
from mdlq.lattices import get_lattice
from mdlq.sublattices import SimilarSublattice, _imatvec, design_sublattice, sublattice_indices
from mdlq.symmetry import (
    SymmetryGroup,
    _check_lattice_group,
    _closure,
    _generators,
    group_for,
    minus_identity_group,
)

from .reference_design import check_group, check_lattice_group, closure, ds_cost, first_element_off


def test_group_orders():
    expected = {"Z1": 2, "Z2": 4, "A2": 6, "Z4": 8, "Z8": 16}
    for name, order in expected.items():
        assert group_for(get_lattice(name)).order == order


def test_z2_group_elements(z2):
    g = group_for(z2)
    rot = ((0, -1), (1, 0))
    neg = ((-1, 0), (0, -1))
    assert rot in g.elements and neg in g.elements


def test_z1_group(z1):
    assert set(group_for(z1).elements) == {((1,),), ((-1,),)}


def test_a2_group_preserves_lattice(a2):
    g = group_for(a2)
    shell = set(map(tuple, a2.ball(3).tolist()))
    for m in g.elements:
        assert {_imatvec(m, p) for p in shell} == shell


@pytest.mark.parametrize(
    "name,n", [("Z1", 5), ("Z2", 13), ("A2", 31), ("Z4", 9), ("Z8", 81)]
)
def test_group_checks_with_sublattice(name, n):
    lat = get_lattice(name)
    sub = design_sublattice(name, n)
    group_for(lat, sub)  # raises on any property violation


def test_group_property_violation_reported(a2):
    ident = ((1, 0), (0, 1))
    bad = SymmetryGroup(a2, (ident,))  # missing -I
    with pytest.raises(GroupPropertyViolation, match="-I"):
        check_group(bad)
    shear = SymmetryGroup(a2, (ident, ((-1, 0), (0, -1)), ((1, 1), (0, 1))))
    with pytest.raises(GroupPropertyViolation):
        check_group(shear)


def test_sublattice_check_runs_on_every_call(z2):
    """The lattice checks are cached per lattice, the sublattice check is not:
    the quarter turn does not map the rectangular sublattice Z x 3Z to itself."""
    group_for(z2)
    rect = SimilarSublattice(z2, (), np.array([[1, 0], [0, 3]]), 3, 3)
    with pytest.raises(GroupPropertyViolation, match="preserves sublattice"):
        group_for(z2, rect)
    with pytest.raises(GroupPropertyViolation, match="preserves sublattice"):
        check_group(group_for(z2), rect)


@pytest.mark.parametrize("name,n_max", [("Z1", 51), ("Z2", 400), ("A2", 400), ("Z4", 700), ("Z8", 700)])
def test_preserves_check_names_the_first_failing_element(name, n_max):
    lat = get_lattice(name)
    group = group_for(lat)
    subs = [design_sublattice(name, n) for n in sorted(sublattice_indices(lat, n_max))]
    subs.append(SimilarSublattice(lat, (), np.diag([1] * (lat.dim - 1) + [3]), 3, 3))
    for sub in subs:
        first = first_element_off(group, sub)
        if first is None:
            group_for(lat, sub)
        else:
            with pytest.raises(GroupPropertyViolation, match=re.escape(f"element {first}")):
                group_for(lat, sub)


@pytest.mark.parametrize(
    "lat_name,sub_name,n", [("Z4", "Z8", 81), ("Z1", "Z2", 5), ("Z2", "A2", 7)]
)
def test_group_for_rejects_a_sublattice_of_another_lattice(lat_name, sub_name, n):
    with pytest.raises(InvalidInput, match=f"a group of {lat_name} cannot act on a {sub_name} design"):
        group_for(get_lattice(lat_name), design_sublattice(sub_name, n))


def _outcome(check, group):
    """The text of the GroupPropertyViolation ``check`` raises on ``group``, or None."""
    try:
        check(group)
    except GroupPropertyViolation as e:
        return str(e)
    return None


def _corrupted_sets(lat):
    """The standard group's elements, as arrays, and corruptions of them: one
    element dropped; one or two entries moved by +-1; a coordinate reflection,
    a swap of two coordinates or a transposed element, added or substituted."""
    elems = [np.array(g) for g in group_for(lat).elements]
    rng = np.random.default_rng(sum(map(ord, lat.name)))
    sets = [elems] + [elems[:i] + elems[i + 1 :] for i in range(len(elems))]
    for moves in (1, 2) * 20:
        moved = [g.copy() for g in elems]
        for i in rng.choice(len(elems), moves, replace=False):
            moved[i][tuple(rng.integers(0, lat.dim, 2))] += rng.choice([-1, 1])
        sets.append(moved)
    eye = np.eye(lat.dim, dtype=np.int64)
    extras = [eye * np.where(np.arange(lat.dim) == k, -1, 1) for k in range(lat.dim)]
    for i, j in itertools.combinations(range(lat.dim), 2):
        perm = np.arange(lat.dim)
        perm[[i, j]] = j, i
        extras.append(eye[perm])
    extras += [g.T for g in elems]
    for x in extras:
        at = rng.integers(len(elems))
        sets += [elems + [x], elems[:at] + [x] + elems[at + 1 :]]
    return sets


@pytest.mark.parametrize("name", ["Z1", "Z2", "A2", "Z4", "Z8"])
def test_group_checks_match_the_oracle(name):
    """The array checks raise the loop oracle's GroupPropertyViolation text,
    naming the same first failing element, or pass where it passes: on the
    standard group, its corruptions and the coordinate sign-change group."""
    lat = get_lattice(name)
    sets = _corrupted_sets(lat)
    if name != "A2":
        sets.append([np.diag(s) for s in itertools.product([1, -1], repeat=lat.dim)])
    for elems in sets:
        group = SymmetryGroup(lat, tuple(tuple(map(tuple, g.tolist())) for g in elems))
        assert _outcome(_check_lattice_group, group) == _outcome(check_lattice_group, group), group.elements


def test_closure_matches_the_oracle():
    """The array closure lists each standard group as the sorted tuple
    closure does, and both stop a generator of infinite order."""
    for name in ["Z1", "Z2", "A2", "Z4", "Z8"]:
        lat = get_lattice(name)
        gens = [tuple(map(tuple, np.array(g).tolist())) for g in _generators(lat)]
        assert _closure(gens, lat.dim) == closure(gens, lat.dim) == group_for(lat).elements
    shear = [((1, 1), (0, 1))]
    for grow in (_closure, closure):
        with pytest.raises(GroupPropertyViolation, match="unexpectedly large"):
            grow(shear, 2)


def test_minus_identity_group(a2):
    g = minus_identity_group(a2)
    assert g.order == 2
    check_group(g)


# -- orbits ---------------------------------------------------------------------


def _point_orbits(g, pts, size=None):
    items = np.array(sorted(pts)).reshape(len(pts), -1)
    orbits = _orbits(items, _act(g, items), g.order if size is None else size, "point")
    return [tuple(items[o[0]].tolist()) for o in orbits]


def test_orbit_a2_first_shell(a2):
    g = group_for(a2)
    shell = [p for p in map(tuple, a2.ball(1).tolist()) if p != (0, 0)]
    assert _point_orbits(g, shell) == [(-1, -1)]  # one orbit of all 6 points


def test_orbit_pm_pair(a2):
    g = minus_identity_group(a2)
    assert _point_orbits(g, [(2, 1), (-2, -1)]) == [(-2, -1)]


def test_orbit_z2_rotation_cycle(z2):
    g = group_for(z2)
    assert _point_orbits(g, [(1, 0), (-1, 0), (0, 1), (0, -1)]) == [(-1, 0)]
    with pytest.raises(SizeMismatch, match="leaves the point set"):
        _point_orbits(g, [(1, 0), (-1, 0)])


def test_orbit_sizes_divide_group_order(a2):
    # Fixed-point free on nonzero points: every orbit holds the whole group.
    g = group_for(a2)
    pts = [p for p in map(tuple, a2.ball(4).tolist()) if p != (0, 0)]
    assert len(_point_orbits(g, pts)) * g.order == len(pts)
    with pytest.raises(SizeMismatch, match="has size 6, expected 3"):
        _point_orbits(g, pts, size=3)


def test_orbit_edges(a2):
    g = group_for(a2)
    sub = design_sublattice("A2", 7)
    endpoints = base_edge_set(sub)
    edges = np.array(sorted(canonical_edge((0, 0), p) for p in endpoints if any(p))).reshape(-1, 4)
    a, b = _act(g, edges[:, :2]), _act(g, edges[:, 2:])
    swap = (_lead((b - a).reshape(-1, 2)) < 0).reshape(g.order, -1, 1)  # canonical_edge
    images = np.concatenate([np.where(swap, b, a), np.where(swap, a, b)], axis=2)
    orbits = _orbits(edges, images, g.order, "edge")
    assert orbits.shape == (len(edges) // g.order, g.order)
    assert sorted(orbits.ravel().tolist()) == list(range(len(edges)))


def test_distance_equivariance(a2):
    # d_s(g lam, g e) == d_s(lam, e) exactly; this licenses orbit reduction.
    g = group_for(a2)
    sub = design_sublattice("A2", 31, params=(5, -1))
    endpoints = base_edge_set(sub)
    edges = [canonical_edge((0, 0), p) for p in endpoints if any(p)][:6]
    pts = list(sub.voronoi_reps)[:8]
    for m in g.elements:
        for lam in pts:
            for e in edges:
                ge = canonical_edge(_imatvec(m, e[0]), _imatvec(m, e[1]))
                assert ds_cost(a2, _imatvec(m, lam), ge) == ds_cost(a2, lam, e)
