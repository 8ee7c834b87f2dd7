import re

import numpy as np
import pytest

from mdlq.errors import GroupPropertyViolation, SizeMismatch
from mdlq.labeling import _act, _lead, _orbits, base_edge_set, canonical_edge
from mdlq.lattices import get_lattice
from mdlq.sublattices import (
    SimilarSublattice,
    _imatmul,
    _imatvec,
    design_sublattice,
    sublattice_indices,
)
from mdlq.symmetry import SymmetryGroup, group_for, minus_identity_group

from .reference_design import check_group, ds_cost


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


def _first_element_off(group, sub):
    """The first element that moves a column of Gt off the sublattice, one
    column at a time; None if every element preserves it."""
    cols = lambda g: zip(*_imatmul(g, sub.gtilde_rows))  # noqa: E731
    return next((g for g in group.elements if not all(map(sub.contains, cols(g)))), None)


@pytest.mark.parametrize("name,n_max", [("Z1", 51), ("Z2", 400), ("A2", 400), ("Z4", 700), ("Z8", 700)])
def test_preserves_check_names_the_first_failing_element(name, n_max):
    lat = get_lattice(name)
    group = group_for(lat)
    subs = [design_sublattice(name, n) for n in sorted(sublattice_indices(lat, n_max))]
    subs.append(SimilarSublattice(lat, (), np.diag([1] * (lat.dim - 1) + [3]), 3, 3))
    for sub in subs:
        first = _first_element_off(group, sub)
        if first is None:
            group_for(lat, sub)
        else:
            with pytest.raises(GroupPropertyViolation, match=re.escape(f"element {first}")):
                group_for(lat, sub)


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
