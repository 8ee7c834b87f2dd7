import numpy as np
import pytest

from mdlq.errors import GroupPropertyViolation, SizeMismatch
from mdlq.labeling import _orbit_reps, base_edge_set, canonical_edge
from mdlq.lattices import get_lattice
from mdlq.sublattices import SimilarSublattice, _imatvec, design_sublattice
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


def test_minus_identity_group(a2):
    g = minus_identity_group(a2)
    assert g.order == 2
    check_group(g)


# -- orbits ---------------------------------------------------------------------


def _point_orbits(g, pts, size=None):
    return _orbit_reps(g, pts, _imatvec, g.order if size is None else size, "point")


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
    edges = [canonical_edge((0, 0), p) for p in endpoints if any(p)]
    act = lambda m, e: canonical_edge(_imatvec(m, e[0]), _imatvec(m, e[1]))  # noqa: E731
    reps = _orbit_reps(g, edges, act, g.order, "edge")
    assert len(reps) * g.order == len(edges)


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
