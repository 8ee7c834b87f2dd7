from functools import cache

import pytest

from mdlq.evaluation import build_design
from mdlq.labeling import build_labeling
from mdlq.lattices import get_lattice
from mdlq.sublattices import design_sublattice


@cache
def design(name, n, params=None):
    """The package's cached design of index n, or the design on explicit
    params (such as the worked example's A2/31 frame), built once."""
    if params is None:
        return build_design(name, n)
    return build_labeling(design_sublattice(name, n, params=params))


@pytest.fixture(scope="session")
def a2():
    return get_lattice("A2")


@pytest.fixture(scope="session")
def z1():
    return get_lattice("Z1")


@pytest.fixture(scope="session")
def z2():
    return get_lattice("Z2")


@pytest.fixture(scope="session")
def lab31():
    """Optimal design for the hexagonal lattice, N=31, in the u = 5 - w frame."""
    return design("A2", 31, params=(5, -1))
