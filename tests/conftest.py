import pytest

from mdlq.evaluation import build_design as design  # the package's design cache
from mdlq.lattices import get_lattice


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
