"""Symmetry groups used to shrink the labeling assignment problem.

Each supported lattice carries a fixed finite matrix group acting on
coordinate vectors.  Its elements are kept as a sorted tuple of integer
matrices and handled as one (order, L, L) int64 array, the form in which the
labeling applies them (``labeling._act``).  The closure of the generators
grows that array by one product with the generators per round and sorts it
with ``np.unique``.  The group must satisfy six structural properties
(checked once per lattice, when its group is first made, each by array
products): it contains -I, is orthogonal with respect to the lattice Gram
form, is closed with identity and inverses, preserves the lattice, acts
fixed-point free, and has order dividing the gcd of the shell sizes.  Each
check names the first element that fails it.

Fixed-point freedom takes no determinant: once closure holds, the order of
an element g divides the number n of distinct elements, so the power sum
g^0 + g^1 + ... + g^(n-1) is n/ord(g) times the projection onto the vectors
g fixes, and g fixes no nonzero vector exactly when that sum is 0.  (On a
set that is not closed the rule is wrong, so it runs after the closure
check.)  When a sublattice is supplied the group must be of its lattice and
normalize it as well, checked on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GroupPropertyViolation, InvalidInput
from .lattices import Lattice, get_lattice
from .sublattices import SimilarSublattice, bulk_coset_index, z8_gamma_matrices


@dataclass(frozen=True)
class SymmetryGroup:
    lattice: Lattice
    elements: tuple  # tuple of LxL integer matrices (tuples of tuples)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"SymmetryGroup({self.lattice.name}, order={self.order})"


def _tuples(mats: np.ndarray) -> tuple:
    """An (n, L, L) integer array as a tuple of matrices of Python ints."""
    return tuple(tuple(map(tuple, m)) for m in mats.tolist())


def _generators(lat: Lattice):
    name = lat.name
    if name == "Z1":
        return [((-1,),)]
    if name == "Z2":
        return [((0, -1), (1, 0)), ((-1, 0), (0, -1))]
    if name == "A2":
        # Rotation by pi/3: multiplication by 1 + w in the basis {1, w}.
        return [((1, -1), (1, 0))]
    if name == "Z4":
        return [
            ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)),
            ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0)),
            ((0, 0, 0, -1), (0, 0, 1, 0), (0, -1, 0, 0), (1, 0, 0, 0)),
            tuple(tuple(-1 if i == j else 0 for j in range(4)) for i in range(4)),
        ]
    if name == "Z8":
        return z8_gamma_matrices()
    raise ValueError(name)


def _closure(gens, dim):
    """The sorted elements of the group the generators make: each round
    appends every element times every generator and keeps the distinct ones,
    until a round adds none."""
    gens = np.array(gens, dtype=np.int64)
    elems = np.eye(dim, dtype=np.int64)[None]
    while True:
        grown = np.unique(np.concatenate([elems, (elems[:, None] @ gens).reshape(-1, dim, dim)]), axis=0)
        if len(grown) > 512:
            raise GroupPropertyViolation("closure", "generated group is unexpectedly large")
        if len(grown) == len(elems):
            return _tuples(grown)
        elems = grown


def _check_lattice_group(group: SymmetryGroup) -> None:
    """The checks that depend only on the group and its lattice."""
    lat = group.lattice
    dim = lat.dim
    g = np.array(group.elements, dtype=np.int64).reshape(-1, dim, dim)
    eye = np.eye(dim, dtype=np.int64)

    def equal(mats, m):  # which of the matrices along the last two axes are m
        return (mats == m).all(axis=(-2, -1))

    def first(bad, what):
        if bad.any():
            raise GroupPropertyViolation(what, f"element {group.elements[int(bad.argmax())]}")

    if not equal(g, -eye).any():
        raise GroupPropertyViolation("contains -I")
    first(~equal(g.transpose(0, 2, 1) @ lat.gram2 @ g, lat.gram2), "orthogonal")
    prods = g[:, None] @ g  # prods[a, b] = g_a g_b
    distinct = {m.tobytes() for m in g}
    if not all(p.tobytes() in distinct for p in prods.reshape(-1, dim, dim)):
        raise GroupPropertyViolation("closure")
    if not equal(g, eye).any():
        raise GroupPropertyViolation("identity")
    # Finite + closed implies inverses, but check explicitly.
    first(~equal(prods, eye).any(axis=1), "inverses")
    total, power = np.zeros_like(g), np.broadcast_to(eye, g.shape)
    for _ in range(len(distinct)):
        total += power
        power = power @ g
    first(~equal(g, eye) & total.any(axis=(1, 2)), "fixed-point free")
    shells = lat.shells(16 if lat.dim <= 4 else 4).A
    sizes = [a for a in shells[1:] if a]
    if sizes and math.gcd(*sizes) % group.order != 0:
        raise GroupPropertyViolation(
            "order divides shell-size gcd", f"gcd={math.gcd(*sizes)}, order={group.order}"
        )


def _check_group_lattice(sub: SimilarSublattice, group: SymmetryGroup) -> None:
    if group.lattice.name != sub.lattice.name:
        raise InvalidInput(f"a group of {group.lattice.name} cannot act on a {sub.lattice.name} design")


def _check_preserves(group: SymmetryGroup, sub: SimilarSublattice) -> None:
    # g * Lambda' == Lambda': every column of g*Gt is a sublattice point.  (The
    # conjugate Gt^-1 g Gt is then an integer isometry of the sublattice; it
    # need not lie in the group itself.)
    cols = (np.array(group.elements, dtype=np.int64) @ sub.gtilde).transpose(0, 2, 1)
    off = bulk_coset_index(sub, cols.reshape(-1, sub.dim)) != 0
    if off.any():
        g = group.elements[int(off.argmax()) // sub.dim]
        raise GroupPropertyViolation("preserves sublattice", f"element {g}")


@functools.cache
def _lattice_group_elements(name: str) -> tuple:
    """The standard group's elements for one lattice name, checked once."""
    lat = get_lattice(name)
    group = SymmetryGroup(lat, _closure(_generators(lat), lat.dim))
    _check_lattice_group(group)
    return group.elements


def group_for(lat: Lattice, sub: SimilarSublattice | None = None) -> SymmetryGroup:
    """The standard group for a lattice, fully property-checked.  The lattice
    checks run once per lattice name; with a sublattice, InvalidInput unless
    it is of the same lattice, and "preserves sublattice" runs every call."""
    group = SymmetryGroup(lat, _lattice_group_elements(lat.name))
    if sub is not None:
        _check_group_lattice(sub, group)
        _check_preserves(group, sub)
    return group


def minus_identity_group(lat: Lattice) -> SymmetryGroup:
    """The fallback group {I, -I}, valid for every lattice."""
    eye = np.eye(lat.dim, dtype=np.int64)
    return SymmetryGroup(lat, _tuples(np.stack([-eye, eye])))
