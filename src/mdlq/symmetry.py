"""Symmetry groups used to shrink the labeling assignment problem.

Each supported lattice carries a fixed finite matrix group acting on
coordinate vectors.  The group must satisfy six structural properties
(checked once per lattice, when its group is first made): it contains -I,
is orthogonal with respect to the lattice Gram form, is closed with identity
and inverses, preserves the lattice, acts fixed-point free, and has order
dividing the gcd of the shell sizes.  When a sublattice is supplied the group
must normalize it as well, checked on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GroupPropertyViolation
from .lattices import Lattice, get_lattice
from .sublattices import SimilarSublattice, _imatmul, bulk_coset_index, z8_gamma_matrices


def _idet(m) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [[Fraction(int(x)) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    assert det.denominator == 1
    return int(det)


def _identity(dim):
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


def _negated(m):
    return tuple(tuple(-x for x in row) for row in m)


@dataclass(frozen=True)
class SymmetryGroup:
    lattice: Lattice
    elements: tuple  # tuple of LxL integer matrices (tuples of tuples)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"SymmetryGroup({self.lattice.name}, order={self.order})"


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
        return [tuple(map(tuple, g.tolist())) for g in z8_gamma_matrices()]
    raise ValueError(name)


def _closure(gens, dim):
    ident = _identity(dim)
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = _imatmul(m, g)
                if p not in elems:
                    elems.add(p)
                    nxt.append(p)
        frontier = nxt
        if len(elems) > 512:
            raise GroupPropertyViolation("closure", "generated group is unexpectedly large")
    return tuple(sorted(elems))


def _check_lattice_group(group: SymmetryGroup) -> None:
    """The checks that depend only on the group and its lattice."""
    lat = group.lattice
    dim = lat.dim
    elems = set(group.elements)
    ident = _identity(dim)
    if _negated(ident) not in elems:
        raise GroupPropertyViolation("contains -I")
    gram = lat.gram2_rows
    for g in group.elements:
        if _imatmul(_imatmul(tuple(zip(*g)), gram), g) != gram:
            raise GroupPropertyViolation("orthogonal", f"element {g}")
    for a in group.elements:
        for b in group.elements:
            if _imatmul(a, b) not in elems:
                raise GroupPropertyViolation("closure")
    if ident not in elems:
        raise GroupPropertyViolation("identity")
    # Finite + closed implies inverses, but check explicitly.
    for g in group.elements:
        if not any(_imatmul(g, h) == ident for h in group.elements):
            raise GroupPropertyViolation("inverses", f"element {g}")
    for g in group.elements:
        if g == ident:
            continue
        gi = [[g[i][j] - (1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        if _idet(gi) == 0:
            raise GroupPropertyViolation("fixed-point free", f"element {g}")
    shells = lat.shells(16 if lat.dim <= 4 else 4).A
    sizes = [a for a in shells[1:] if a]
    if sizes and math.gcd(*sizes) % group.order != 0:
        raise GroupPropertyViolation(
            "order divides shell-size gcd", f"gcd={math.gcd(*sizes)}, order={group.order}"
        )


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
    checks run once per lattice name; "preserves sublattice" runs every call."""
    group = SymmetryGroup(lat, _lattice_group_elements(lat.name))
    if sub is not None:
        _check_preserves(group, sub)
    return group


def minus_identity_group(lat: Lattice) -> SymmetryGroup:
    """The fallback group {I, -I}, valid for every lattice."""
    ident = _identity(lat.dim)
    return SymmetryGroup(lat, tuple(sorted([ident, _negated(ident)])))
