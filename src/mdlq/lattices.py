"""Exact integer-lattice geometry for Z, Z^2, Z^4, Z^8 and the hexagonal lattice.

Conventions used throughout the package:

* Points are integer coordinate vectors (tuples) in the lattice basis; the
  basis vectors are the *columns* of the generator matrix.
* All inner products and norms are dimension-normalized,
  ``<x,y> = (1/L) sum x_i y_i``.  To stay in exact integer arithmetic we work
  with the *unnormalized* squared length ``L*||u||^2``, which is an integer
  for every supported lattice (for the hexagonal lattice it is the binary
  quadratic form ``x^2 + y^2 - x*y``).
* Ties in nearest-point searches are broken toward the candidate whose
  integer coordinate vector is lexicographically smallest.  Lexicographic
  order is translation invariant, which makes the tie rule shift-equivariant.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import InvalidInput, ResourceLimit

LATTICE_NAMES = ("Z1", "Z2", "Z4", "Z8", "A2")

_SQRT3 = math.sqrt(3.0)

# Largest enumeration (grid points or shift-add steps) shells() will run.
_SHELL_CAP = 20_000_000


@dataclass(frozen=True)
class Lattice:
    """One of the five supported lattices at unit scale (minimal length 1)."""

    name: str
    dim: int
    # Columns are basis vectors.  Only used for embeddings; all combinatorial
    # work happens on integer coordinates.
    basis: np.ndarray
    # 2x the unnormalized Gram matrix, an exact integer matrix.
    gram2: np.ndarray
    fundamental_volume: float

    def __repr__(self) -> str:
        return f"Lattice({self.name})"

    # -- exact arithmetic on coordinate vectors -----------------------------

    @cached_property
    def gram2_rows(self):
        """``gram2`` as a tuple of rows of Python ints."""
        return tuple(map(tuple, self.gram2.tolist()))

    def qshell(self, u) -> int:
        """Unnormalized squared length L*||u||^2 (an integer)."""
        return self.inner2(u, u) // 2

    def norms(self, points) -> np.ndarray:
        """L*||u||^2 of each row of ``points``, exact while no product overflows its dtype."""
        p = np.asarray(points)
        return ((p @ self.gram2) * p).sum(axis=1) // 2

    def inner2(self, u, v) -> int:
        """2x the unnormalized inner product of coordinate vectors (integer);
        see ``int_point`` for the vectors it takes."""
        u, v = int_point(u, self.dim), int_point(v, self.dim)
        rows = self.gram2_rows
        return sum(x * sum(map(operator.mul, row, v)) for x, row in zip(u, rows) if x)

    def embed(self, u) -> np.ndarray:
        """Map lattice coordinates to a point of R^L."""
        return self.basis @ np.asarray(u, dtype=float)

    # -- theta shells ---------------------------------------------------------

    def shells(self, max_norm: int) -> "ThetaShells":
        """Exact shell counts A[i] = #{u : L*||u||^2 = i} for i <= max_norm."""
        if max_norm < 0:
            raise ValueError("max_norm must be >= 0")
        if self.name == "A2":
            # x^2 + y^2 - x*y >= (x^2 + y^2)/2, so |x|,|y| <= sqrt(2*max_norm)
            b = math.isqrt(2 * max_norm) + 1
            if (2 * b + 1) ** 2 > _SHELL_CAP:
                raise ResourceLimit(f"shell enumeration over {(2*b+1)**2} points exceeds cap")
            counts = np.zeros(max_norm + 1, dtype=np.int64)
            xs = np.arange(-b, b + 1)
            gx, gy = np.meshgrid(xs, xs, indexing="ij")
            q = gx * gx + gy * gy - gx * gy
            sel = q <= max_norm
            np.add.at(counts, q[sel], 1)
        else:
            # Separable exact count: the L-fold coordinate enumeration
            # factorizes into an L-fold convolution of the 1-D counts, whose
            # only nonzero entries sit at the squares x^2 <= max_norm.  Each
            # convolution shift-adds the counts once per square.
            squares = [x * x for x in range(math.isqrt(max_norm) + 1)]
            work = (self.dim - 1) * len(squares) * (max_norm + 1) + max_norm + 1
            if work > _SHELL_CAP:
                raise ResourceLimit("shell enumeration exceeds cap")
            base = np.zeros(max_norm + 1, dtype=np.int64)
            base[squares] = 2
            base[0] = 1
            counts = base
            for _ in range(self.dim - 1):
                conv = counts.copy()
                for s in squares[1:]:
                    conv[s:] += 2 * counts[: max_norm + 1 - s]
                counts = conv
        return ThetaShells(tuple(int(c) for c in counts))

    def shells_covering(self, n: int) -> "ThetaShells":
        """Shell counts up to the first norm 8 * 2^k whose ball holds >= n points."""
        max_norm = 8
        shells = self.shells(max_norm)
        while shells.S(max_norm) < n:
            max_norm *= 2
            shells = self.shells(max_norm)
        return shells

    def points_in_shell_ball(self, max_norm: int):
        """Yield every coordinate vector with L*||u||^2 <= max_norm, in
        lexicographic order."""
        if self.name == "A2":
            b = math.isqrt(2 * max_norm) + 1
            for x in range(-b, b + 1):
                for y in range(-b, b + 1):
                    if x * x + y * y - x * y <= max_norm:
                        yield (x, y)
        else:
            yield from _cubic_ball(self.dim, max_norm)

    # -- second moments & radii ----------------------------------------------

    def second_moment(self) -> float:
        """Dimension-normalized second moment G of the Voronoi cell."""
        if self.name == "A2":
            return 5.0 / (36.0 * _SQRT3)
        return 1.0 / 12.0

    def covering_radius_sq(self) -> Fraction:
        """Squared covering radius in the normalized norm, exact."""
        if self.name == "A2":
            return Fraction(1, 6)
        return Fraction(1, 4)


@dataclass(frozen=True)
class ThetaShells:
    """Shell counts of a lattice; A[i] counts points at unnormalized norm i."""

    A: tuple

    def S(self, m: int) -> int:
        """Number of points in the first m shells (cumulative count)."""
        return sum(self.A[: m + 1])

    def __len__(self) -> int:
        return len(self.A)


def int_point(v, dim: int, error=InvalidInput):
    """``v`` as a tuple of ``dim`` Python ints; anything else raises ``error``.

    The public scalar entry points check their outside vectors here; Python
    ints keep the exact arithmetic free of int64 wrap-around."""
    try:
        p = tuple(map(operator.index, v))
    except TypeError:
        raise error(f"{v!r} is not a vector of integers") from None
    if len(p) != dim:
        raise error(f"{v!r} has {len(p)} coordinates, expected {dim}")
    return p


def _cubic_ball(dim: int, budget: int):
    """Integer vectors with sum of squares <= budget, lexicographically.  Each
    coordinate spends part of the budget, so only points of the ball are
    visited; the generator keeps no partial vectors alive."""
    if dim == 0:
        yield ()
        return
    b = math.isqrt(budget)
    for x in range(-b, b + 1):
        for rest in _cubic_ball(dim - 1, budget - x * x):
            yield (x, *rest)


def get_lattice(name: str) -> Lattice:
    """Look up a supported lattice by its canonical name."""
    key = name.upper() if name.lower() != "a2" else "A2"
    if key not in LATTICE_NAMES:
        raise InvalidInput(f"unknown lattice {name!r}; expected one of {LATTICE_NAMES}")
    if key == "A2":
        basis = np.array([[1.0, -0.5], [0.0, _SQRT3 / 2.0]])
        gram2 = np.array([[2, -1], [-1, 2]], dtype=np.int64)
        return Lattice("A2", 2, basis, gram2, _SQRT3 / 2.0)
    dim = int(key[1])
    return Lattice(key, dim, np.eye(dim), 2 * np.eye(dim, dtype=np.int64), 1.0)


def sphere_second_moment(dim: int) -> float:
    """Normalized second moment of an L-dimensional ball.

    Evaluates Gamma(L/2+1)^(2/L) / ((L+2)*pi); tends to 1/(2*pi*e) as the
    dimension grows.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return math.exp((2.0 / dim) * math.lgamma(dim / 2.0 + 1.0)) / ((dim + 2) * math.pi)


def shell_prefix(lat: Lattice, n: int):
    """Running sums of the theta series of ``shells_covering(n)``, exact:
    S[k] points and W[k] = sum_{i<=k} i * A_i of norm in the first k shells."""
    a = lat.shells_covering(n).A
    return list(accumulate(a)), list(accumulate(i * ai for i, ai in enumerate(a)))


def filled_shell(running, n: int):
    """The first K with running[K] == n, or None when the running counts skip n."""
    k = bisect_left(running, n)
    return k if k < len(running) and running[k] == n else None

