"""Exact integer-lattice geometry for Z, Z^2, Z^4, Z^8 and the hexagonal lattice.

Conventions used throughout the package:

* Points are integer coordinate vectors (tuples) in the lattice basis; the
  basis vectors are the *columns* of the generator matrix.
* All inner products and norms are dimension-normalized,
  ``<x,y> = (1/L) sum x_i y_i``.  To stay in exact integer arithmetic we work
  with the *unnormalized* squared length ``L*||u||^2``, which is an integer
  for every supported lattice (for the hexagonal lattice it is the binary
  quadratic form ``x^2 + y^2 - x*y``).  The one Gram form, ``inner2`` and
  ``norms`` on integer rows, picks int64 or Python ints itself.
* Ties in nearest-point searches are broken toward the candidate whose
  integer coordinate vector is lexicographically smallest.  Lexicographic
  order is translation invariant, which makes the tie rule shift-equivariant.
* ``Lattice.ball`` is the one enumeration of lattice points by norm: the
  edge set, the edge histogram and the theta shells read it (Z^4 and Z^8
  through the series of Z^2), and the discrete Voronoi set reads it in
  blocks (``ball_blocks``).  One size cap ends an oversized ball or shell
  table in ``ResourceLimit`` before the oversized array is allocated.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import InvalidInput, ResourceLimit

LATTICE_NAMES = ("Z1", "Z2", "Z4", "Z8", "A2")

_SQRT3 = math.sqrt(3.0)

# Largest array, in int64 entries, that ball() builds or shells() counts into,
# and the most shift-adds, in entries, of the theta series product in shells().
_SHELL_CAP = 20_000_000


def _capped(size: int, what: str) -> None:
    """ResourceLimit unless ``size`` is within _SHELL_CAP."""
    if size > _SHELL_CAP:
        raise ResourceLimit(f"{what} of {size} entries exceeds the cap of {_SHELL_CAP}")


def _reach(x: np.ndarray) -> int:
    """max |x| over the entries of an integer array, as a Python int."""
    return max(-int(x.min(initial=0)), int(x.max(initial=0)))


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Exact floor square roots of an int64 array of values below 2^53: the
    correctly rounded float root is never below an integer root, and is at
    most one above the floor."""
    r = np.sqrt(v).astype(np.int64)
    return r - (r * r > v)


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

    # -- the Gram form on integer rows, and the embedding ----------------------

    def inner2(self, a, b) -> np.ndarray:
        """2x the unnormalized inner product of each row pair of the (n, L)
        integer arrays ``a`` and ``b``, exact: in int64 while
        max|a| max|b| sum|gram2| < 2^63, which bounds every partial sum,
        else on Python ints in object arrays."""
        a, b, g = np.asarray(a), np.asarray(b), self.gram2
        if a.dtype.kind == b.dtype.kind == "i" and _reach(a) * _reach(b) * int(np.abs(g).sum()) < 2**63:
            a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
        else:
            a, b, g = a.astype(object), b.astype(object), g.astype(object)
        return (a @ g * b).sum(axis=1)

    def norms(self, points) -> np.ndarray:
        """Unnormalized squared length L*||u||^2 of each row of ``points``."""
        return self.inner2(points, points) // 2

    def embed(self, u) -> np.ndarray:
        """Map lattice coordinates to a point of R^L."""
        return self.basis @ np.asarray(u, dtype=float)

    # -- lattice points by norm -----------------------------------------------

    def ball(self, max_norm: int) -> np.ndarray:
        """Every coordinate vector u with L*||u||^2 <= max_norm, as the rows of
        an (n, L) int64 array in lexicographic order."""
        return next(self.ball_blocks(max_norm, math.inf))

    def ball_blocks(self, max_norm: int, rows):
        """Yield the rows of ``ball(max_norm)`` in order, in consecutive arrays.

        Built one coordinate at a time: each prefix row is repeated once for
        each value of the next coordinate that keeps the norm within
        max_norm, an interval given by exact integer square roots.  Prefixes
        whose next step would pass ``rows`` points are split in two first;
        each step's size is checked against the cap before it is allocated.
        """
        # x^2 - xy + y^2 = (y - x/2)^2 + 3x^2/4 bounds x^2 by 4/3 max_norm on
        # A2.  Python ints here, so a huge max_norm only trips the cap.
        b = math.isqrt(4 * max_norm // 3 if self.name == "A2" else max_norm)
        _capped((2 * b + 1) * self.dim, "ball")
        stack = [np.arange(-b, b + 1).reshape(-1, 1)]
        while stack:
            pts = stack.pop()
            k = pts.shape[1]
            if k == self.dim:
                yield pts
                continue
            if self.name == "A2":
                # y may take each value with (2y - x)^2 <= 4 max_norm - 3x^2.
                x = pts[:, 0]
                r = _isqrt(4 * max_norm - 3 * x * x)
                lo, hi = (x - r + 1) // 2, (x + r) // 2
            else:
                r = _isqrt(max_norm - (pts * pts).sum(axis=1))
                lo, hi = -r, r
            counts = hi - lo + 1
            n = int(counts.sum())
            if n > rows and len(pts) > 1:
                stack += [pts[len(pts) // 2 :], pts[: len(pts) // 2]]
                continue
            _capped(n * self.dim, "ball")
            out = np.empty((n, k + 1), dtype=np.int64)
            out[:, :k] = np.repeat(pts, counts, axis=0)
            out[:, k] = np.arange(n) - np.repeat(np.cumsum(counts) - counts - lo, counts)
            stack.append(out)

    def shells(self, max_norm: int) -> "ThetaShells":
        """Exact shell counts A[i] = #{u : L*||u||^2 = i} for i <= max_norm:
        the norms of ``ball(max_norm)`` on Z1, Z2 and A2.  Z^L for L > 2 is Z^2
        plus L - 2 copies of Z, each of which shift-adds the series once per
        nonzero square."""
        _capped(max_norm + 1, "shell table")
        squares = [x * x for x in range(1, math.isqrt(max_norm) + 1)]
        factors = max(self.dim - 2, 0)
        _capped(factors * len(squares) * (max_norm + 1), "theta series product")
        plane = self if self.dim <= 2 else get_lattice("Z2")
        counts = np.bincount(plane.norms(plane.ball(max_norm)), minlength=max_norm + 1)
        for _ in range(factors):
            prev = counts.copy()
            for s in squares:
                counts[s:] += 2 * prev[: max_norm + 1 - s]
        return ThetaShells(tuple(counts.tolist()))

    def shells_covering(self, n: int) -> "ThetaShells":
        """Shell counts up to the first norm 8 * 2^k whose ball holds >= n points."""
        max_norm = 8
        shells = self.shells(max_norm)
        while shells.S(max_norm) < n:
            max_norm *= 2
            shells = self.shells(max_norm)
        return shells

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


def int_value(v, what: str) -> int:
    """``v`` as a Python int; InvalidInput naming ``what`` and ``v`` otherwise."""
    try:
        return operator.index(v)
    except TypeError:
        raise InvalidInput(f"{what} {v!r} is not an integer") from None


def get_lattice(name: str) -> Lattice:
    """Look up a supported lattice by its canonical name."""
    key = name.upper() if isinstance(name, str) else name
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

