"""Geometrically similar sublattices and coset arithmetic.

A similar sublattice of index N is generated (in parent-lattice coordinates)
by an integer matrix Gt whose columns span a scaled-rotated copy of the
parent.  The working certificate is

    Gt^T * Gram * Gt == c^2 * Gram      (exactly, in integers)

with c^2 = N^(2/L); this is the coordinate-frame version of "Gt/c is
orthogonal".  It and the self-checks of ``adjugate`` and ``coset_form`` are
object-dtype array products of Python ints, so no entry wraps.  The index
N equals |det Gt| and is recovered from the certificate as c^L, so no
floating point enters the construction.

Families (parameters follow the generator constructions for each lattice):

* Z1: params (n,), n odd; Gt = [[n]].
* Z2: params (a, b) with N = a^2 + b^2 odd; Gt = [[a, -b], [b, a]].
* A2: params (a, b) with N = a^2 - a*b + b^2; the sublattice is generated by
  u = a + b*w and w*u in the hexagonal basis {1, w}.
* Z4: params (a, b, c, d); s = a^2+b^2+c^2+d^2 must be odd, Gt is the
  quaternionic matrix of s, and N = s^2 (an odd perfect square).
* Z8: params (a, b, c, d); columns of Gt are the orbit of
  v = (a,0,b,0,c,0,d,0) under the order-16 matrix group, N = s^4.

``_FAMILIES`` holds these norm forms N(params) and the odd-index rule once:
``build_sublattice`` checks explicit params against them, and one
lexicographic enumeration of nonnegative params gives both ``find_params``
(the first vector of norm N) and ``sublattice_indices`` (the set of norms).

Every coset decision reads one exact coset index: with the Smith normal
form U Gt V = diag(d) (``_smith_rows``, on Python ints), the index of v is
the mixed-radix number of the digits (U_i v) mod d_i over the invariant
factors d_i > 1 (``coset_form``), 0 exactly on the sublattice, and
``coset_reps`` lists the V0(0) point of each index.  ``coset_reduce`` and
``contains`` read it for one vector, ``bulk_coset_index`` for the rows of
an array.  The nearest sublattice point to a target that need not be a
lattice point (edge relocation, the Voronoi filter) is
``bulk_nearest2_coords``, in sublattice coordinates u (``bulk_nearest2`` is
Gt u and the scalar ``nearest2`` one row of it); it reads ``cell_offsets``
on A2 and ``tie_side`` in the cubic frames; ``voronoi_reps`` runs it over
``Lattice.ball_blocks`` at the covering radius.  The public scalar
methods check their vectors with ``lattices.int_point`` on entry; the
internal products take Python ints.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InadmissibleIndex, InvalidInput, NoRepresentation, NotSimilar
from .lattices import Lattice, get_lattice, int_point, int_value


def _imatvec(m, v):
    """Exact product of the Python-int rows ``m`` and the Python-int vector ``v``."""
    return tuple(sum(map(operator.mul, row, v)) for row in m)


def _smith_rows(m):
    """(U, d) for a nonsingular square matrix m of Python ints: U unimodular
    and d the invariant factors (d_i divides d_i+1) of its Smith normal form
    U m V = diag(d).  The column operations V are applied but not kept."""
    a = [list(row) for row in m]
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(n):
        while True:
            # The smallest nonzero entry of the trailing block is the pivot.
            _, i, j = min((abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, n) if a[i][j])
            a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, n):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
            if any(a[t][t + 1 :]):
                continue
            # A row with a remainder below the pivot, or an entry the pivot
            # does not divide, goes into row t, whose next reduction leaves
            # a remainder smaller than the pivot.
            bad = next((i for i in range(t + 1, n) if any(x % p for x in a[i])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
    return u, [abs(a[t][t]) for t in range(n)]


def z8_gamma_matrices():
    """Generators gamma_1 (order 8) and gamma_8 of the Z^8 symmetry group."""
    c = np.zeros((4, 4), dtype=np.int64)
    c[0, 1] = c[1, 2] = c[2, 3] = 1
    c[3, 0] = -1
    g1 = np.zeros((8, 8), dtype=np.int64)
    g1[:4, :4] = c
    g1[4:, 4:] = c
    g8 = np.zeros((8, 8), dtype=np.int64)
    g8[0, 4] = 1
    g8[1, 7] = -1
    g8[2, 6] = -1
    g8[3, 5] = -1
    g8[4, 0] = -1
    g8[5, 3] = 1
    g8[6, 2] = 1
    g8[7, 1] = 1
    return g1, g8


def _gtilde(lat: Lattice, params) -> np.ndarray:
    name = lat.name
    if name == "Z1":
        (n,) = params
        return np.array([[n]], dtype=np.int64)
    if name == "Z2":
        a, b = params
        return np.array([[a, -b], [b, a]], dtype=np.int64)
    if name == "A2":
        # Multiplication by u = a + b*w in the basis {1, w}, w^2 = -1 - w.
        a, b = params
        return np.array([[a, -b], [b, a - b]], dtype=np.int64)
    if name == "Z4":
        a, b, c, d = params
        return np.array(
            [[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]], dtype=np.int64
        )
    if name == "Z8":
        a, b, c, d = params
        v = np.array([a, 0, b, 0, c, 0, d, 0], dtype=np.int64)
        g1, g8 = z8_gamma_matrices()
        cols = []
        m = np.eye(8, dtype=np.int64)
        for _ in range(4):
            cols.append(m @ v)
            m = g1 @ m
        m = g8.copy()
        for _ in range(4):
            cols.append(m @ v)
            m = m @ g1
        return np.stack(cols, axis=1)
    raise ValueError(f"unsupported lattice {name}")


class _Family(NamedTuple):
    arity: int
    form: str  # the index N in terms of the parameters
    norm: Callable  # the same on Python ints or int64 arrays
    bound: Callable  # no nonnegative params of norm <= n exceed bound(n)
    odd: bool  # whether N must be odd


def _sumsq(*params):
    return sum(p * p for p in params)


# On A2 the params (a, b) with a < 0 <= b have the nonnegative twin (b - a, b)
# of the same norm, and a^2 - ab + b^2 >= 3 max(a, b)^2 / 4 for a, b >= 0.
_FAMILIES = {
    "Z1": _Family(1, "n", lambda n: n, lambda n: n, True),
    "Z2": _Family(2, "a^2 + b^2", _sumsq, math.isqrt, True),
    "A2": _Family(
        2,
        "a^2 - ab + b^2",
        lambda a, b: a * a - a * b + b * b,
        lambda n: math.isqrt(4 * n // 3),
        False,
    ),
    "Z4": _Family(
        4,
        "(a^2 + b^2 + c^2 + d^2)^2",
        lambda *p: _sumsq(*p) ** 2,
        lambda n: math.isqrt(math.isqrt(n)),
        True,
    ),
    "Z8": _Family(
        4,
        "(a^2 + b^2 + c^2 + d^2)^4",
        lambda *p: _sumsq(*p) ** 4,
        lambda n: math.isqrt(math.isqrt(math.isqrt(n))),
        False,
    ),
}
_BLOCK = 1 << 16  # rows per block of the parameter search and the Voronoi filter


def _admits(fam: _Family, n):
    """The index rule: N >= 1, and N odd where the family needs it (on ints or arrays)."""
    return (n >= 1) & (n % 2 == 1 if fam.odd else True)


def _check_params(lat: Lattice, params):
    fam = _FAMILIES[lat.name]
    if len(params) != fam.arity:
        raise InadmissibleIndex(f"{lat.name} takes {fam.arity} parameters, got {len(params)}")
    n = fam.norm(*params)
    if not _admits(fam, n):
        odd = "odd and " if fam.odd else ""
        raise InadmissibleIndex(f"{lat.name} index {fam.form} must be {odd}positive, got {n}")


def _param_blocks(lat: Lattice, n_max: int):
    """Every nonnegative parameter vector whose index N <= n_max the family
    admits, in lexicographic order: (params, norms) blocks of int64 arrays."""
    n_max = int_value(n_max, "index")
    if n_max >= 2**55:  # Z8's box corners reach norm 256 n_max, in int64
        raise InvalidInput(f"index {n_max} is beyond the int64 parameter search")
    fam = _FAMILIES[lat.name]
    shape = (fam.bound(max(n_max, 0)) + 1,) * fam.arity
    size = math.prod(shape)
    for start in range(0, size, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, size))
        params = np.stack(np.unravel_index(flat, shape), axis=1)
        norms = fam.norm(*params.T)
        keep = _admits(fam, norms) & (norms <= n_max)
        yield params[keep], norms[keep]


def sublattice_indices(lat: Lattice, n_max: int) -> set:
    """All indices N <= n_max at which ``lat`` has a similar sublattice."""
    return set(np.concatenate([norms for _, norms in _param_blocks(lat, n_max)]).tolist())


@dataclass(frozen=True)
class SimilarSublattice:
    """A geometrically similar sublattice Gt * Z^L of the parent lattice."""

    lattice: Lattice
    params: tuple
    gtilde: np.ndarray
    index: int  # N, the number of cosets
    scale_sq: int  # c^2 = N^(2/L)

    def __repr__(self) -> str:
        return f"SimilarSublattice({self.lattice.name}, N={self.index}, params={self.params})"

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @cached_property
    def gtilde_rows(self):
        """Gt as a tuple of rows of Python ints, for the exact scalar products."""
        return tuple(map(tuple, self.gtilde.tolist()))

    @cached_property
    def cell_offsets(self):
        """The 4 corners i*g0 + j*g1 (i, j in {0, 1}) of the cell spanned by
        the columns g0, g1 of Gt, lexicographically sorted: the candidates
        that ``bulk_nearest2_coords`` adds to the floor-cell corner on A2."""
        (a, b), (c, d) = self.gtilde_rows
        return tuple(sorted([(0, 0), (a, c), (b, d), (a + b, c + d)]))

    @cached_property
    def tie_side(self):
        """Per column g of Gt, 1 if g is lexicographically positive (its
        first nonzero entry is), else 0.

        In an orthogonal frame a sub-coordinate halfway between two integers
        rounds up, minus this bit, so a tie steps along g only where that
        lowers the point in lexicographic order.  Lexicographic order is
        compatible with addition, so the ties of all sub-coordinates resolve
        independently to the lexicographically smallest tied point.  A shift
        by a sublattice point shifts every tied point alike, so the rule keeps
        one point of each coset in V0(0), even at even N."""
        return tuple(int(next(x for x in col if x) > 0) for col in zip(*self.gtilde_rows))

    @cached_property
    def adjugate(self):
        """Integer matrix A with A @ Gt == N * I (exact inverse up to N)."""
        L = self.dim
        g = self.gtilde.astype(object)
        if L == 1:
            adj = np.ones((1, 1), dtype=object)
        elif L == 2:
            adj = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]], dtype=object)
        else:
            # Certificate gives Gt^-1 = Gt^T / c^2 for the cubic families.
            adj = self.index // self.scale_sq * g.T  # c^(L-2) Gt^T
        if not (adj @ g == self.index * np.eye(L, dtype=object)).all():
            adj = -adj
        return tuple(map(tuple, adj.tolist()))

    @cached_property
    def t2_bound(self) -> int:
        """Largest |doubled target| that ``bulk_nearest2`` takes in int64:
        every adjugate row times such a target stays below 2^62."""
        return 2**62 // max(sum(abs(x) for x in row) for row in self.adjugate)

    @cached_property
    def coset_form(self):
        """(rows, factors): the invariant factors d_i > 1 of Gt and, for each,
        the row U_i of the Smith form U Gt V = diag(d), reduced mod d_i.

        v is on the sublattice exactly when every U_i v is divisible by d_i, so
        the digits (U_i v) mod d_i name the coset of v.  Checked here: the
        factors multiply to N, and every row of U Gt is 0 mod its d_i."""
        u, d = _smith_rows(self.gtilde_rows)
        keep = [i for i in range(self.dim) if d[i] > 1]
        rows = tuple(tuple(x % d[i] for x in u[i]) for i in keep)
        factors = tuple(d[i] for i in keep)
        u_gt = np.array(rows, dtype=object).reshape(-1, self.dim) @ self.gtilde.astype(object)
        if math.prod(factors) != self.index or (u_gt % np.array(factors, dtype=object)[:, None]).any():
            raise NotSimilar(f"Smith form {d} does not fit the index {self.index}")
        return rows, factors

    def _coset_index(self, v) -> int:
        """Coset index of the Python-int vector v: the digits of ``coset_form``
        in mixed radix, the first most significant; 0 on the sublattice."""
        rows, factors = self.coset_form
        idx = 0
        for x, d in zip(_imatvec(rows, v), factors):
            idx = idx * d + x % d
        return idx

    @cached_property
    def coset_reps(self):
        """The V0(0) point of each coset, by coset index; NotSimilar unless
        the N points of V0(0) have N distinct indices."""
        reps = self.voronoi_reps
        idx = bulk_coset_index(self, np.array(reps, dtype=np.int64)).tolist()
        if len(set(idx)) != self.index:
            raise NotSimilar("two points of the discrete Voronoi set share a coset index")
        return tuple(rep for _, rep in sorted(zip(idx, reps)))

    # -- membership and coordinates ------------------------------------------

    def contains(self, v) -> bool:
        return self._coset_index(int_point(v, self.dim)) == 0

    def from_sub_coords(self, u):
        return _imatvec(self.gtilde_rows, int_point(u, self.dim))

    def coset_reduce(self, v):
        """Split v = v' + rep with rep the V0(0) point of the coset of v, so
        that v' is the nearest sublattice point to v."""
        v = int_point(v, self.dim)
        rep = self.coset_reps[self._coset_index(v)]
        return tuple(map(operator.sub, v, rep)), rep

    def nearest2(self, t2):
        """Nearest sublattice point to the half-integer target t2/2, for a
        doubled parent-coordinate vector of integers: one row of
        ``bulk_nearest2``, on Python ints."""
        t2 = np.array([int_point(t2, self.dim)], dtype=object)
        return tuple(bulk_nearest2(self, t2)[0].tolist())

    # -- discrete Voronoi set --------------------------------------------------

    @cached_property
    def voronoi_reps(self):
        """The N points of V0(0), lexicographically sorted.

        Every point of V0(0) lies within the covering radius of the
        sublattice, so an exact ball enumeration followed by the nearest-point
        filter is exhaustive.  The ball is streamed and filtered in blocks.
        """
        lat = self.lattice
        bound = Fraction(self.scale_sq * lat.dim) * lat.covering_radius_sq()
        pts = []
        for b in lat.ball_blocks(math.ceil(bound), _BLOCK):
            pts += map(tuple, b[~bulk_nearest2(self, 2 * b).any(axis=1)].tolist())
        if len(pts) != self.index:
            raise NotSimilar(f"discrete Voronoi set has {len(pts)} points, expected {self.index}")
        return tuple(pts)

    def covering_radius_sq(self) -> Fraction:
        """Normalized squared covering radius of the sublattice (unit scale)."""
        return Fraction(self.scale_sq) * self.lattice.covering_radius_sq()


def bulk_nearest2_coords(sub: SimilarSublattice, t2: np.ndarray) -> np.ndarray:
    """Sublattice coordinates u of the nearest sublattice point Gt u
    (``bulk_nearest2``) to each row t2/2 of an (n, L) integer array of doubled
    targets; ties go to the lexicographically smallest point.

    Only the sub-coordinates adj @ t2 can be large, and int64 holds them up to
    ``sub.t2_bound``; every later value lies near the target (and int64
    products wrap exactly).  Past the bound the same code runs on Python ints
    in an object array.
    """
    if not -sub.t2_bound <= t2.min(initial=0) <= t2.max(initial=0) <= sub.t2_bound:
        t2 = t2.astype(object)
    adj = np.array(sub.adjugate, dtype=t2.dtype)
    den = 2 * sub.index
    num = t2 @ adj.T  # sub-coordinates * 2N
    if sub.lattice.name == "A2":
        # The 4 floor candidates p0 + off, offsets in lexicographic order: the
        # first strict minimum of the distance is the lex smallest nearest point.
        u0 = num // den
        p0 = u0 @ sub.gtilde.T
        offs = np.array(sub.cell_offsets, dtype=t2.dtype)
        w0 = t2 - 2 * p0
        for k, off in enumerate(2 * offs):
            w = w0 - off
            d = w[:, 0] * (w[:, 0] - w[:, 1]) + w[:, 1] * w[:, 1]  # norms(w), inline
            if k == 0:
                best, pick = d, np.zeros(len(d), dtype=np.intp)
            else:
                upd = d < best
                best[upd] = d[upd]
                pick[upd] = k
        return u0 + (offs @ adj.T // sub.index)[pick]
    # Orthogonal frame: distances separate over the sub-coordinates, so each
    # rounds on its own, half up, and a tie (num + N divisible by 2N) takes
    # the side given by ``sub.tie_side``.  At odd N a tie needs an odd
    # adj @ t2, so all-even targets skip the check.
    num += sub.index
    u = num // den
    if sub.index % 2 == 0 or np.bitwise_or.reduce(t2, axis=None) & 1:
        ties = num == u * den
        if ties.any():
            u -= ties * np.array(sub.tie_side, dtype=u.dtype)
    return u


def bulk_nearest2(sub: SimilarSublattice, t2: np.ndarray) -> np.ndarray:
    """The nearest sublattice point to each row t2/2 of an (n, L) integer
    array of doubled targets: Gt times ``bulk_nearest2_coords``, int64 within
    ``sub.t2_bound`` and Python ints past it."""
    return bulk_nearest2_coords(sub, t2) @ sub.gtilde.T


def bulk_coset_index(sub: SimilarSublattice, lam: np.ndarray) -> np.ndarray:
    """The coset index of each row of an (n, L) integer array, as int64.

    A digit U_i x is at most L d_i max|x|.  Where that could leave int64, the
    rows are reduced mod N first, which keeps their cosets (N Z^L lies in the
    sublattice: Gt adj = N I).  Each x mod d is taken as x - (x // d) d, which
    numpy computes several times faster than x % d."""
    rows, factors = sub.coset_form
    reach = max(-int(lam.min(initial=0)), int(lam.max(initial=0)))
    if reach * sub.dim * max(factors, default=1) >= 2**62:
        lam = lam % sub.index
    u = np.array(rows, dtype=np.int64).reshape(-1, sub.dim)
    digits = u @ np.asarray(lam, dtype=np.int64).T
    idx = np.zeros(len(lam), dtype=np.int64)
    for x, d in zip(digits, factors):
        idx *= d
        idx += x - x // d * d
    return idx


def build_sublattice(lat: Lattice, params) -> SimilarSublattice:
    """Construct and certify a similar sublattice from family parameters."""
    try:
        params = tuple(map(operator.index, params))
    except TypeError:
        raise InvalidInput(f"params {params!r} are not a sequence of integers") from None
    _check_params(lat, params)
    try:
        gt = _gtilde(lat, params)
    except OverflowError:
        raise InvalidInput(f"params {params} do not fit an int64 generator matrix") from None
    L = lat.dim
    # Certify Gt^T Gram Gt == c^2 Gram in exact integers.
    gram2, g = lat.gram2.astype(object), gt.astype(object)
    m = g.T @ gram2 @ g
    c2, rem = divmod(m[0, 0], gram2[0, 0])
    if rem or c2 < 1 or not (m == c2 * gram2).all():
        raise NotSimilar(f"certificate failed for params {params}")
    n_sq = c2**L
    n = math.isqrt(n_sq)
    if n * n != n_sq:
        raise NotSimilar(f"scale {c2} does not yield an integer index in dimension {L}")
    return SimilarSublattice(lat, params, gt, n, c2)


def find_params(lat: Lattice, n: int):
    """Lexicographically smallest nonnegative parameters of index n;
    NoRepresentation if there are none."""
    for params, norms in _param_blocks(lat, n):
        hit = np.flatnonzero(norms == n)
        if hit.size:
            return tuple(params[hit[0]].tolist())
    fam = _FAMILIES[lat.name]
    odd = "odd " if fam.odd else ""
    raise NoRepresentation(
        f"{lat.name} has no sublattice of index {n}: "
        f"its indices are the {odd}values of {fam.form} at nonnegative integers"
    )


def design_sublattice(lat_name: str, index: int | None = None, params=None) -> SimilarSublattice:
    """Convenience entry point: build from explicit params or search by index."""
    lat = get_lattice(lat_name)
    if index is not None:
        index = int_value(index, "index")
    if params is None:
        if index is None:
            raise InvalidInput("either index or params is required")
        params = find_params(lat, index)
    sub = build_sublattice(lat, params)
    if index is not None and sub.index != index:
        raise InadmissibleIndex(
            f"params {tuple(params)} give index {sub.index}, requested {index}"
        )
    return sub
