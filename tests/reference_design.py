"""Test references: the hand-constructed labeling of the hexagonal N=31
design, the scalar side distortion, the brute-force nearest sublattice
point and the edge relocation built on it, the exhaustive optimum of small
designs, the square assignment solver that moves every potential
at every step, the asymptotic sweep computed one index at a time, and the
row-by-row check of Properties 1-3 on the scalar encoder and decoder.

The scalar color and direction rules (``scalar_color``,
``scalar_direct_edge``), the row they give a table edge (``scalar_row``),
the undirected label of a point (``alpha_u``) are the oracles of the
package's one array rule.  The group checks (``check_group``: the tuple
``closure``, ``check_lattice_group`` with its determinant ``idet`` and
``first_element_off``, all on the exact product ``imatmul``) are the loop
oracles of the package's array group checks.  The one-orbit-at-a-time ``orbit_reps`` and the
coset and class orbits, expansion and group choice built on it are the
oracles of the package's one array group action.

``theta_count`` is the classical closed form of each theta series
(Conway & Sloane, SPLAG, ch. 4), an oracle for the shell counts that shares
no code with the lattice-point enumeration.

This is the classic worked assignment for the index-31 hexagonal design in
the frame u = 5 - w (params (5, -1)): each orbit of the order-6 rotation
group is anchored to one edge class.  It is *not* cost-optimal (total 540 vs
the optimizer's 528) but is the fixture against which the worked-example
values are checked, and its cost is the ceiling the optimizer must beat.

Anchor map: point-orbit representative -> class difference vector, both in
lattice coordinates (x, y) for x + y*w.
"""

import math
import numbers
import operator
import sys
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from mdlq.errors import (
    GroupPropertyViolation,
    InadmissibleIndex,
    InvalidInput,
    PropertyCheckFailed,
    SizeMismatch,
    ZeroEdge,
)
from mdlq.evaluation import analytic_d0, rate_targeted_beta
from mdlq.labeling import (
    DirectedEdge,
    Labeling,
    Row,
    _add,
    _neg,
    _sub,
    base_edge_set,
    build_labeling,
    canonical_edge,
    class_key,
    optimal_class_matching,
)
from mdlq.lattices import Lattice, sphere_second_moment
from mdlq.sublattices import SimilarSublattice, _imatvec, design_sublattice, find_params
from mdlq.symmetry import SymmetryGroup, group_for, minus_identity_group

# u = (5, -1), v = w*u = (1, 6)
HAND_ANCHORS_A2_31 = {
    (1, 0): (5, -1),  # first shell       -> class [u]       (edge {O, A})
    (3, 2): (-4, 7),  # outer shell (i=7) -> class [v - u]   (edge {A, C})
    (1, 2): (10, -2),  # shell i=3        -> class [2u]      (diameter {A, D})
    (3, 1): (16, 3),  # outer shell (i=7) -> class [3u + v]  (edge {D, G})
    (2, 0): (17, 9),  # shell i=4         -> class [3u + 2v] (edge {E, G})
}

HAND_COST_A2_31 = Fraction(540)


def hand_labeling_a2_31() -> Labeling:
    sub = design_sublattice("A2", 31, params=(5, -1))
    lab = build_labeling(sub, anchors=HAND_ANCHORS_A2_31)
    assert lab.cost_total == HAND_COST_A2_31
    return lab


def theta_count(name: str, n: int) -> int:
    """Number of points of norm n (L*||u||^2 = n) in the named lattice, from
    the divisor-sum formulas: r_1, r_2 = 4(d_1,4 - d_3,4), r_4 = 8 sum of the
    divisors not divisible by 4, r_8 = 16 sum (-1)^(n+d) d^3, and
    6(d_1,3 - d_2,3) for the hexagonal form x^2 - xy + y^2."""
    if n == 0:
        return 1
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    if name == "Z1":
        return 2 if math.isqrt(n) ** 2 == n else 0
    if name == "Z2":
        return 4 * sum({1: 1, 3: -1}.get(d % 4, 0) for d in divisors)
    if name == "Z4":
        return 8 * sum(d for d in divisors if d % 4)
    if name == "Z8":
        return 16 * sum((-1) ** (n + d) * d**3 for d in divisors)
    if name == "A2":
        return 6 * sum({1: 1, 2: -1}.get(d % 3, 0) for d in divisors)
    raise ValueError(f"no theta series for {name}")


def gram2_form(lat: Lattice, u, v) -> int:
    """2x the unnormalized inner product of two Python-int vectors, summed
    over the rows of ``lat.gram2``: the references' own Gram form, which
    shares no code with ``Lattice.inner2``."""
    return sum(x * sum(map(operator.mul, row, v)) for x, row in zip(u, lat.gram2.tolist()))


def scalar_color(lat: Lattice, edge) -> int:
    """Parity bit of an edge; alternates along any line of shifted copies.

    For endpoints p, q and the first coordinate j with q_j != p_j the color
    is floor((p_j + q_j) / (2*|q_j - p_j|)) mod 2.  Orientation independent.
    """
    p, q = edge
    for j in range(lat.dim):
        d = abs(q[j] - p[j])
        if d:
            return ((p[j] + q[j]) // (2 * d)) % 2
    raise ZeroEdge("color is undefined for the zero-length edge")


def _orientation_sign(lat: Lattice, edge, lam) -> int:
    """Sign of <a - b, lam - mu> with the deterministic boundary rule.

    On the tie hyperplane the sign of the first nonzero coordinate of
    lam - mu decides; a zero vector (point at the midpoint) returns 0.
    """
    a, b = edge
    d = _sub(a, b)
    w2 = tuple(2 * x - y - z for x, y, z in zip(lam, a, b))
    s = gram2_form(lat, d, w2)
    if s:
        return 1 if s > 0 else -1
    for x in w2:
        if x:
            return 1 if x > 0 else -1
    return 0


def scalar_direct_edge(lat: Lattice, edge, lam) -> DirectedEdge:
    """Orient an undirected label for the point it labels: color 0 sends the
    endpoint nearer to ``lam`` on channel 1, color 1 on channel 2, and a
    point exactly at the midpoint gets the canonical orientation."""
    a, b = canonical_edge(*edge)
    if a == b:
        return DirectedEdge(a, b)
    s = _orientation_sign(lat, (a, b), lam)
    if s == 0:
        return DirectedEdge(a, b)
    # s > 0 means lam is nearer to a.
    if (s > 0) == (scalar_color(lat, (a, b)) == 0):
        return DirectedEdge(a, b)
    return DirectedEdge(b, a)


def scalar_row(lat: Lattice, rep, edge) -> Row:
    """Row of the edge (a, b) relocated for ``rep``: a shift by vp moves only
    the color floor((a_j + b_j + 2 vp_j) / step) mod 2, and the edge is
    reversed where it differs from the sign bit (1 if rep is nearer to b).
    At odd N only the zero row has rep at its midpoint; step 1 never reverses it."""
    a, b = edge
    if a == b:
        return Row(rep, a, b, 0, 1, 0)
    j = next(i for i in range(lat.dim) if a[i] != b[i])
    step = 2 * abs(b[j] - a[j])
    phase = a[j] + b[j] + (step if _orientation_sign(lat, edge, rep) < 0 else 0)
    return Row(rep, a, b, j, step, phase)


def alpha_u(lab: Labeling, lam):
    """Undirected label of an arbitrary lattice point (shift extension of the
    table); ``coset_reduce`` checks ``lam``."""
    vp, rep = lab.sub.coset_reduce(lam)
    a, b = lab.table[rep]
    return (_add(a, vp), _add(b, vp))


def imatmul(a, b):
    """Exact product of two matrices of Python ints, as a tuple of rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def idet(m) -> int:
    """Exact integer determinant (Gaussian elimination over the rationals)."""
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


def closure(gens, dim):
    """The sorted elements of the group the tuple matrices ``gens`` make,
    grown one frontier at a time; the oracle of ``symmetry._closure``."""
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = imatmul(m, g)
                if p not in elems:
                    elems.add(p)
                    nxt.append(p)
        frontier = nxt
        if len(elems) > 512:
            raise GroupPropertyViolation("closure", "generated group is unexpectedly large")
    return tuple(sorted(elems))


def check_lattice_group(group: SymmetryGroup) -> None:
    """The lattice checks of ``symmetry._check_lattice_group``, one element
    or pair at a time, with a determinant for fixed-point freedom."""
    lat = group.lattice
    dim = lat.dim
    elems = set(group.elements)
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    if tuple(tuple(-x for x in row) for row in ident) not in elems:
        raise GroupPropertyViolation("contains -I")
    gram = tuple(map(tuple, lat.gram2.tolist()))
    for g in group.elements:
        if imatmul(imatmul(tuple(zip(*g)), gram), g) != gram:
            raise GroupPropertyViolation("orthogonal", f"element {g}")
    for a in group.elements:
        for b in group.elements:
            if imatmul(a, b) not in elems:
                raise GroupPropertyViolation("closure")
    if ident not in elems:
        raise GroupPropertyViolation("identity")
    for g in group.elements:
        if not any(imatmul(g, h) == ident for h in group.elements):
            raise GroupPropertyViolation("inverses", f"element {g}")
    for g in group.elements:
        if g == ident:
            continue
        gi = [[g[i][j] - (1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        if idet(gi) == 0:
            raise GroupPropertyViolation("fixed-point free", f"element {g}")
    shells = lat.shells(16 if lat.dim <= 4 else 4).A
    sizes = [a for a in shells[1:] if a]
    if sizes and math.gcd(*sizes) % group.order != 0:
        raise GroupPropertyViolation(
            "order divides shell-size gcd", f"gcd={math.gcd(*sizes)}, order={group.order}"
        )


def first_element_off(group: SymmetryGroup, sub: SimilarSublattice):
    """The first element that moves a column of Gt off the sublattice, one
    column at a time; None if every element preserves it."""
    cols = lambda g: zip(*imatmul(g, sub.gtilde_rows))  # noqa: E731
    return next((g for g in group.elements if not all(map(sub.contains, cols(g)))), None)


def check_group(group: SymmetryGroup, sub: SimilarSublattice | None = None) -> None:
    """Every structural property check of ``group``, and that it preserves
    ``sub`` when one is given, by the scalar oracles above; raise
    GroupPropertyViolation."""
    check_lattice_group(group)
    if sub is not None and (g := first_element_off(group, sub)) is not None:
        raise GroupPropertyViolation("preserves sublattice", f"element {g}")


def orbit_reps(group: SymmetryGroup, items, act, size: int, what: str):
    """Lexicographically first element of each orbit of ``items`` under
    ``act(g, x)``, one orbit at a time; every orbit must stay inside ``items``
    and hold ``size`` elements, otherwise SizeMismatch names the condition
    that failed.  The oracle of the package's array ``_orbits``."""
    remaining = set(items)
    reps = []
    for x in sorted(items):
        if x not in remaining:
            continue
        orb = {act(g, x) for g in group.elements}
        outside = sorted(orb - remaining)
        if outside:
            raise SizeMismatch(
                f"{what} orbit of {x} leaves the {what} set at {outside[0]}: "
                f"the set is not closed under the group of order {group.order}"
            )
        if len(orb) != size:
            raise SizeMismatch(f"{what} orbit of {x} has size {len(orb)}, expected {size}")
        remaining -= orb
        reps.append(x)
    return reps


def coset_orbits(sub: SimilarSublattice, group: SymmetryGroup):
    """Orbits of the nonzero Voronoi representatives under the group action
    on cosets: apply the matrix, then take the V0(0) point of the image's coset."""
    reps = [r for r in sub.voronoi_reps if any(r)]
    return orbit_reps(group, reps, lambda g, r: sub.coset_reduce(_imatvec(g, r))[1], group.order,
                      "Voronoi point")


def class_orbits(group: SymmetryGroup, base_endpoints):
    """Orbits of the nonzero canonical class keys of the base edge set, each
    as its sorted twists; every orbit holds order/2 classes."""
    keys = sorted({class_key(p) for p in base_endpoints if any(p)})
    act = lambda g, k: class_key(_imatvec(g, k))  # noqa: E731
    corbs = orbit_reps(group, keys, act, group.order // 2, "edge class")
    return [sorted({act(g, k0) for g in group.elements}) for k0 in corbs]


def expand_anchors(sub: SimilarSublattice, group: SymmetryGroup, anchors):
    """Equivariant extension of the anchor pairs, one image at a time: each
    coset rep g p0 takes the class g k0 relocated closest to it (by the
    package's ``nearest2``, whose oracle is ``closest_edge_in_class``)."""
    zero = (0,) * sub.dim
    table = {zero: (zero, zero)}
    for p0, k0 in anchors.items():
        for g in group.elements:
            rep = sub.coset_reduce(_imatvec(g, p0))[1]
            assert rep not in table, f"orbit expansion revisits representative {rep}"
            delta = class_key(_imatvec(g, k0))
            w = sub.nearest2(tuple(2 * x - d for x, d in zip(rep, delta)))
            table[rep] = canonical_edge(w, _add(w, delta))
    return table


def retry_group(sub: SimilarSublattice):
    """The group a design is built with, by the rule of trying the full group
    first: the scalar orbits and the orbit counts, the package's matching and
    the scalar expansion; the first group under which none raises SizeMismatch,
    else {I, -I}."""
    endpoints = base_edge_set(sub)
    try:
        group = group_for(sub.lattice, sub)
        corbs = class_orbits(group, endpoints)
        if len(coset_orbits(sub, group)) != len(corbs):
            raise SizeMismatch("point and class orbit counts differ")
        anchors, _ = optimal_class_matching(sub, endpoints, group)
        if len(expand_anchors(sub, group, anchors)) != sub.index:
            raise SizeMismatch("the expansion misses a representative")
    except (GroupPropertyViolation, SizeMismatch):
        return minus_identity_group(sub.lattice)
    return group


def ds_cost(lat: Lattice, lam, edge) -> Fraction:
    """Side distortion d_s(lam, edge) = (||lam-a||^2 + ||lam-b||^2)/2, exact."""
    a, b = edge
    da, db = _sub(lam, a), _sub(lam, b)
    return Fraction(gram2_form(lat, da, da) + gram2_form(lat, db, db), 4 * lat.dim)


def brute_nearest2(sub: SimilarSublattice, t2):
    """Nearest sublattice point to the half-integer target t2/2 by exhaustive
    search, by distance and then lexicographic order: over the
    {floor, floor + 1}^L box of sub-coordinates in an orthogonal frame, where
    distances separate over them, and over a 6 x 6 box on A2.  It reads only
    Gt, its adjugate and the Gram matrix, none of the package's nearest-point
    or coset rules."""
    lat = sub.lattice
    n = sub.index
    num = [sum(map(operator.mul, row, t2)) for row in sub.adjugate]
    base = [x // (2 * n) for x in num]
    best = None
    span = range(-2, 4) if lat.name == "A2" else range(2)
    for off in product(span, repeat=lat.dim):
        u = [b + o for b, o in zip(base, off)]
        p = tuple(sum(map(operator.mul, row, u)) for row in sub.gtilde_rows)
        w = [t - 2 * c for t, c in zip(t2, p)]
        key = (gram2_form(lat, w, w), p)
        if best is None or key < best:
            best = key
    return best[1]


def closest_edge_in_class(sub: SimilarSublattice, lam, delta):
    """Relocate the class with difference ``delta`` closest to ``lam``, one
    point at a time with ``brute_nearest2``: the oracle of the bulk
    ``mdlq.labeling._relocate``.

    The optimal shift places the midpoint at the sublattice point nearest to
    lam - delta/2; the result does not depend on the sign of delta.
    """
    w = brute_nearest2(sub, tuple(2 * x - d for x, d in zip(lam, delta)))
    return canonical_edge(w, _add(w, delta))


def brute_force_min_cost(sub: SimilarSublattice) -> Fraction:
    """Exhaustive optimum over all constrained bijections (small designs).

    Equivalent-point / equivalent-edge constraints reduce the search to
    bijections between the (N-1)/2 negation pairs of V0(0) and the (N-1)/2
    nonzero edge classes; each pairing costs 2 * d_s(p, [k]).
    """
    lat = sub.lattice
    endpoints = base_edge_set(sub)
    reps = [r for r in sub.voronoi_reps if any(r)]
    pairs = sorted({max(r, _neg(r)) for r in reps})
    keys = sorted({class_key(p) for p in endpoints if any(p)})
    if len(pairs) != len(keys):
        raise SizeMismatch("pair/class counts differ")
    if len(pairs) > 8:
        raise ValueError("brute force limited to (N-1)/2 <= 8")
    cost = [
        [2 * ds_cost(lat, p, closest_edge_in_class(sub, p, k)) for k in keys] for p in pairs
    ]
    best = None
    for perm in permutations(range(len(keys))):
        c = sum(cost[i][perm[i]] for i in range(len(pairs)))
        if best is None or c < best:
            best = c
    return best


def eager_min_cost_assignment(cost):
    """The square Hungarian solver that moves every potential by ``delta``
    at every step: the oracle of the optimal totals of ``mdlq.assignment``,
    posed with each type's column repeated as often as its capacity."""
    n = len(cost)
    if n == 0:
        return [], 0
    inf = sum(abs(c) for row in cost for c in row) + 1
    assert isinstance(inf, numbers.Integral)
    dtype = np.int64 if 4 * inf < 2**63 else object
    c = np.zeros((n, n + 1), dtype=dtype)  # column 0 is the dummy start column
    c[:, 1:] = cost
    u = np.zeros(n + 1, dtype=dtype)
    v = np.zeros(n + 1, dtype=dtype)
    p = np.zeros(n + 1, dtype=np.intp)
    way = np.zeros(n + 1, dtype=np.intp)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, inf, dtype=dtype)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            free = ~used
            i0 = p[j0]
            cur = c[i0 - 1] - u[i0] - v
            better = free & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            masked = np.where(free, minv, inf)
            delta = masked.min()
            j1 = int(np.flatnonzero(masked == delta)[0])
            done = np.flatnonzero(used)
            u[p[done]] += delta
            v[done] -= delta
            minv[free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    cols = [0] * n
    for j in range(1, n + 1):
        cols[p[j] - 1] = j - 1
    return cols, sum(cost[i][cols[i]] for i in range(n))


def scalar_verify_properties(lab: Labeling) -> None:
    """Properties 1-3 checked one row and one label at a time with the scalar
    ``encode``, ``decode_both`` and ``scalar_direct_edge``: the oracle of the array
    ``Labeling.verify_properties``, with the same check names.  Shift
    covariance is checked at every representative; a base edge that is no
    label ends in the decoder's NotALabel."""
    lat = lab.lattice
    zero = (0,) * lat.dim

    for row in lab.rows:
        rep, edge = row.rep, (row.first, row.second)
        de_a = lab.encode(rep)
        if edge != canonical_edge(*edge) or de_a != scalar_direct_edge(lat, edge, rep):
            raise PropertyCheckFailed("direction", f"rep {rep} -> {row}")
        if edge[0] == edge[1]:
            if edge[0] != zero or rep != zero:
                raise PropertyCheckFailed("zero-edge", f"rep {rep} -> {edge}")
            continue
        partner = _sub(_add(edge[0], edge[1]), rep)
        de_b = lab.encode(partner)
        if canonical_edge(*de_b) != edge:
            raise PropertyCheckFailed("midpoint-sum", f"edge {edge} labels {rep} but not {partner}")
        if partner != rep and de_b != de_a.reversed():
            raise PropertyCheckFailed("orientation-pairing", f"{rep}:{de_a} vs {partner}:{de_b}")

    firsts = set()
    seconds = set()
    for p in lab.base_endpoints:
        for de in [DirectedEdge(zero, zero)] if p == zero else [DirectedEdge(zero, p), DirectedEdge(p, zero)]:
            lam = lab.decode_both(de)
            if lab.encode(lam) != de:
                raise PropertyCheckFailed("reuse", f"{de} decodes to {lam}, encode mismatch")
            if de.first == zero:
                firsts.add(lam)
            if de.second == zero:
                seconds.add(lam)
    if len(firsts) != lab.index or len(seconds) != lab.index:
        raise PropertyCheckFailed("reuse", f"vertex 0 labels {len(firsts)}/{len(seconds)} points, expected N")

    gens = [lab.sub.from_sub_coords(u) for u in np.eye(lat.dim, dtype=int).tolist()]
    for lam in lab.sub.voronoi_reps:
        rhs = alpha_u(lab, lam)
        for s in gens:
            de = lab.encode(_add(lam, s))
            lhs = canonical_edge(*de)
            if lhs != (_add(rhs[0], s), _add(rhs[1], s)):
                raise PropertyCheckFailed("shift", f"lam={lam}, shift={s}")
            if de != scalar_direct_edge(lat, lhs, _add(lam, s)):
                raise PropertyCheckFailed("direction", f"lam={lam}, shift={s}")


def asymptotic_rows_per_index(lat: Lattice, n_sequence, a: float, h_bits: float = 0.0):
    """The asymptotic sweep computed one index at a time: representability by
    the parameter search, K from a theta series covering N, and the shell sum
    over a second theta series up to K.  ``asymptotic_limit_check`` must give
    the same rows and raise the same error at the same first bad N."""
    if not 0 < a < 1:
        raise InvalidInput(f"exponent a must lie in (0, 1), got {a}")
    l = lat.dim
    rows = []
    for n in n_sequence:
        find_params(lat, n)
        k = None
        if l == 1:
            k = ((n - 1) // 2) ** 2 if n >= 1 and n % 2 else None
        elif n >= 1:
            total = 0
            for i, ai in enumerate(lat.shells_covering(n).A):
                total += ai
                if total >= n:
                    k = i if total == n else None
                    break
        if k is None:
            raise InadmissibleIndex(f"N={n} does not fill shells exactly")
        if math.log2(n) / l <= 1.0:
            raise InadmissibleIndex(f"N={n} too small for the rate map N=2^(L(aR+1))")
        if l == 1:
            m = math.isqrt(k)
            sum_i_ai = m * (m + 1) * (2 * m + 1) // 3
        else:
            sum_i_ai = sum(i * ai for i, ai in enumerate(lat.shells(k).A))
        rate = (math.log2(n) / l - 1.0) / a
        beta = rate_targeted_beta(lat, rate, a, h_bits)
        sum_l2 = sum_i_ai * n ** (2.0 / l) / l
        d_tilde = beta * beta * sum_l2 / (4.0 * n)
        try:
            d0 = analytic_d0(lat, beta)
            ratio = d_tilde * 2.0 ** (2.0 * rate * (1.0 - a)) / 2.0 ** (2.0 * h_bits)
            d0_norm = d0 * 2.0 ** (2.0 * rate * (1.0 + a)) * 4.0 / 2.0 ** (2.0 * h_bits)
        except (ArithmeticError, InvalidInput):  # cell_volume rejects beta^L out of range
            d0 = ratio = d0_norm = math.nan
        values = (beta * beta, d_tilde, d0, ratio, d0_norm)
        if not all(sys.float_info.min <= v < math.inf for v in values):
            raise InvalidInput(
                f"entropy {h_bits} bits takes the N={n} row beyond the normal float range"
            )
        rows.append(
            {
                "N": n,
                "K": k,
                "R": rate,
                "beta": beta,
                "d_tilde": d_tilde,
                "ratio": ratio,
                "sphere_G": sphere_second_moment(l),
                "d0_normalized": d0_norm,
            }
        )
    return rows
