"""End-to-end pipeline over real-valued sources: scale, quantize, label,
reconstruct, and Monte-Carlo simulate rates and distortions.

The simulator is vectorized with numpy; every combinatorial step (coset
index, orientation) uses exact integer arithmetic on int64 arrays, and the
orientation is the labeling's own per-row rule (``orientation_flip``), so
the bulk path agrees with the scalar exact path everywhere except
measure-zero ties of the real-input quantizer.

Before any draw, ``simulate`` takes ``ds_analytic = d0_analytic + excess``
from ``evaluation.analytic_point``, as every report does, so a scale that
takes one of them out of the normal float range ends in ``InvalidInput``.

``simulate`` draws each chunk of ``CHUNK`` samples whole, in the seeded
order, and then runs it through the pipeline in blocks of ``BLOCK`` rows, so
that a block's arrays stay in cache: source point, reach check, nearest
lattice point (``bulk_nearest``), coset reduction and orientation
(``BulkEncoder.encode``), squared errors and label counts.  The coset
reduction (``bulk_coset_reduce``) reads the sublattice's one coset index
(``sublattices.bulk_coset_index``), which is also the point's row in the
labeling's one row table (``Labeling.rows``, in coset-index order), whose
columns the encoder holds as arrays: the representative is the row's V0(0)
point, vp = lam - rep is the nearest sublattice point, and its sublattice
coordinates are u = adj vp / N.  The encoder reads each label's coordinates
from a per-row table adj ends / N plus u, so the label keys need no further
matrix product.  Each block writes its squared errors into one (3, m, L)
array per chunk, summed once per plane, so the distortions do not depend on
``BLOCK``.

``BulkEncoder.decode`` inverts the encoder on arrays by the rule of the
scalar ``Labeling.decode_both``: each label's canonical class key, packed in
mixed radix over the box of the base edge set, is found among the rows' keys
with ``np.searchsorted``.  ``Labeling.verify_properties`` decodes the base
edges with it; ``simulate`` does not decode yet.

The side rates H1/H2 are the empirical entropies of the side labels, and
the raw labels are dropped block by block.  A ``periods:p`` source reads
every label modulo p, so its labels lie in the alphabet [0, p)^L; where p^L
is at most ``BLOCK``, each channel keeps one tally of length p^L for the
whole call, and each block packs every label row into one key (radix p,
first coordinate most significant) and adds its ``np.bincount``.  Any other
source keeps each block's distinct label rows and their counts
(``_row_counts``: every row packed into one int64 in mixed radix and sorted
once); the block counts are merged per chunk and the chunk counts at the
end, each by one weighted call of the same function.  Both list the counts
in the lexicographic order of the rows, as the same exact integers, so the
reported entropies do not depend on the path.

Source kinds:

* ``uniform:W``  -- i.i.d. uniform on [-W, W] per coordinate.
* ``gauss:S``    -- i.i.d. Gaussian with standard deviation S.
* ``periods:M``  -- uniform over M^L whole sublattice periods, realized as a
  union of whole Voronoi cells; label statistics are taken per period
  (toroidal), which makes d0, ds and the rates equal the uniform-density
  expressions up to Monte-Carlo noise.  d1 and d2 apart match them only at
  large M: (d1 - d2)/ds is +0.09 on A2/31 with M = 2, +0.05 on Z2/13 and
  -0.20 on Z1/5 with M = 3, and under 0.002 on A2/31 with M = 21.  This is the
  source used by the acceptance experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NotALabel
from .evaluation import analytic_point, analytic_rates, cell_volume, normal_float
from .labeling import DirectedEdge, Labeling, _class_keys, _int_rows, _packed, orientation_flip
from .lattices import Lattice, int_point
from .sublattices import bulk_coset_index

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class SourceSpec:
    kind: str  # uniform | gauss | periods
    param: float

    @classmethod
    def parse(cls, text: str) -> "SourceSpec":
        kind, _, value = text.partition(":")
        kind = kind.strip().lower()
        if kind not in ("uniform", "gauss", "periods"):
            raise InvalidInput(f"unknown source kind {kind!r}; expected uniform, gauss or periods")
        try:
            param = float(value)
        except ValueError:
            raise InvalidInput(f"source {text!r} needs a number, e.g. uniform:2.0") from None
        if not (math.isfinite(param) and param > 0):
            raise InvalidInput(f"source parameter must be a finite number > 0, got {value}")
        if kind == "periods" and param != int(param):
            raise InvalidInput("periods source takes an integer period count")
        return cls(kind, param)

    def label(self) -> str:
        if self.kind == "periods":
            return f"periods:{int(self.param)}"
        return f"{self.kind}:{self.param:g}"


@dataclass(frozen=True)
class ScaledDesign:
    """A labeling together with the real scale factor applied to both
    the lattice and the sublattice."""

    labeling: Labeling
    beta: float = 1.0

    @property
    def lattice(self) -> Lattice:
        return self.labeling.lattice

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def index(self) -> int:
        return self.labeling.index


def source_entropy_bits(source: SourceSpec, design: ScaledDesign) -> float:
    """Differential entropy per sample (bits) of the configured source."""
    cause = f"source {source.label()}"
    if source.kind == "uniform":
        return math.log2(normal_float(lambda: 2.0 * source.param, cause, "the width 2W"))
    if source.kind == "gauss":
        s = source.param
        power = normal_float(lambda: 2.0 * math.pi * math.e * (s * s), cause, "2 pi e S^2")
        return 0.5 * math.log2(power)
    m = int(source.param)
    vol = normal_float(
        lambda: m**design.dim * design.index * cell_volume(design.lattice, design.beta), cause, "m^L N nu"
    )
    return math.log2(vol) / design.dim


# ---------------------------------------------------------------------------
# scalar pipeline
# ---------------------------------------------------------------------------


def encode_vector(design: ScaledDesign, x) -> DirectedEdge:
    """Quantize a real vector and return its directed label (integer coords
    of the scaled sublattice points)."""
    t = np.array([x], dtype=float) / design.beta
    # Lattice-frame coordinates are at most twice the embedded ones.
    if t.shape != (1, design.dim) or not np.abs(t).max() < 2.0**61:
        raise InvalidInput(f"x must be {design.dim} numbers with finite |x/beta| < 2^61, got {x!r}")
    return design.labeling.encode(bulk_nearest(design.lattice, t)[0].tolist())


def reconstruct(design: ScaledDesign, received: str, payload):
    """Decode per channel state: 'both' takes a directed edge, 'ch1'/'ch2'
    take a single sublattice point; returns the reconstruction in R^L."""
    if received == "both":
        lam = design.labeling.decode_both(payload)
    elif received in ("ch1", "ch2"):
        # A single description is the sublattice point itself.
        lam = int_point(payload, design.dim)
        if not design.labeling.sub.contains(lam):
            raise NotALabel(f"{payload!r} is not a point of the sublattice")
    else:
        raise InvalidInput(f"received must be 'both', 'ch1' or 'ch2', got {received!r}")
    return design.beta * design.lattice.embed(lam)


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------


def bulk_nearest(lat: Lattice, x: np.ndarray) -> np.ndarray:
    """Nearest-lattice-point coordinates for an (n, L) array of reals; ties go
    to the lexicographically smallest coordinate vector.

    The cubic lattices round each coordinate half down, exactly: the point
    ceil(x - 1/2) is floor(ceil(2x) / 2), and 2x, unlike x - 1/2, has no
    rounding error (the int64 result needs |x| < 2^62).  On A2 the nearest
    point is a corner of the floor cell in lattice coordinates: the cell's
    short diagonal cuts it into two equilateral triangles, and every point of
    a triangle is nearest to one of its corners (Conway & Sloane, IEEE Trans.
    IT-28, 1982).  The 4 corners are compared with offsets in lexicographic
    order, so the first strict minimum is the lex smallest nearest point.
    """
    if lat.name != "A2":
        lam = np.ceil(2 * x).astype(np.int64)
        lam >>= 1
        return lam
    t1 = x[:, 0] + x[:, 1] / _SQRT3
    t2 = 2.0 * x[:, 1] / _SQRT3
    f1, f2 = np.floor(t1), np.floor(t2)
    best = np.full(len(x), np.inf)
    pick = np.zeros(len(x), dtype=np.intp)
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        d1, d2 = f1 + i - t1, f2 + j - t2
        d = d1 * d1 + d2 * d2 - d1 * d2
        upd = d < best
        best[upd] = d[upd]
        pick[upd] = k
    # Offset k is (k >> 1, k & 1).
    return np.stack([f1.astype(np.int64) + (pick >> 1), f2.astype(np.int64) + (pick & 1)], axis=1)


def bulk_coset_reduce(sub, lam: np.ndarray, reps: np.ndarray):
    """Vectorized coset_reduce for an (n, L) int64 array of lattice points,
    given the coset representatives ``reps`` in coset-index order: (idx, u, vp)
    with idx the coset index, vp = lam - reps[idx] the nearest sublattice point
    and u its sublattice coordinates adj vp / N (vp = Gt u).

    adj vp stays in int64 while |lam| <= t2_bound / 2; past that bound vp
    is formed on Python ints in an object array, so every int64 row is exact."""
    idx = bulk_coset_index(sub, lam)
    bound = sub.t2_bound // 2
    if not -bound <= lam.min(initial=0) <= lam.max(initial=0) <= bound:
        lam = lam.astype(object)
    vp = lam - reps.take(idx, axis=0)
    u = vp @ np.array(sub.adjugate, dtype=vp.dtype).T // sub.index
    return idx, u, vp


class BulkEncoder:
    """Vectorized encode and decode for a labeling (any dimension, any int64 rows)."""

    def __init__(self, labeling: Labeling):
        sub = labeling.sub
        self.sub = sub
        self.dim = sub.dim
        # Largest |coordinate| whose coset reduction and label coordinates
        # stay in int64; past it they run on Python ints.
        self.coord_bound = sub.t2_bound // 2
        # The labeling's rows are in coset-index order, so a point's row is
        # its index.  Row r of ``ends`` is the first endpoint of row r and row
        # r + N its second; ``coords`` holds the same sublattice points in
        # sublattice coordinates (adj ends / N, exact), so a label at
        # vp = Gt u has coordinates coords + u.  Endpoints within
        # coord_bound / 8 keep every sum below in int64; a row that far from
        # its representative (no built design has one) is kept in Python ints.
        rows = labeling.rows
        self.reps = np.array([r.rep for r in rows], dtype=np.int64)
        self.ends = _int_rows([r.first for r in rows] + [r.second for r in rows], self.coord_bound // 8)
        self.axis = np.array([r.axis for r in rows], dtype=np.int64)
        self.step, self.phase = np.array(
            [[r.step for r in rows], [r.phase for r in rows]], dtype=self.ends.dtype
        )
        self.coords = self.ends @ np.array(sub.adjugate, dtype=self.ends.dtype).T // sub.index
        self._base = labeling.base_endpoints

    def encode(self, lam: np.ndarray):
        """Directed labels for an (n, L) int64 array: (E1, E2, U1, U2), the
        two sublattice points in parent coordinates and the same points in
        sublattice coordinates (Ei = Gt Ui)."""
        rows, u, vp = bulk_coset_reduce(self.sub, lam, self.reps)
        # ``take`` gathers: far cheaper than fancy indexing on these shapes.
        at = np.arange(0, vp.size, self.dim) + self.axis.take(rows)
        flip = orientation_flip(self.phase.take(rows), self.step.take(rows), vp.take(at))
        flip = np.asarray(flip, dtype=np.int64)  # 0 or 1, also from an object vp
        first = rows + flip * len(self.reps)
        second = rows + (1 - flip) * len(self.reps)
        return (
            self.ends.take(first, axis=0) + vp,
            self.ends.take(second, axis=0) + vp,
            self.coords.take(first, axis=0) + u,
            self.coords.take(second, axis=0) + u,
        )

    @cached_property
    def _classes(self):
        """(reach, keys, rows): the box [-reach, reach] of the base edge set,
        the packed class key of every row edge in it, sorted, and the first
        row of each key, as ``Labeling.class_table`` holds it."""
        reach = np.abs(np.array(self._base, dtype=np.int64)).max(axis=0)
        n = len(self.reps)
        packed, inside = _packed(_class_keys(self.ends[n:] - self.ends[:n]), reach)
        keep = np.flatnonzero(inside)
        keys, first = np.unique(packed.take(keep), return_index=True)
        return reach, keys, keep.take(first)

    def decode(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """The point of each label (first, second), rows of two (n, L) integer
        arrays, by the rule of ``Labeling.decode_both``: the row of the label's
        class (its key packed in mixed radix and found by ``searchsorted``),
        the shift from the label's first endpoint, and rep + shift or its
        mirror by ``orientation_flip``.  NotALabel names the first row whose
        class has no row or whose shift is off the sublattice.  Labels past
        ``coord_bound`` are decoded on Python ints, so every int64 row is exact."""
        bound = self.coord_bound
        if not all(-bound <= x.min(initial=0) and x.max(initial=0) <= bound for x in (first, second)):
            first, second = first.astype(object), second.astype(object)
        reach, keys, class_rows = self._classes
        d = second - first
        packed, inside = _packed(_class_keys(d), reach)
        pos = np.searchsorted(keys, packed).clip(max=len(keys) - 1)
        found = inside & (keys.take(pos) == packed)
        if not found.all():
            i = int(found.argmin())
            raise NotALabel(f"row {i}: the edge class of {d[i].tolist()} is not part of this design")
        rows = class_rows.take(pos)
        n = len(self.reps)
        forward = (d == self.ends.take(rows + n, axis=0) - self.ends.take(rows, axis=0)).all(axis=1)
        e = self.ends.take(rows + n * ~forward, axis=0)  # the row endpoint at ``first``
        shift = first - e
        off = bulk_coset_index(self.sub, shift) != 0
        if off.any():
            i = int(off.argmax())
            raise NotALabel(
                f"row {i}: ({first[i].tolist()}, {second[i].tolist()}) is not a shift of a design edge"
            )
        at = np.arange(0, shift.size, self.dim) + self.axis.take(rows)
        flip = orientation_flip(self.phase.take(rows), self.step.take(rows), shift.take(at))
        keep = (np.asarray(flip, dtype=bool) != forward)[:, None]
        # rep + shift = first + back, and its mirror first + second - rep - shift = second - back.
        back = self.reps.take(rows, axis=0) - e
        return np.where(keep, first + back, second - back)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


@dataclass
class SimReport:
    lattice: str
    params: tuple
    index: int
    beta: float
    source: str
    n: int
    seed: int
    d0: float
    d1: float
    d2: float
    ds: float
    h1: float
    h2: float
    r0_analytic: float
    r_analytic: float
    d0_analytic: float
    ds_analytic: float

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "lattice": self.lattice,
            "params": list(self.params),
            "index": self.index,
            "beta": self.beta,
            "source": self.source,
            "n": self.n,
            "seed": self.seed,
            "d0": self.d0,
            "d1": self.d1,
            "d2": self.d2,
            "ds": self.ds,
            "H1": self.h1,
            "H2": self.h2,
            "R0_analytic": self.r0_analytic,
            "R_analytic": self.r_analytic,
            "d0_analytic": self.d0_analytic,
            "ds_analytic": self.ds_analytic,
        }


def _hex_cell_offsets(rng, m):
    """Uniform samples from the Voronoi hexagon of the unit A2 lattice."""
    out = np.empty((m, 2))
    filled = 0
    ymax = 1.0 / _SQRT3
    while filled < m:
        k = int((m - filled) * 1.6) + 16
        x, y = rng.uniform(-0.5, 0.5, k), rng.uniform(-ymax, ymax, k)
        ok = (np.abs(0.5 * x + 0.5 * _SQRT3 * y) <= 0.5) & (
            np.abs(-0.5 * x + 0.5 * _SQRT3 * y) <= 0.5
        )
        # One column at a time: a boolean row index of a (k, 2) array is
        # several times slower than these 1-D gathers.
        got = np.flatnonzero(ok)[: m - filled]
        for col, v in enumerate((x, y)):
            out[filled : filled + len(got), col] = v.take(got)
        filled += len(got)
    return out


def _row_counts(keys: np.ndarray, weights: np.ndarray | None = None):
    """Distinct rows of an (n, L) int64 array, in lexicographic order, with
    the number of times each occurs -- or, given ``weights``, the sum of the
    weights of its copies.  ``simulate`` counts with it the labels of sources
    whose label alphabet has no fixed bound within a block (gauss, uniform,
    and periods:p with p^L > ``BLOCK``).

    The same integers in the same order as a row-wise ``np.unique`` with
    ``return_counts``, from one 1-D sort: each row is packed into one
    int64 in mixed radix, first column most significant, with digit
    value - column minimum in base column range + 1.  When a column would
    push the packed size to 2^63, the prefix packed so far is replaced by its
    dense rank, and if that is still too wide, so is the column; ranks keep
    the order, and neither exceeds n, so any n < 3*10^9 rows fit.
    """
    packed = np.zeros(len(keys), dtype=np.int64)
    size = 1  # packed values lie in [0, size)
    for col in keys.T:
        lo = int(col.min())
        base = int(col.max()) - lo + 1
        if size * base >= 2**63:
            _, packed = np.unique(packed, return_inverse=True)
            size = int(packed.max()) + 1
        if size * base >= 2**63:
            _, digit = np.unique(col, return_inverse=True)
            base = int(digit.max()) + 1
        else:
            digit = col - lo
        packed = packed * base + digit
        size *= base
    order = np.argsort(packed)
    packed = packed.take(order)
    # A run of equal keys is one distinct row; equal keys are equal rows, so
    # the first copy of each run will do.
    first = np.empty(len(packed), dtype=bool)
    first[0] = True
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if weights is None:
        counts = np.diff(starts, append=len(packed))
    else:
        counts = np.add.reduceat(weights.take(order), starts)
    return keys.take(order.take(starts), axis=0), counts


def _merge_counts(parts):
    """One (rows, counts) pair from a list of them: a weighted ``_row_counts``."""
    rows, counts = map(np.concatenate, zip(*parts))
    return _row_counts(rows, counts)


def _entropy_bits(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum()) + 0.0  # a constant source gives 0.0, not -0.0


# Samples per chunk; part of the seeded output (each chunk draws from its own
# substream), so changing it changes every report.
CHUNK = 1 << 17
# Rows per block of the pipeline that runs over each drawn chunk: few enough
# that a block's int64 arrays stay in a core's L2 cache.  It also bounds the
# label alphabet that ``simulate`` counts in a dense tally, so a block's
# ``bincount`` costs no more than the block.  No result depends on it.
BLOCK = 1 << 13


def simulate(design: ScaledDesign, source: SourceSpec, n_samples: int, seed: int) -> SimReport:
    """Monte-Carlo estimate of the three distortions and channel entropies.

    Deterministic for a fixed seed: chunk ``ci`` of ``CHUNK`` samples draws
    from its own substream ``default_rng([seed, ci])`` and results are
    combined in chunk order.  Each chunk is drawn whole and then runs through
    the pipeline in blocks of ``BLOCK`` rows.
    """
    if n_samples < 1:
        raise InvalidInput(f"sample count must be at least 1, got {n_samples}")
    if seed < 0:
        raise InvalidInput(f"seed must be an integer >= 0, got {seed}")
    lab = design.labeling
    lat = design.lattice
    sub = lab.sub
    dim = lat.dim
    beta = design.beta
    period = int(source.param) if source.kind == "periods" else 0
    # Every entry of grid @ Gt^T is below period * max_i sum_j |Gt_ij|.
    if period * max(sum(map(abs, row)) for row in sub.gtilde_rows) >= 2**63:
        raise InvalidInput(f"period count {source.param:g} leaves the int64 range on this design")
    # The analytic values check the scale before any draw.
    point = analytic_point(lab, beta)
    r0, r = analytic_rates(lat, sub.index, beta, source_entropy_bits(source, design))
    enc = BulkEncoder(lab)
    # Integer rows are cast before the product so that it runs in BLAS, which
    # an int64 @ float64 product does not.  Each entry of a row times a basis
    # column has at most one inexact term (the bases are the identity and
    # A2's [[1, -1/2], [0, sqrt(3)/2]]), so no order of the sum changes it.
    embed = np.ascontiguousarray(lat.basis.T)
    reps = np.array(sorted(sub.voronoi_reps), dtype=np.int64)
    # Labels of a periods:p source lie in [0, p)^L; each channel tallies its
    # radix-p keys there when that alphabet fits in a block.
    size = period**dim if period and period**dim <= BLOCK else 0
    radix = period ** np.arange(dim - 1, -1, -1, dtype=np.int64) if size else None
    tallies = (np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64))

    def run_chunk(ci: int):
        """The chunk's three squared-error sums over dim and, per channel,
        the label counts of each block (none where the tallies count them).
        Its draws and sums are freed on return, before the caller merges the
        block counts."""
        m = min(CHUNK, n_samples - ci * CHUNK)
        rng = np.random.default_rng([seed, ci])
        if source.kind == "uniform":
            drawn = rng.uniform(-source.param, source.param, (m, dim))
        elif source.kind == "gauss":
            drawn = rng.normal(0.0, source.param, (m, dim))
        else:
            ridx = rng.integers(0, sub.index, m)
            grid = rng.integers(0, period, (m, dim))
            if lat.name == "A2":
                off = _hex_cell_offsets(rng, m)
            else:
                off = rng.uniform(-0.5, 0.5, (m, dim))
        # Squared errors of lam, E1 and E2; each plane is summed once, in the
        # same order as one whole-chunk array.
        sq = np.empty((3, m, dim))
        blocks = ([], [])
        for start in range(0, m, BLOCK):
            b = slice(start, min(start + BLOCK, m))
            if period:
                lam0 = reps.take(ridx[b], axis=0) + grid[b] @ sub.gtilde.T
                x = beta * ((lam0.astype(float) @ embed) + off[b])
            else:
                x = drawn[b]
            # Lattice-frame coordinates are at most twice the embedded ones.
            reach = np.abs(x).max() / abs(beta)
            if not reach <= enc.coord_bound / 2:
                raise InvalidInput(
                    f"|x/beta| reaches {reach:.3g}, beyond the int64-safe "
                    f"bound {enc.coord_bound / 2:.3g} of this design"
                )
            lam = bulk_nearest(lat, x / beta)
            e1, e2, u1, u2 = enc.encode(lam)
            for plane, y in zip(sq, (lam, e1, e2)):
                np.square(x - beta * (y.astype(float) @ embed), out=plane[b])
            for counted, tally, u in zip(blocks, tallies, (u1, u2)):
                if period:
                    u -= u // period * period  # label statistics per period
                if size:
                    tally += np.bincount(u @ radix, minlength=size)
                else:
                    counted.append(_row_counts(u))
        return [float(plane.sum()) / dim for plane in sq], blocks

    sq_sums = []  # per chunk
    found = ([], [])  # per channel and chunk: distinct label coordinates, counts
    # A sum past the float range is caught below, as one named error.
    with np.errstate(over="ignore"):
        for ci in range((n_samples + CHUNK - 1) // CHUNK):
            sums, blocks = run_chunk(ci)
            sq_sums.append(sums)
            for counted, chunks in zip(blocks, found):
                if counted:
                    chunks.append(_merge_counts(counted))
                    counted.clear()

    d0, d1, d2 = (sum(s[i] for s in sq_sums) / n_samples for i in range(3))
    if not math.isfinite(d0 + d1 + d2):  # the sums are >= 0, so this covers ds too
        raise InvalidInput("the squared errors overflow a float; take a smaller source or beta")
    if size:
        h1, h2 = (_entropy_bits(tally, n_samples) for tally in tallies)
    else:
        h1, h2 = (_entropy_bits(_merge_counts(chunks)[1], n_samples) for chunks in found)
    return SimReport(
        lattice=lat.name,
        params=tuple(sub.params),
        index=sub.index,
        beta=beta,
        source=source.label(),
        n=n_samples,
        seed=seed,
        d0=d0,
        d1=d1,
        d2=d2,
        ds=0.5 * (d1 + d2),
        h1=h1 / dim,
        h2=h2 / dim,
        r0_analytic=r0,
        r_analytic=r,
        d0_analytic=point.d0,
        ds_analytic=point.ds,
    )
