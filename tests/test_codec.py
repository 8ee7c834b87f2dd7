import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdlq import codec
from mdlq.codec import (
    CHUNK,
    BulkEncoder,
    ScaledDesign,
    SourceSpec,
    bulk_coset_reduce,
    bulk_nearest,
    encode_vector,
    reconstruct,
    _row_counts,
    simulate,
    source_entropy_bits,
)
from mdlq.errors import InvalidInput, NotALabel
from mdlq.evaluation import analytic_rates, design_report, rate_targeted_beta
from mdlq.labeling import DirectedEdge, class_key
from mdlq.lattices import get_lattice

from .conftest import design
from .reference_design import alpha_u, hand_labeling_a2_31, scalar_direct_edge

SQRT3 = math.sqrt(3.0)


def test_source_spec_parsing():
    assert SourceSpec.parse("uniform:2.5") == SourceSpec("uniform", 2.5)
    assert SourceSpec.parse("gauss:1") == SourceSpec("gauss", 1.0)
    assert SourceSpec.parse("periods:20").label() == "periods:20"
    for text in ("weird:1", "uniform", "periods:2.5", "gauss:0", "gauss:nan", "periods:inf"):
        with pytest.raises(InvalidInput):
            SourceSpec.parse(text)


def test_encode_vector_origin(lab31):
    d = ScaledDesign(lab31, beta=1.0)
    assert encode_vector(d, (0.0, 0.0)) == DirectedEdge((0, 0), (0, 0))


def test_encode_vector_matches_labeling(lab31):
    d = ScaledDesign(lab31, beta=0.75)
    rng = np.random.default_rng(1)
    for lam in rng.integers(-15, 15, size=(40, 2)):
        lam = tuple(int(x) for x in lam)
        x = 0.75 * lab31.lattice.embed(lam)
        assert encode_vector(d, x) == lab31.encode(lam)


def test_reconstruct_worked_example():
    hand = hand_labeling_a2_31()
    d = ScaledDesign(hand, beta=1.0)
    lat = hand.lattice
    de = DirectedEdge((23, 14), (17, 9))
    np.testing.assert_allclose(reconstruct(d, "both", de), lat.embed((18, 10)), atol=1e-12)
    np.testing.assert_allclose(reconstruct(d, "ch1", (23, 14)), lat.embed((23, 14)), atol=1e-12)
    np.testing.assert_allclose(reconstruct(d, "ch2", (17, 9)), lat.embed((17, 9)), atol=1e-12)
    with pytest.raises(InvalidInput):
        reconstruct(d, "both-ish", de)
    # A single description must be a sublattice point: a float used to be
    # scaled as given, and a point off the sublattice was returned as well.
    for bad in [(1.5, 0), (1, 2, 3), "ab"]:
        with pytest.raises(InvalidInput):
            reconstruct(d, "ch1", bad)
    with pytest.raises(NotALabel):
        reconstruct(d, "ch2", (1, 0))


def test_round_trip_through_codec(lab31):
    d = ScaledDesign(lab31, beta=0.31)
    rng = np.random.default_rng(8)
    xs = rng.uniform(-4, 4, size=(1000, 2))
    lat = lab31.lattice
    for x in xs:
        de = encode_vector(d, x)
        y = reconstruct(d, "both", de)
        lam = _nearest(lat, x / 0.31)
        np.testing.assert_allclose(y, 0.31 * lat.embed(lam), atol=1e-9)


@pytest.mark.parametrize(
    "x", [(float("nan"), 0.0), (0.0, -float("inf")), (1e300, 0.0), (0.4,), (0.2, 0.3, 5.0)]
)
def test_encode_vector_rejects_bad_input(lab31, x):
    with pytest.raises(InvalidInput):
        encode_vector(ScaledDesign(lab31, beta=1.0), x)


# -- nearest lattice point ------------------------------------------------------------


def _nearest(lat, x):
    return tuple(bulk_nearest(lat, np.array([x], dtype=float))[0].tolist())


def test_nearest_inside_unit_cell(z2):
    assert _nearest(z2, (0.4, -0.4)) == (0, 0)


def test_nearest_perturbed_lattice_point(a2):
    x = a2.embed((1, 1)) + np.array([0.01, 0.01])
    assert _nearest(a2, x) == (1, 1)


def test_nearest_midpoint_tie_breaks_lexicographically(a2):
    # Midpoint of the lattice points 0 and 1: a genuine tie, resolved toward
    # the lexicographically smaller coordinate vector.
    assert _nearest(a2, (0.5, 0.0)) == (0, 0)


def test_nearest_half_integer_ties_cubic(z1, z2):
    assert _nearest(z1, (0.5,)) == (0,)
    assert _nearest(z1, (-0.5,)) == (-1,)
    assert _nearest(z2, (1.5, -2.5)) == (1, -3)


def test_nearest_cubic_rounding_is_exact(z1):
    # Rounding x - 1/2 in floating point took -1/2 + 2^-54 to -1 and an odd x
    # in [2^52, 2^53) to x - 1; the half-integers and their neighbours too.
    xs = [-0.5 + 2**-54, 0.5 - 2**-54, 2.0**52 + 1, 2.0**53 - 1, -(2.0**52) - 1, 2.0**52 - 0.5]
    halves = [k + 0.5 for k in (-(2**40), -3, -1, 0, 2, 2**51 - 1)]
    xs += halves + [float(np.nextafter(h, d)) for h in halves for d in (-np.inf, np.inf)]
    want = [math.ceil(Fraction(x) - Fraction(1, 2)) for x in xs]  # exact, half down
    assert want[:6] == [0, 0, 2**52 + 1, 2**53 - 1, -(2**52) - 1, 2**52 - 1]
    assert bulk_nearest(z1, np.array(xs)[:, None]).ravel().tolist() == want
    lab = design("Z1", 3)
    for x, w in zip(xs, want):
        assert encode_vector(ScaledDesign(lab), (x,)) == lab.encode((w,))


def _brute_nearest(lat, xs):
    # Oracle: exhaustive search over a generous box of coordinate vectors
    # around each row, in lexicographic order, so that the first strict
    # minimum of the rounded distance is the lex smallest nearest point.
    if lat.name == "A2":
        t = np.stack([xs[:, 0] + xs[:, 1] / SQRT3, 2.0 * xs[:, 1] / SQRT3], axis=1)
    else:
        t = xs
    base = np.floor(t).astype(np.int64)
    best_d = np.full(len(xs), np.inf)
    best = base.copy()
    for off in itertools.product(range(-3, 5), repeat=lat.dim):
        u = base + off
        d = np.round((((u @ lat.basis.T) - xs) ** 2).sum(axis=1), 12)
        upd = d < best_d
        best_d[upd] = d[upd]
        best[upd] = u[upd]
    return best


@pytest.mark.parametrize("name", ["A2", "Z2", "Z1"])
def test_quantizer_matches_brute_force(name):
    lat = get_lattice(name)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-8, 8, size=(10_000, lat.dim))
    np.testing.assert_array_equal(bulk_nearest(lat, xs), _brute_nearest(lat, xs))


@settings(max_examples=80, deadline=None)
@given(
    x=st.floats(min_value=-30, max_value=30, allow_nan=False),
    y=st.floats(min_value=-30, max_value=30, allow_nan=False),
)
def test_nearest_is_no_farther_than_any_neighbor(x, y):
    lat = get_lattice("A2")
    q = _nearest(lat, (x, y))
    dq = float(np.sum((lat.embed(q) - np.array([x, y])) ** 2))
    for du in (-2, -1, 0, 1, 2):
        for dv in (-2, -1, 0, 1, 2):
            other = (q[0] + du, q[1] + dv)
            d = float(np.sum((lat.embed(other) - np.array([x, y])) ** 2))
            assert dq <= d + 1e-9


# -- bulk kernels vs scalar exact path ----------------------------------------------


@pytest.mark.parametrize("name", ["A2", "Z2", "Z1"])
def test_bulk_nearest_matches_scalar(name):
    # The exact path quantizes one row at a time (encode_vector); a batch
    # must give each row the same point.
    lat = get_lattice(name)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-6, 6, size=(500, lat.dim))
    got = bulk_nearest(lat, xs)
    for x, g in zip(xs, got):
        assert tuple(int(v) for v in g) == _nearest(lat, x)


@pytest.mark.parametrize("name,n", [("A2", 31), ("A2", 9), ("Z2", 13), ("Z1", 7)])
def test_bulk_coset_reduce_matches_scalar(name, n):
    lab = design(name, n, params=(5, -1) if (name, n) == ("A2", 31) else None)
    sub = lab.sub
    rng = np.random.default_rng(4)
    lam = rng.integers(-50, 50, size=(500, sub.dim)).astype(np.int64)
    idx, u, vp = bulk_coset_reduce(sub, lam, np.array(sub.coset_reps))
    assert np.array_equal(u @ sub.gtilde.T, vp)
    for i in range(len(lam)):
        v, r = sub.coset_reduce(tuple(int(x) for x in lam[i]))
        assert tuple(int(x) for x in vp[i]) == v
        assert sub.coset_reps[idx[i]] == r


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z1", 7), ("Z4", 9), ("Z8", 81)])
def test_bulk_encoder_matches_scalar(name, n):
    lab = design(name, n, params=(5, -1) if (name, n) == ("A2", 31) else None)
    enc = BulkEncoder(lab)
    rng = np.random.default_rng(5)
    lam = rng.integers(-30, 30, size=(400, lab.lattice.dim)).astype(np.int64)
    e1, e2, _, _ = enc.encode(lam)
    for i in range(len(lam)):
        de = lab.encode(tuple(int(x) for x in lam[i]))
        assert tuple(int(x) for x in e1[i]) == de.first
        assert tuple(int(x) for x in e2[i]) == de.second


@functools.lru_cache(maxsize=None)
def _encoder(name, n):
    return BulkEncoder(design(name, n))


@st.composite
def _points(draw, enc):
    """Lattice points within +-coord_bound/2: arbitrary ones, and a table
    representative (the zero row included) plus a sublattice point."""
    sub, dim = enc.sub, enc.dim
    bound = enc.coord_bound // 2
    coord = st.one_of(st.integers(-40, 40), st.integers(-bound, bound))
    reach = bound // int(np.abs(sub.gtilde.astype(np.int64)).sum(axis=1).max())
    shift = st.integers(-reach, reach)
    reps = [tuple(int(x) for x in r) for r in enc.reps]
    free = st.tuples(*[coord] * dim)
    on_row = st.builds(
        lambda r, u: tuple(x + y for x, y in zip(r, sub.from_sub_coords(u))),
        st.sampled_from(reps),
        st.tuples(*[shift] * dim),
    )
    return draw(st.lists(st.one_of(free, on_row), min_size=1, max_size=16))


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z4", 49), ("Z8", 81)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bulk_scalar_and_direction_rule_agree(name, n, data):
    enc = _encoder(name, n)
    lab = design(name, n)
    pts = data.draw(_points(enc))
    e1, e2, _, _ = enc.encode(np.array(pts, dtype=np.int64))
    for lam, p, q in zip(pts, e1.tolist(), e2.tolist()):
        bulk = DirectedEdge(tuple(p), tuple(q))
        assert bulk == lab.encode(lam) == scalar_direct_edge(lab.lattice, alpha_u(lab, lam), lam)
        assert lab.decode_both(bulk) == lam


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z4", 49), ("Z8", 81)])
def test_label_coordinate_table(name, n):
    """The encoder's label coordinates are (E @ adj^T) / N, exactly: its
    table for every row in both orientations, and its labels of points
    near the origin and near the int64 guard ``coord_bound``."""
    enc = _encoder(name, n)
    sub = enc.sub
    adj = np.array(sub.adjugate, dtype=object)
    assert len(enc.ends) == len(enc.coords) == 2 * sub.index
    assert (enc.coords == enc.ends.astype(object) @ adj.T // sub.index).all()
    rng = np.random.default_rng(13)
    lam = rng.integers(-60, 60, size=(300, sub.dim))
    lam = np.concatenate([lam, lam + enc.coord_bound // 2 - 60])
    e1, e2, u1, u2 = enc.encode(lam)
    for e, u in [(e1, u1), (e2, u2)]:
        assert (e.astype(object) @ adj.T == sub.index * u.astype(object)).all()


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z4", 49), ("Z8", 81)])
def test_bulk_encoder_exact_past_coord_bound(name, n):
    """Rows past ``coord_bound`` and near +-2^62 run on Python ints: the
    labels equal the scalar encoder's and U = adj E / N exactly."""
    enc = _encoder(name, n)
    lab, sub = design(name, n), enc.sub
    rng = np.random.default_rng(14)
    k = rng.integers(0, 1000, size=(40, sub.dim))
    sign = rng.choice([-1, 1], size=k.shape)
    lam = np.concatenate([sign * (enc.coord_bound + k), sign * (2**62 - k), sign * (2**62 + k)])
    assert np.abs(lam).max() > enc.coord_bound
    e1, e2, u1, u2 = enc.encode(lam)
    adj = np.array(sub.adjugate, dtype=object)
    for e, u in [(e1, u1), (e2, u2)]:
        assert (e.astype(object) @ adj.T == sub.index * u.astype(object)).all()
    for p, a, b in zip(lam.tolist(), e1.tolist(), e2.tolist()):
        assert lab.encode(p) == DirectedEdge(tuple(a), tuple(b))


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z4", 49), ("Z8", 81)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bulk_decode_matches_scalar(name, n, data):
    """``BulkEncoder.decode`` returns the scalar ``decode_both`` point of every
    bulk-encoded label and of its reverse, near the origin, near
    +-``coord_bound`` and near +-2^62."""
    enc, lab = _encoder(name, n), design(name, n)
    near = st.sampled_from([0, enc.coord_bound, -enc.coord_bound, 2**62, -(2**62)])
    coord = st.builds(lambda x, k: x + k, near, st.integers(-300, 300))
    pts = data.draw(st.lists(st.tuples(*[coord] * enc.dim), min_size=1, max_size=12))
    e1, e2, _, _ = enc.encode(np.array(pts, dtype=np.int64))
    got, mirror = enc.decode(e1, e2).tolist(), enc.decode(e2, e1).tolist()
    for p, a, b, lam, other in zip(pts, e1.tolist(), e2.tolist(), got, mirror):
        assert tuple(lam) == lab.decode_both((a, b)) == p
        assert tuple(other) == lab.decode_both((b, a))


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 13), ("Z4", 49), ("Z8", 81)])
def test_bulk_and_scalar_decode_reject_the_same_pairs(name, n):
    """A label moved off the sublattice, and a pair whose class is in no row
    (inside the box of the base edge set, where the design has such a
    sublattice point, and outside it), is no label to either decoder; the bulk
    decoder names the row."""
    enc, lab = _encoder(name, n), design(name, n)
    sub = enc.sub
    e1, e2, _, _ = enc.encode(np.random.default_rng(15).integers(-40, 40, size=(8, sub.dim)))
    reach = np.abs(np.array(lab.base_endpoints)).max(axis=0)
    box = itertools.product(range(-4, 5) if sub.dim <= 2 else range(-1, 2), repeat=sub.dim)
    absent = [
        q for q in map(sub.from_sub_coords, box)
        if class_key(q) not in lab.class_table and (np.abs(q) <= reach).all()
    ][:1]
    assert absent or name == "Z2"  # the box of Z2/13 holds no other sublattice point
    far = sub.from_sub_coords((n,) + (0,) * (sub.dim - 1))
    moved = np.array(sub.coset_reps[1])
    zero = np.zeros(sub.dim, dtype=np.int64)
    for bad in [(e1[3] + moved, e2[3] + moved), *((zero, np.array(q)) for q in [*absent, far])]:
        with pytest.raises(NotALabel):
            lab.decode_both(tuple(tuple(x.tolist()) for x in bad))
        a, b = e1.copy(), e2.copy()
        a[5], b[5] = bad
        with pytest.raises(NotALabel, match="row 5"):
            enc.decode(a, b)


# -- label entropy --------------------------------------------------------------------


@st.composite
def _label_rows(draw):
    """(n, L) int64 rows with repeats; each column draws its values from a
    few of a narrow, a wide or the full int64 range, so that packing
    sometimes has to rank the prefix or the column."""
    n = draw(st.integers(1, 40))
    cols = []
    for _ in range(draw(st.integers(1, 8))):
        span = draw(st.sampled_from([1, 2, 5, 2**21, 2**40, 2**62, 2**64]))
        lo = draw(st.integers(-(2**63), 2**63 - span)) if span < 2**64 else -(2**63)
        pool = draw(st.lists(st.integers(lo, lo + span - 1), min_size=1, max_size=5))
        cols.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return np.array(cols, dtype=np.int64).T


@settings(max_examples=300, deadline=None)
@given(keys=_label_rows(), data=st.data())
def test_row_counts_equal_row_sort(keys, data):
    want_rows, want_counts = np.unique(keys, axis=0, return_counts=True)
    rows, counts = _row_counts(keys)
    assert rows.dtype == counts.dtype == np.int64
    assert np.array_equal(rows, want_rows) and np.array_equal(counts, want_counts)
    # Counted in chunks, then merged with the chunk counts as weights.
    cuts = sorted(data.draw(st.lists(st.integers(1, len(keys)), max_size=4)))
    parts = [_row_counts(chunk) for chunk in np.split(keys, cuts) if len(chunk)]
    rows, counts = _row_counts(*(np.concatenate(p) for p in zip(*parts)))
    assert np.array_equal(rows, want_rows) and np.array_equal(counts, want_counts)


# Rows that make ``_row_counts`` rank: two columns of range 2^40 cannot pack
# into one int64, so the packed prefix is ranked; a column of range 2^64 cannot
# pack even alone, so the column is ranked too.
_RANKED_PREFIX = np.array([[0, 2**40], [2**40, 0], [0, 2**40], [2**40, 2**40]], dtype=np.int64)
_RANKED_COLUMN = np.array([[5, -(2**63)], [5, 2**63 - 1], [-4, 0], [5, -(2**63)]], dtype=np.int64)


@st.composite
def _weighted_rows(draw):
    keys = draw(_label_rows())
    weights = draw(st.none() | st.lists(st.integers(1, 2**40), min_size=len(keys), max_size=len(keys)))
    return keys, None if weights is None else np.array(weights, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(case=_weighted_rows())
@example(case=(_RANKED_PREFIX, None))
@example(case=(_RANKED_PREFIX, np.array([3, 1, 4, 1], dtype=np.int64)))
@example(case=(_RANKED_COLUMN, None))
@example(case=(_RANKED_COLUMN, np.array([2**40, 7, 1, 2], dtype=np.int64)))
def test_row_counts_match_row_unique(case):
    keys, weights = case
    want_rows, inverse = np.unique(keys, axis=0, return_inverse=True)
    want = np.zeros(len(want_rows), dtype=np.int64)
    np.add.at(want, inverse.ravel(), 1 if weights is None else weights)
    rows, counts = _row_counts(keys, weights)
    assert rows.dtype == counts.dtype == np.int64
    assert np.array_equal(rows, want_rows) and np.array_equal(counts, want)


def test_row_counts_single_row_and_all_zero_keys():
    rows, counts = _row_counts(np.array([[-3, 7]], dtype=np.int64))
    assert rows.tolist() == [[-3, 7]] and counts.tolist() == [1]
    rows, counts = _row_counts(np.zeros((CHUNK, 2), dtype=np.int64), np.full(CHUNK, 3))
    assert rows.tolist() == [[0, 0]] and counts.tolist() == [3 * CHUNK]


def test_simulate_constant_labels_have_zero_entropy():
    # A2/1 over one period: every label key is the zero row.
    d = ScaledDesign(design("A2", 1), beta=1.0)
    rep = simulate(d, SourceSpec.parse("periods:1"), CHUNK + 5, seed=1)
    assert rep.h1 == rep.h2 == 0.0


# -- simulation -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, -5])
def test_simulate_rejects_empty_sample_count(lab31, n):
    with pytest.raises(InvalidInput):
        simulate(ScaledDesign(lab31, beta=1.0), SourceSpec.parse("uniform:2"), n, seed=1)


@pytest.mark.parametrize("name,n", [("A2", 7), ("Z4", 9)])
def test_simulate_rejects_samples_beyond_int64(name, n):
    d = ScaledDesign(design(name, n), beta=1e-3)
    with pytest.raises(InvalidInput):
        simulate(d, SourceSpec.parse("gauss:1e17"), 1000, seed=0)


def test_simulate_degenerate_index_one():
    lab = design("A2", 1)
    d = ScaledDesign(lab, beta=1.0)
    rep = simulate(d, SourceSpec.parse("uniform:3"), 20_000, seed=1)
    assert rep.d1 == pytest.approx(rep.d0, abs=1e-12)
    assert rep.d2 == pytest.approx(rep.d0, abs=1e-12)


@pytest.mark.parametrize(
    "name,n,source",
    [
        ("Z8", 81, "periods:2"),
        ("A2", 31, "periods:20"),
        ("Z1", 5, "uniform:2"),
        ("Z4", 49, "periods:20"),  # 20^4 labels: too many for a tally at any block size here
    ],
)
def test_simulate_does_not_depend_on_block_size(monkeypatch, name, n, source):
    d = ScaledDesign(design(name, n), beta=0.7)
    src = SourceSpec.parse(source)

    def report(block, n_samples):
        monkeypatch.setattr(codec, "BLOCK", block)
        return simulate(d, src, n_samples, seed=3).to_dict()

    # 150 001 samples end in a partial chunk, and in a partial block below CHUNK.
    want = report(CHUNK, 150_001)
    for block in (1000, 8191):
        assert report(block, 150_001) == want
    # A block of one row costs about 0.2 ms, so it runs on fewer samples.
    assert report(1, 3_001) == report(CHUNK, 3_001)


@pytest.mark.parametrize("name,n,period", [("Z8", 81, 2), ("A2", 31, 20), ("Z4", 49, 4)])
def test_simulate_label_tally_matches_row_counts(monkeypatch, name, n, period):
    # periods:p counts its labels in a tally of p^L entries when p^L <= BLOCK;
    # a block one row smaller sends the same labels through ``_row_counts``.
    d = ScaledDesign(design(name, n), beta=0.7)
    src = SourceSpec.parse(f"periods:{period}")
    calls = []

    def row_counts(*args):
        calls.append(len(args[0]))
        return _row_counts(*args)

    monkeypatch.setattr(codec, "_row_counts", row_counts)
    # 150 001 samples end in a partial chunk, and in a partial block below CHUNK.
    want = simulate(d, src, 150_001, seed=3).to_dict()
    assert calls == []
    monkeypatch.setattr(codec, "BLOCK", period**d.dim - 1)
    assert simulate(d, src, 150_001, seed=3).to_dict() == want
    assert calls


def test_simulate_peak_memory():
    # tracemalloc peak for these 2^18 samples: about 81 MB while every stage
    # ran on whole 2^17-row chunks, about 51 MB in blocks.
    d = ScaledDesign(design("Z8", 81), beta=0.7)
    src = SourceSpec.parse("periods:2")
    simulate(d, src, 1000, seed=1)  # the design's cached tables are built untraced
    tracemalloc.start()
    try:
        simulate(d, src, 1 << 18, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 66e6


def test_simulate_deterministic(lab31):
    d = ScaledDesign(lab31, beta=1.0)
    src = SourceSpec.parse("periods:4")
    r1 = simulate(d, src, 50_000, seed=9)
    r2 = simulate(d, src, 50_000, seed=9)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)
    r3 = simulate(d, src, 50_000, seed=10)
    assert r3.d0 != r1.d0


def test_simulate_seeds_statistically_consistent(lab31):
    d = ScaledDesign(lab31, beta=1.0)
    src = SourceSpec.parse("periods:6")
    reps = [simulate(d, src, 60_000, seed=s) for s in (1, 2, 3)]
    d0s = [r.d0 for r in reps]
    assert max(d0s) - min(d0s) < 0.01 * reps[0].d0_analytic * 5
    for r in reps:
        assert r.d0 == pytest.approx(r.d0_analytic, rel=0.02)


def test_simulate_periods_matches_analytics(lab31):
    d = ScaledDesign(lab31, beta=1.0)
    rep = simulate(d, SourceSpec.parse("periods:20"), 200_000, seed=5)
    assert rep.d0 == pytest.approx(rep.d0_analytic, rel=0.02)
    assert rep.ds == pytest.approx(rep.ds_analytic, rel=0.02)
    assert abs(rep.d1 - rep.d2) / rep.ds < 0.01
    assert abs(rep.h1 - rep.r_analytic) < 0.05
    assert abs(rep.h2 - rep.r_analytic) < 0.05


@pytest.mark.parametrize("name,n", [("Z2", 13), ("Z1", 7)])
def test_simulate_periods_other_families(name, n):
    lab = design(name, n)
    d = ScaledDesign(lab, beta=1.5)
    rep = simulate(d, SourceSpec.parse("periods:10"), 150_000, seed=3)
    assert rep.d0 == pytest.approx(rep.d0_analytic, rel=0.02)
    assert rep.ds == pytest.approx(rep.ds_analytic, rel=0.02)
    assert abs(rep.h1 - rep.r_analytic) < 0.05


def test_simulate_gauss_runs(lab31):
    d = ScaledDesign(lab31, beta=0.2)
    rep = simulate(d, SourceSpec.parse("gauss:3"), 50_000, seed=2)
    # High-rate regime: quantizer distortion close to the cell second moment.
    assert rep.d0 == pytest.approx(rep.d0_analytic, rel=0.05)


def test_periods_sampler_hits_whole_cells(lab31):
    # The period-aligned source must place every sample inside the Voronoi
    # cell of its chosen lattice point: Q(x) recovers it, so d0 is exactly the
    # cell second moment in expectation.
    d = ScaledDesign(lab31, beta=2.0)
    rep = simulate(d, SourceSpec.parse("periods:3"), 30_000, seed=11)
    assert rep.d0 == pytest.approx(rep.d0_analytic, rel=0.05)


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z8", 81)])
def test_simulate_reports_the_analytic_values_of_the_design_report(name, n):
    lab = design(name, n)
    rep = simulate(ScaledDesign(lab, beta=0.7), SourceSpec.parse("uniform:1"), 10, seed=1)
    want = design_report(lab, beta=0.7)
    # Bit for bit: every report forms ds as d0 + excess.
    assert (rep.d0_analytic, rep.ds_analytic) == (want.d0_analytic, want.ds_analytic)
    assert rep.ds_analytic == want.d0_analytic + want.excess


def test_simulate_rejects_an_out_of_range_beta_before_any_draw(monkeypatch):
    # On Z1, d0 scales with beta^2: beta = 1e300 overflows it, and simulate
    # used to run every sample before the OverflowError.
    def no_encoder(labeling):
        raise AssertionError("the encoder was built")

    monkeypatch.setattr(codec, "BulkEncoder", no_encoder)
    d = ScaledDesign(design("Z1", 5), beta=1e300)
    with pytest.raises(InvalidInput, match="d0"):
        simulate(d, SourceSpec.parse("uniform:1"), 10**9, 1)


def test_rate_targeted_beta_round_trip(lab31):
    lat = lab31.lattice
    beta = rate_targeted_beta(lat, rate=3.0, a=0.5, h_bits=0.0)
    # R0 = R(1+a) + 1 under the N = 2^(L(aR+1)) coupling used in the sweeps.
    r0, _ = analytic_rates(lat, lab31.index, beta, 0.0)
    assert r0 == pytest.approx(3.0 * 1.5 + 1.0, abs=1e-12)


def test_source_entropy_periods(lab31):
    d = ScaledDesign(lab31, beta=1.0)
    src = SourceSpec.parse("periods:20")
    h = source_entropy_bits(src, d)
    r0, r = analytic_rates(d.lattice, d.index, d.beta, h)
    # Uniform over M^L periods: per-channel rate is exactly log2 M.
    assert r == pytest.approx(np.log2(20.0), abs=1e-12)
