import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest

from mdlq.errors import InadmissibleIndex, InvalidInput, MdlqError, NoRepresentation, PropertyCheckFailed
from mdlq.evaluation import (
    admissible_asymptotic_indices,
    admissible_design_indices,
    analytic_rates,
    asymptotic_limit_check,
    bound_sandwich,
    design_report,
    edge_histogram,
    figure_data,
)
from mdlq.lattices import get_lattice, sphere_second_moment

from .conftest import design
from .reference_design import asymptotic_rows_per_index, theta_count


# -- rates -----------------------------------------------------------------------


def test_rates_n1_equal(z1):
    r0, r = analytic_rates(z1, 1, 1.0, 0.0)
    assert r0 == r


def test_rates_formula(z1):
    r0, r = analytic_rates(z1, 4, 1.0, 0.0)
    assert r0 == pytest.approx(0.0, abs=1e-12)
    assert r == pytest.approx(-2.0, abs=1e-12)  # R = R0 - 2 bits at N = 4


def test_rates_doubling_law(a2):
    _, r1 = analytic_rates(a2, 16, 0.7, 1.3)
    _, r2 = analytic_rates(a2, 32, 0.7, 1.3)
    assert r1 - r2 == pytest.approx(0.5, abs=1e-12)  # (1/L) bit per doubling


# -- bound sandwich -------------------------------------------------------------


def test_sandwich_n1_degenerate():
    lab = design("A2", 1)
    s = bound_sandwich(lab, 1.0)
    assert s.lower_term == s.mid_term == s.upper_term == 0
    assert s.lower == s.mid == s.upper


def test_sandwich_z1_n3_hand_values():
    s = bound_sandwich(design("Z1", 3), 1.0)
    assert s.lower_term == Fraction(3, 2)  # edge lengths {0, 9, 9}: 18/12
    assert s.mid_term == Fraction(5, 3)
    assert s.upper_term == Fraction(21, 2)  # + (2 * 3/2)^2
    assert s.holds()


@pytest.mark.parametrize("name,n", [("A2", 31), ("Z2", 25), ("Z4", 9), ("Z8", 81)])
def test_sandwich_holds(name, n):
    for beta in (1.0, 0.25):
        s = bound_sandwich(design(name, n), beta)
        assert s.holds()
        assert s.lower <= s.mid <= s.upper


# -- edge histogram -------------------------------------------------------------


def test_edge_histogram_a2_31(lab31):
    h = edge_histogram(lab31)
    assert h["B"] == {0: 1, 1: 6, 3: 6, 4: 6, 7: 12}
    assert h["K"] == 7
    assert h["B_eq_A_below_K"] and h["B_le_A_at_K"]


def test_edge_histogram_n1():
    h = edge_histogram(design("Z2", 1))
    assert h["B"] == {0: 1}


@pytest.mark.parametrize("name,n", [("Z1", 151), ("Z2", 25), ("Z4", 49), ("Z8", 81), ("A2", 199)])
def test_edge_histogram_matches_theta_shells(name, n):
    # The closed-form theta series, not the lattice-point enumeration that
    # edge_histogram itself counts with.
    h = edge_histogram(design(name, n))
    for i in range(h["K"]):
        assert h["B"].get(i, 0) == theta_count(name, i)
    assert h["B"][h["K"]] <= theta_count(name, h["K"])
    assert h["B_eq_A_below_K"] and h["B_le_A_at_K"]


def _histogram_of_lengths(lab, lengths):
    broken = dataclasses.replace(lab)
    broken.edge_lengths_sq = lambda: lengths
    return edge_histogram(broken)


def test_edge_histogram_flags_a_full_shell_missing_a_vector(lab31):
    # Shell 1 (6 vectors) lies below K = 7; drop one of its edges.
    lengths = lab31.edge_lengths_sq()
    lengths.remove(Fraction(lab31.sub.scale_sq, 2))
    h = _histogram_of_lengths(lab31, lengths)
    assert not h["B_eq_A_below_K"] and h["B_le_A_at_K"]


def test_edge_histogram_flags_more_edges_than_shell_k_holds(lab31):
    # All 12 vectors of shell K = 7 are edges already; a 13th overfills it.
    lengths = [*lab31.edge_lengths_sq(), Fraction(7 * lab31.sub.scale_sq, 2)]
    h = _histogram_of_lengths(lab31, lengths)
    assert h["B_eq_A_below_K"] and not h["B_le_A_at_K"]


# -- asymptotics -----------------------------------------------------------------


def test_admissible_asymptotic_indices(z1, a2):
    assert admissible_asymptotic_indices(z1, 15) == [3, 5, 7, 9, 11, 13, 15]
    ns = admissible_asymptotic_indices(a2, 100)
    assert 31 in ns and 7 in ns and 21 not in ns


def test_asymptotic_z1_limit(z1):
    rows = asymptotic_limit_check(z1, [3, 99, 9999], 0.5)
    ratios = [r["ratio"] for r in rows]
    target = 1.0 / 12.0
    assert abs(ratios[-1] - target) < 0.10 * target
    assert abs(ratios[-1] - target) < abs(ratios[0] - target)
    # Exact finite-size law  m(m+1)(2m+1)/(3 N^3)  for the integer lattice.
    for row in rows:
        m = (row["N"] - 1) // 2
        assert row["ratio"] == pytest.approx(m * (m + 1) * (2 * m + 1) / (3 * row["N"] ** 3), rel=1e-12)


def test_asymptotic_a2_limit(a2):
    ns = admissible_asymptotic_indices(a2, 1000)
    rows = asymptotic_limit_check(a2, [ns[0], ns[-1]], 0.5)
    target = sphere_second_moment(2)
    assert abs(rows[-1]["ratio"] - target) < 0.10 * target
    assert abs(rows[-1]["ratio"] - target) < abs(rows[0]["ratio"] - target)


def test_asymptotic_d0_identity(a2):
    for row in asymptotic_limit_check(a2, [31, 151], 0.3):
        assert row["d0_normalized"] == pytest.approx(a2.second_moment(), rel=1e-12)


def test_asymptotic_ratio_independent_of_a_and_h(z1):
    r1 = asymptotic_limit_check(z1, [99], 0.3, 0.0)[0]["ratio"]
    r2 = asymptotic_limit_check(z1, [99], 0.7, 2.5)[0]["ratio"]
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_asymptotic_rejects_bad_indices(a2, z1):
    with pytest.raises(InadmissibleIndex):
        asymptotic_limit_check(a2, [21], 0.5)  # does not fill shells
    with pytest.raises(NoRepresentation):
        asymptotic_limit_check(get_lattice("Z2"), [21], 0.5)  # not a sum of two squares
    with pytest.raises(InadmissibleIndex):
        asymptotic_limit_check(z1, [1], 0.5)  # too small for the rate map
    with pytest.raises(InvalidInput):
        asymptotic_limit_check(z1, [9], 1.5)


def _outcome(sweep, *args):
    try:
        return sweep(*args)
    except MdlqError as err:
        return type(err), str(err)


@pytest.mark.parametrize("name,n_max", [("A2", 3000), ("Z2", 3000), ("Z1", 9999)])
def test_asymptotic_rows_equal_the_per_index_reference(name, n_max):
    lat = get_lattice(name)
    ns = admissible_asymptotic_indices(lat, n_max)
    assert asymptotic_limit_check(lat, ns, 0.5) == asymptotic_rows_per_index(lat, ns, 0.5)
    rng = random.Random(n_max)
    for _ in range(20):
        sub = rng.sample(ns, rng.randint(1, 12))
        a, h = rng.choice([0.3, 0.5, 0.7]), rng.choice([0.0, 2.5, -3.0])
        assert asymptotic_limit_check(lat, sub, a, h) == asymptotic_rows_per_index(lat, sub, a, h)


@pytest.mark.parametrize("name", ["A2", "Z2", "Z1"])
def test_asymptotic_errors_match_the_per_index_reference(name):
    # Good and bad indices mixed: not representable, not filling shells, too
    # small for the rate map, non-positive; and entropies past the float range.
    lat = get_lattice(name)
    rng = random.Random(name)
    kinds = set()
    for _ in range(300):
        seq = [rng.randint(-3, 200) for _ in range(rng.randint(0, 6))]
        a, h = rng.choice([0.3, 0.5]), rng.choice([0.0, 2.5, -530.0, 600.0])
        got = _outcome(asymptotic_limit_check, lat, seq, a, h)
        assert got == _outcome(asymptotic_rows_per_index, lat, seq, a, h)
        kinds.add(got[0] if isinstance(got, tuple) else list)
    assert {list, NoRepresentation, InadmissibleIndex, InvalidInput} <= kinds
    assert asymptotic_limit_check(lat, [], 0.5) == []


# -- figures ---------------------------------------------------------------------


def test_fig1_table():
    header, rows = figure_data("fig1")
    assert header[0] == "L"
    byname = {r[1]: r for r in rows}
    assert set(byname) == {"Z1", "Z2", "A2", "Z4", "Z8"}
    assert byname["Z1"][3] == 1.0 and byname["Z1"][5] == 1.0
    assert byname["A2"][2] == pytest.approx(0.0801875, abs=1e-6)
    # Monotone gain with dimension for the side-distortion ratio.
    assert byname["Z8"][5] < byname["Z2"][5] < 1.0


def test_fig9_constant_rate_and_hexagonal_gain():
    header, rows = figure_data("fig9", a2_indices=[7, 13, 31, 49], z_indices=[3, 5, 7])
    a2_rows = [r for r in rows if r[0] == "A2"]
    z_rows = [r for r in rows if r[0] == "Z"]
    lat_a2 = get_lattice("A2")
    for r in a2_rows:
        n, beta = r[2], r[3]
        assert n * beta**2 * lat_a2.fundamental_volume == pytest.approx(1.0, rel=1e-12)
        assert r[4] == pytest.approx(0.0, abs=1e-9)  # constant rate R = 0
    for r in z_rows:
        n, beta = r[2], r[3]
        assert (n * beta) ** 2 == pytest.approx(1.0, rel=1e-12)  # reported N * nu
    # At matched reported index the hexagonal design does at least as well.
    a2_by_n = {r[1]: r for r in a2_rows}
    z_by_n = {r[1]: r for r in z_rows}
    for n in set(a2_by_n) & set(z_by_n):
        assert a2_by_n[n][6] <= z_by_n[n][6] + 1e-12  # ds
        assert a2_by_n[n][5] <= z_by_n[n][5] + 1e-12  # d0


def test_fig10_table():
    header, rows = figure_data(
        "fig10", sweeps={"Z1": [3, 5], "Z2": [5], "Z4": [9], "Z8": [81]}
    )
    assert {r[0] for r in rows} == {"Z1", "Z2", "Z4", "Z8"}
    for r in rows:
        assert r[4] > 0  # excess positive for N > 1


def test_fig10_empty_sweep():
    header, rows = figure_data("fig10", sweeps={})
    assert rows == [] and header[0] == "lattice"


def test_figure_unknown_kind():
    with pytest.raises(InvalidInput):
        figure_data("fig2")


@pytest.mark.parametrize(
    "kind,kwargs",
    [
        ("fig10", {"sweep": {"Z1": [3]}}),  # ``sweeps`` misspelt
        ("fig9", {"a2_indices": [7], "nv_product": 2.0}),  # a removed keyword
        ("fig1", {"n_max": 50}),
    ],
)
def test_figure_rejects_keywords_it_does_not_read(kind, kwargs):
    # These used to return the default table without a word.
    with pytest.raises(InvalidInput, match=f"figure {kind} does not take {list(kwargs)[-1]}"):
        figure_data(kind, **kwargs)


# -- design report ----------------------------------------------------------------


def test_design_report(lab31):
    rep = design_report(lab31, beta=1.0, h_bits=0.0)
    doc = rep.to_dict()
    assert doc["schema"] == 1
    assert doc["index"] == 31
    assert rep.lower <= rep.ds_analytic <= rep.upper
    assert rep.ds_analytic == pytest.approx(rep.d0_analytic + rep.excess, abs=1e-12)
    assert rep.r0 - rep.r == pytest.approx(math.log2(31) / 2, abs=1e-12)


def test_design_report_names_a_broken_sandwich(lab31):
    # A cost above the upper bound's term puts ds above the upper bound.
    upper = bound_sandwich(lab31).upper_term
    broken = dataclasses.replace(lab31, cost_total=(upper + 1) * lab31.index)
    with pytest.raises(PropertyCheckFailed, match="bound-sandwich"):
        design_report(broken)


def test_edge_histogram_names_an_edge_off_the_shell_grid(lab31):
    broken = dataclasses.replace(lab31)
    broken.edge_lengths_sq = lambda: [Fraction(1, 3)]
    with pytest.raises(PropertyCheckFailed, match="edge-histogram"):
        edge_histogram(broken)


@pytest.mark.parametrize("beta,what", [(1e300, "d0"), (5e153, "the excess"), (1e-160, "d0"), (1e-300, "d0")])
def test_analytic_values_outside_the_normal_float_range_are_invalid_input(beta, what):
    # On Z1, d0, the excess and the bounds scale with beta^2: they overflowed
    # in a traceback, printed Infinity, or were silently 0.0 or subnormal.
    with pytest.raises(InvalidInput, match=re.escape(f"beta={beta} takes {what} beyond the normal float")):
        design_report(design("Z1", 5), beta)


def test_admissible_design_indices_small():
    # 9 = 3^2 + 0^2 gives the (rotated) 3Z^2 sublattice, a valid tie-free design.
    assert admissible_design_indices("Z2", 15) == [5, 9, 13]
