"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The sweep designs are built once and shared.
"""

import json
import math
import time

import numpy as np
import pytest

from mdlq.cli import main as cli_main
from mdlq.codec import BulkEncoder, ScaledDesign, SourceSpec, simulate
from mdlq.evaluation import (
    admissible_asymptotic_indices,
    admissible_design_indices,
    asymptotic_limit_check,
    bound_sandwich,
    figure_data,
)
from mdlq.labeling import DirectedEdge, color
from mdlq.lattices import get_lattice, sphere_second_moment

from .conftest import design
from .reference_design import HAND_COST_A2_31, brute_force_min_cost, hand_labeling_a2_31

SQRT3 = math.sqrt(3.0)


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def sweep_designs():
    """Every design point of the criterion-2 sweep, built and verified."""
    points = []
    for n in admissible_design_indices("A2", 200):
        points.append(("A2", n, None))
    for n in (5, 13, 25, 41, 61):
        points.append(("Z2", n, None))
    for n in (9, 25, 49):
        points.append(("Z4", n, None))
    points.append(("Z8", 81, None))
    for n in range(3, 16, 2):
        points.append(("Z1", n, None))
    return [(name, n, design(name, n, params)) for name, n, params in points]


def test_criterion_1_worked_example_fidelity():
    t0 = time.time()
    hand = hand_labeling_a2_31()
    a2 = hand.lattice
    # Encode / decode of the worked lattice point.
    de = hand.encode((18, 10))
    assert de == DirectedEdge((23, 14), (17, 9))
    assert hand.decode_both(de) == (18, 10)
    # Coloring rule values (assignment independent).
    assert color(a2, ((1, 6), (4, -7))) == 0
    assert color(a2, ((17, 9), (23, 14))) == 1
    # ac = 1 - 2w receives the directed label (L, C), L = 4 - 7w.
    assert hand.encode((1, -2)) == DirectedEdge((4, -7), (1, 6))
    # The optimizer's design satisfies the same structural semantics: the
    # label of the worked point still decodes exactly.
    opt = design("A2", 31, params=(5, -1))
    assert opt.decode_both(opt.encode((18, 10))) == (18, 10)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion-1", f"worked example exact, {elapsed:.2f}s")


def test_criterion_2_property_suite(sweep_designs):
    checked = 0
    for name, n, lab in sweep_designs:
        lab.verify_properties()  # Properties 1-3, exact
        enc = BulkEncoder(lab)
        rng = np.random.default_rng(n)
        lam = rng.integers(-50, 50, size=(10_000, lab.lattice.dim)).astype(np.int64)
        e1, e2, _, _ = enc.encode(lam)
        for i in range(len(lam)):
            got = lab.decode_both((tuple(int(x) for x in e1[i]), tuple(int(x) for x in e2[i])))
            assert got == tuple(int(x) for x in lam[i])
        checked += 1
    _report("criterion-2", f"{checked} designs, properties + 10k round trips each")


def test_criterion_3_optimality_oracle():
    for name, n in [("Z1", 3), ("Z1", 5), ("Z1", 7), ("A2", 7)]:
        lab = design(name, n)
        assert lab.cost_total == brute_force_min_cost(lab.sub)
    lab31 = design("A2", 31, params=(5, -1))
    assert lab31.cost_total <= HAND_COST_A2_31
    _report(
        "criterion-3",
        f"brute-force equality on 4 designs; N=31 cost {lab31.cost_total} <= {HAND_COST_A2_31}",
    )


@pytest.fixture(scope="module")
def criterion4_report():
    lab = design("A2", 31, params=(5, -1))
    d = ScaledDesign(lab, beta=1.0)
    t0 = time.time()
    rep = simulate(d, SourceSpec.parse("periods:20"), 1_000_000, seed=20)
    rep.elapsed = time.time() - t0
    return rep


def test_criterion_4_analytic_vs_empirical(criterion4_report):
    rep = criterion4_report
    assert rep.elapsed < 60.0
    assert abs(rep.d0 / rep.d0_analytic - 1.0) < 0.02
    assert abs(rep.ds / rep.ds_analytic - 1.0) < 0.02
    assert abs(rep.d1 - rep.d2) / rep.ds < 0.01
    _report(
        "criterion-4",
        "d0 err %.2e, ds err %.2e, balance %.2e, %.1fs"
        % (
            abs(rep.d0 / rep.d0_analytic - 1.0),
            abs(rep.ds / rep.ds_analytic - 1.0),
            abs(rep.d1 - rep.d2) / rep.ds,
            rep.elapsed,
        ),
    )


def test_criterion_5_rate_law(criterion4_report):
    rep = criterion4_report
    assert abs(rep.h1 - rep.r_analytic) < 0.05
    assert abs(rep.h2 - rep.r_analytic) < 0.05
    _report(
        "criterion-5",
        "|H1-R| = %.4f, |H2-R| = %.4f bits" % (abs(rep.h1 - rep.r_analytic), abs(rep.h2 - rep.r_analytic)),
    )


def test_criterion_6_bound_sandwich(sweep_designs):
    count = 0
    for name, n, lab in sweep_designs:
        for beta in (1.0, 0.37):
            sand = bound_sandwich(lab, beta)
            assert sand.holds()  # exact rational inequality
            count += 1
    # The figure sweeps check the sandwich internally as well.
    figure_data("fig10", sweeps={"Z1": [3, 9], "Z2": [13], "Z4": [9], "Z8": [81]})
    figure_data("fig9", a2_indices=[7, 31], z_indices=[3, 5])
    _report("criterion-6", f"{count} design points, exact inequalities")


def test_criterion_7_asymptotic_constant():
    results = []
    for name in ("Z1", "A2"):
        lat = get_lattice(name)
        ns = admissible_asymptotic_indices(lat, 10_000)
        ns = [n for n in ns if math.log2(n) / lat.dim > 1.0]
        rows = asymptotic_limit_check(lat, [ns[0], ns[-1]], 0.5)
        target = sphere_second_moment(lat.dim)
        first, last = rows[0]["ratio"], rows[-1]["ratio"]
        assert abs(last - target) < 0.10 * target
        assert abs(last - target) < abs(first - target)
        results.append((name, ns[-1], last, target))
    _report(
        "criterion-7",
        "; ".join("%s N=%d ratio=%.6f->G=%.6f" % r for r in results),
    )


def _hex_quadrature_g():
    r = 1.0 / SQRT3
    verts = [
        (r * math.cos(math.pi / 6 + k * math.pi / 3), r * math.sin(math.pi / 6 + k * math.pi / 3))
        for k in range(6)
    ]
    total = area = 0.0
    for k in range(6):
        b, c = np.asarray(verts[k]), np.asarray(verts[(k + 1) % 6])
        tri = 0.5 * abs(b[0] * c[1] - b[1] * c[0])
        f = lambda p: 0.5 * (p[0] ** 2 + p[1] ** 2)
        total += tri * (f(b / 2) + f((b + c) / 2) + f(c / 2)) / 3.0
        area += tri
    return total / area**2


def test_criterion_8_figure1_table():
    header, rows = figure_data("fig1")
    byname = {r[1]: r for r in rows}
    g_oracle = _hex_quadrature_g()
    assert abs(byname["A2"][2] - g_oracle) < 1e-4
    for name in ("Z1", "Z2", "Z4", "Z8"):
        assert byname[name][2] == 1.0 / 12.0
        assert byname[name][3] == 1.0
    assert byname["A2"][3] == pytest.approx(byname["A2"][2] * 12.0, rel=1e-12)
    assert byname["Z8"][5] < byname["Z2"][5] < 1.0
    _report("criterion-8", "G(A2)=%.7f vs oracle %.7f; sphere ratios ordered" % (byname["A2"][2], g_oracle))


def test_criterion_9_determinism(tmp_path):
    pairs = []
    for tag in ("x", "y"):
        d = tmp_path / f"design-{tag}.json"
        r = tmp_path / f"report-{tag}.json"
        assert cli_main(["design", "--lattice", "A2", "--index", "31", "--out", str(d)]) == 0
        assert (
            cli_main(
                [
                    "simulate", "--lattice", "A2", "--index", "31", "--source", "periods:8",
                    "--samples", "50000", "--seed", "123", "--out", str(r),
                ]
            )
            == 0
        )
        pairs.append((d.read_bytes(), r.read_bytes()))
    assert pairs[0][0] == pairs[1][0]
    assert pairs[0][1] == pairs[1][1]
    doc = json.loads(pairs[0][1])
    assert doc["seed"] == 123
    _report("criterion-9", "byte-identical design and report across runs")
