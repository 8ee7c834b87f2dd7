import itertools
import math

import numpy as np
import pytest

from mdlq.errors import InvalidInput, ResourceLimit
from mdlq.lattices import filled_shell, get_lattice, shell_prefix, sphere_second_moment

from .reference_design import theta_count

SQRT3 = math.sqrt(3.0)


# -- shells -------------------------------------------------------------------


def test_shells_a2(a2):
    sh = a2.shells(7)
    assert sh.A == (1, 6, 0, 6, 6, 0, 0, 12)
    # First five nonempty shells: 1+6+6+6+12 = 31.
    assert [c for c in sh.A if c] == [1, 6, 6, 6, 12]
    assert sh.S(7) == 31


def test_shells_z1(z1):
    assert z1.shells(4).A == (1, 2, 0, 0, 2)


def test_shells_origin_only(a2, z2):
    assert a2.shells(0).A == (1,)
    assert z2.shells(0).A == (1,)


def test_shells_cap():
    with pytest.raises(ResourceLimit):
        get_lattice("A2").shells(10**9)


@pytest.mark.parametrize(
    "name,max_norm", [("Z1", 400), ("Z2", 300), ("Z4", 120), ("Z8", 30), ("A2", 300)]
)
def test_shells_match_the_closed_form_theta_series(name, max_norm):
    want = tuple(theta_count(name, i) for i in range(max_norm + 1))
    assert get_lattice(name).shells(max_norm).A == want


@pytest.mark.parametrize("name,max_norm", [("Z1", 30), ("Z2", 20), ("A2", 20), ("Z4", 6), ("Z8", 2)])
def test_ball_is_the_filtered_box_in_order(name, max_norm):
    # x^2 + y^2 - xy >= (x^2 + y^2) / 2 bounds every coordinate of the box.
    lat = get_lattice(name)
    b = math.isqrt(2 * max_norm)
    box = list(itertools.product(range(-b, b + 1), repeat=lat.dim))
    for m in range(max_norm + 1):
        ball = lat.ball(m)
        assert ball.dtype == np.int64 and ball.shape[1] == lat.dim
        assert list(map(tuple, ball.tolist())) == [p for p in box if lat.qshell(p) <= m]


@pytest.mark.parametrize(
    "name,max_norm", [("Z1", 10**15), ("Z1", 10**100), ("Z8", 10**6), ("A2", 10**9)]
)
def test_oversized_ball_and_shells_hit_the_cap(name, max_norm):
    lat = get_lattice(name)
    with pytest.raises(ResourceLimit, match="exceeds the cap"):
        lat.ball(max_norm)
    with pytest.raises(ResourceLimit, match="exceeds the cap"):
        lat.shells(max_norm)


@pytest.mark.parametrize("name,max_norm", [("Z4", 35343), ("Z8", 20099)])
def test_cubic_shells_reach_past_ten_thousand(name, max_norm):
    # Earlier releases counted Z4 and Z8 tables this long within the cap (a
    # shift-add over every coordinate); they must keep returning, exactly.
    a = get_lattice(name).shells(max_norm).A
    assert len(a) == max_norm + 1
    for i in (1, 2, 7, 360, 4097, 9973, max_norm - 1, max_norm):
        assert a[i] == theta_count(name, i)


@pytest.mark.parametrize("name,max_norm", [("Z1", 50), ("Z2", 40), ("A2", 40), ("Z4", 12), ("Z8", 6)])
def test_ball_blocks_stream_the_ball_in_order(name, max_norm):
    lat = get_lattice(name)
    blocks = list(lat.ball_blocks(max_norm, 37))
    # Z1's ball is one column of first coordinates, never split.
    assert len(blocks) > 1 or lat.dim == 1
    assert all(len(b) <= max(37, 2 * math.isqrt(max_norm) + 1) for b in blocks)
    np.testing.assert_array_equal(np.concatenate(blocks), lat.ball(max_norm))


def test_ball_blocks_pass_a_ball_beyond_the_cap():
    # Z8's ball at norm 28 (the Voronoi bound of index 14^4) holds 2.7e6
    # points, more than the cap allows in one array.
    z8 = get_lattice("Z8")
    with pytest.raises(ResourceLimit):
        z8.ball(28)
    sizes = [len(b) for b in z8.ball_blocks(28, 1 << 16)]
    assert max(sizes) <= 1 << 16 and sum(sizes) == z8.shells(28).S(28)


@pytest.mark.parametrize("name", ["Z1", "Z8", "A2"])
def test_negative_norm_is_rejected(name):
    lat = get_lattice(name)
    with pytest.raises(ValueError):
        lat.ball(-1)
    with pytest.raises(ValueError):
        lat.shells(-1)


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z4", "Z8", "A2"])
def test_shell_counts_even_beyond_origin(name):
    sh = get_lattice(name).shells(12)
    assert sh.A[0] == 1
    assert all(a % 2 == 0 for a in sh.A[1:])


@pytest.mark.parametrize(
    "name,n",
    [("Z1", 10000), ("Z2", 2000), ("A2", 2000), ("Z4", 400), ("Z8", 60)],
)
def test_shell_growth_matches_ball_volume(name, n):
    lat = get_lattice(name)
    dim = lat.dim
    ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    s = lat.shells(n).S(n)
    ratio = s * lat.fundamental_volume / (ball * n ** (dim / 2.0))
    assert abs(ratio - 1.0) < 0.10


def test_fills_shells(a2, z1):
    def fills_shells(lat, n):
        return filled_shell(shell_prefix(lat, n)[0], n)

    assert fills_shells(a2, 31) == 7
    assert fills_shells(a2, 7) == 1
    assert fills_shells(a2, 21) is None
    assert fills_shells(z1, 9) == 16
    assert fills_shells(z1, 4) is None


# -- second moments -----------------------------------------------------------


def _hex_cell_vertices():
    # Voronoi cell of A2 at unit minimal distance: regular hexagon with
    # circumradius 1/sqrt(3), vertices between the six shell-1 directions.
    r = 1.0 / SQRT3
    return [
        (r * math.cos(math.pi / 6 + k * math.pi / 3), r * math.sin(math.pi / 6 + k * math.pi / 3))
        for k in range(6)
    ]


def _hex_second_moment_quadrature():
    # Midpoint rule on triangles is exact for quadratics.
    verts = _hex_cell_vertices()
    total = 0.0
    area = 0.0
    for k in range(6):
        a = np.zeros(2)
        b = np.asarray(verts[k])
        c = np.asarray(verts[(k + 1) % 6])
        tri_area = 0.5 * abs(b[0] * c[1] - b[1] * c[0])
        f = lambda p: 0.5 * (p[0] ** 2 + p[1] ** 2)  # normalized norm, L=2
        total += tri_area * (f((a + b) / 2) + f((b + c) / 2) + f((c + a) / 2)) / 3.0
        area += tri_area
    return total, area


def test_second_moment_cubic_families():
    for name in ("Z1", "Z2", "Z4", "Z8"):
        assert get_lattice(name).second_moment() == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_second_moment_a2_vs_quadrature_oracle(a2):
    integral, area = _hex_second_moment_quadrature()
    assert area == pytest.approx(a2.fundamental_volume, abs=1e-12)
    g = integral / area ** (1 + 2.0 / 2.0)
    assert g == pytest.approx(a2.second_moment(), abs=1e-12)
    assert a2.second_moment() == pytest.approx(0.0801875, abs=1e-6)


def test_second_moment_a2_vs_monte_carlo(a2):
    rng = np.random.default_rng(11)
    m = 2_000_000
    ymax = 1.0 / SQRT3
    pts = np.stack([rng.uniform(-0.5, 0.5, m), rng.uniform(-ymax, ymax, m)], axis=1)
    keep = (np.abs(0.5 * pts[:, 0] + 0.5 * SQRT3 * pts[:, 1]) <= 0.5) & (
        np.abs(-0.5 * pts[:, 0] + 0.5 * SQRT3 * pts[:, 1]) <= 0.5
    )
    cell = pts[keep]
    est = 0.5 * (cell**2).sum(axis=1).mean() / a2.fundamental_volume ** (2.0 / 2.0)
    assert est == pytest.approx(a2.second_moment(), rel=5e-3)


def test_second_moment_scale_invariance(a2):
    # G computed on a scaled cell equals G on the unit cell.
    integral, area = _hex_second_moment_quadrature()
    g_unit = integral / area**2
    for beta in (0.5, 2.0):
        scaled_integral = integral * beta**4  # ||beta x||^2 d(beta x)
        scaled_area = area * beta**2
        g_scaled = scaled_integral / scaled_area**2
        assert abs(g_scaled - g_unit) < 1e-9


def test_sphere_second_moment_values():
    assert sphere_second_moment(1) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert sphere_second_moment(2) == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-15)


def test_sphere_second_moment_limit():
    # Convergence to 1/(2 pi e) is slow (O(log L / L)); assert the monotone
    # approach from above and closeness at L=64.
    target = 1.0 / (2.0 * math.pi * math.e)
    values = [sphere_second_moment(l) for l in (1, 2, 4, 8, 16, 32, 64)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > target for v in values)
    assert values[-1] == pytest.approx(target, rel=0.06)


def test_unknown_lattice_is_invalid_input():
    with pytest.raises(InvalidInput, match="unknown lattice 'A3'"):
        get_lattice("A3")
