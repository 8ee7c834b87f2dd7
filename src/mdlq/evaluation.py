"""Analytic rate/distortion evaluation, distortion bounds, and the
high-rate asymptotics sweeps.

A design's analytic values are formed here once: ``analytic_point`` gives
d0, the excess and ds = d0 + excess, which every report reads.  One range
rule (``normal_float``) holds where each float is formed: a value whose exact
term is positive must be a normal float, else ``InvalidInput``; an exact
zero stays 0.0.

The side-distortion sandwich is checked in exact rational arithmetic: with
d0 subtracted and beta^2 factored out, all three bound terms are rationals,
so the inequalities hold exactly or not at all.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InadmissibleIndex, InvalidInput, MdlqError, PropertyCheckFailed
from .labeling import Labeling, build_labeling
from .lattices import Lattice, filled_shell, get_lattice, shell_prefix, sphere_second_moment
from .sublattices import design_sublattice, find_params, sublattice_indices


# ---------------------------------------------------------------------------
# closed-form rates and distortions (codec and cli call these too)
# ---------------------------------------------------------------------------


def normal_float(form, cause: str, what: str) -> float:
    """The float ``form()`` of a value whose exact term is positive;
    InvalidInput, naming ``cause``, unless it is a normal float.  An overflow
    (to inf, or an OverflowError of ``**``), an underflow (to 0.0 or a
    subnormal) or a division by an underflowed term would report a wrong
    value."""
    try:
        value = form()
    except ArithmeticError:
        value = math.nan
    if not sys.float_info.min <= value < math.inf:
        raise InvalidInput(f"{cause} takes {what} beyond the normal float range")
    return value


def cell_volume(lat: Lattice, beta: float) -> float:
    """Volume nu(beta Lambda) of a Voronoi cell of the scaled lattice."""
    what = f"the cell volume beta^{lat.dim} nu"
    return normal_float(lambda: beta**lat.dim * lat.fundamental_volume, f"beta={beta}", what)


def analytic_d0(lat: Lattice, beta: float) -> float:
    """Central distortion d0 = G(Lambda) nu(beta Lambda)^(2/L)."""
    g = lat.second_moment()
    return normal_float(lambda: g * cell_volume(lat, beta) ** (2.0 / lat.dim), f"beta={beta}", "d0")


def analytic_rates(lat: Lattice, n: int, beta: float, h_bits: float):
    """(R0, R): the single-channel rate and the per-channel rate."""
    l = lat.dim
    r0 = h_bits - math.log2(cell_volume(lat, beta)) / l
    return r0, r0 - math.log2(n) / l


def rate_targeted_beta(lat: Lattice, rate: float, a: float, h_bits: float) -> float:
    """Scale factor for a target per-channel rate: beta^L = 2^(L h) 2^(-L R(1+a)) / (2^L nu)."""
    e = h_bits - rate * (1.0 + a) - 1.0
    nu = lat.fundamental_volume
    return normal_float(lambda: 2.0**e / nu ** (1.0 / lat.dim), f"rate {rate}", "beta")


@dataclass(frozen=True)
class AnalyticPoint:
    """The analytic distortions of a design at scale beta: d0, the labeling
    excess beta^2 (1/N) sum d_s(e), and ds = d0 + excess."""

    d0: float
    excess: float
    ds: float


def _excess(beta: float, cost: Fraction, n: int) -> float:
    """beta^2 cost / N as every report forms it, or, where beta^2 cost
    overflows, the float of the exact value (an OverflowError if it too is
    out of range)."""
    value = beta * beta * float(cost) / n
    if value == math.inf:
        value = float(Fraction(beta) ** 2 * cost / n)
    return value


def analytic_point(labeling: Labeling, beta: float) -> AnalyticPoint:
    d0 = analytic_d0(labeling.lattice, beta)
    cost, n = labeling.cost_total, labeling.index
    excess = 0.0  # an exact zero stays 0.0
    if cost:
        excess = normal_float(lambda: _excess(beta, cost, n), f"beta={beta}", "the excess")
    return AnalyticPoint(d0, excess, normal_float(lambda: d0 + excess, f"beta={beta}", "ds"))


@dataclass
class BoundSandwich:
    point: AnalyticPoint
    lower: float
    upper: float
    # beta^2 coefficients of the three terms above d0, exact.
    lower_term: Fraction
    mid_term: Fraction
    upper_term: Fraction

    @property
    def mid(self) -> float:
        return self.point.ds

    def holds(self) -> bool:
        return self.lower_term <= self.mid_term <= self.upper_term


def bound_sandwich(labeling: Labeling, beta: float = 1.0) -> BoundSandwich:
    """Lower/middle/upper side-distortion values for a scaled design.

    lower = d0 + (1/4N) sum l^2(e) * beta^2, mid is ds = d0 + excess,
    upper adds (2 R(Lambda'))^2 with R the sublattice covering radius.
    """
    n = labeling.index
    lengths = labeling.edge_lengths_sq()
    lower_term = sum(lengths, Fraction(0)) / (4 * n)
    # The covering-radius slack only enters through positive-length edges;
    # the N=1 design (zero edge only) has no side penalty at all.
    rstar_sq = 4 * labeling.sub.covering_radius_sq() if any(lengths) else Fraction(0)
    upper_term = lower_term + rstar_sq
    point = analytic_point(labeling, beta)
    d0 = point.d0
    lower, upper = (
        normal_float(lambda: d0 + beta * beta * float(t), f"beta={beta}", "a bound") if t else d0
        for t in (lower_term, upper_term)
    )
    return BoundSandwich(point, lower, upper, lower_term, labeling.cost_total / n, upper_term)


def edge_histogram(labeling: Labeling):
    """Histogram B_i of edge shell indices, with the theta-series checks.

    Each squared edge length is i * N^(2/L) / L for an integer shell index i;
    the construction promises B_i = A_i below the last shell and B_K <= A_K.
    A_i is counted over the ball of norm K, the design's own shells.
    """
    lat = labeling.lattice
    n = labeling.index
    hist: dict[int, int] = {}
    for l2 in labeling.edge_lengths_sq():
        i = l2 * lat.dim / labeling.sub.scale_sq
        if i.denominator != 1:
            raise PropertyCheckFailed("edge-histogram", f"edge length {l2} is not on the shell grid")
        hist[int(i)] = hist.get(int(i), 0) + 1
    kmax = max(hist)
    shells = Counter(lat.norms(lat.ball(kmax)).tolist())
    last_ok = hist[kmax] <= shells.pop(kmax, 0)
    full_match = {i: b for i, b in hist.items() if i < kmax} == shells
    return {"B": hist, "K": kmax, "B_eq_A_below_K": full_match, "B_le_A_at_K": last_ok, "N": n}


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def admissible_asymptotic_indices(lat: Lattice, n_max: int):
    """Indices 2^L < N <= n_max that are representable and fill shells
    exactly; 2^L < N keeps the rate of the map N = 2^(L(aR+1)) positive."""
    ns = sublattice_indices(lat, n_max)
    if lat.dim > 1:  # every odd N fills the shells of Z1
        ns &= set(shell_prefix(lat, n_max)[0])
    return sorted(n for n in ns if n > 2**lat.dim)


def asymptotic_limit_check(lat: Lattice, n_sequence, a: float, h_bits: float = 0.0):
    """Normalized side-distortion table along an index sweep.

    For each N: the rate solves N = 2^(L(aR+1)), the scale follows from the
    rate-targeted formula, d~ = (1/4N) sum l^2 beta^2 uses the exact shell
    sums, and the reported ratio d~ * 2^(2R(1-a)) / 2^(2h) tends to the
    sphere second moment G(S_L).  One shell table serves the whole sweep.
    """
    if not 0 < a < 1:
        raise InvalidInput(f"exponent a must lie in (0, 1), got {a}")
    l = lat.dim
    ns = list(n_sequence)
    n_max = max([1, *ns])
    representable = sublattice_indices(lat, n_max)
    if l > 1:  # Z1's ball of N points spans norms up to N^2/4: closed forms below
        running, weights = shell_prefix(lat, n_max)
    rows = []
    for n in ns:
        if n not in representable:
            find_params(lat, n)  # raises NoRepresentation with the reason
        m = (n - 1) // 2  # Z1: N = 2m + 1 points fill the shells up to norm m^2
        k = m * m if l == 1 else filled_shell(running, n)
        if k is None:
            raise InadmissibleIndex(f"N={n} does not fill shells exactly")
        if math.log2(n) / l <= 1.0:
            raise InadmissibleIndex(f"N={n} too small for the rate map N=2^(L(aR+1))")
        # sum of i * A_i over the filled shells; for Z1, 2 * sum of x^2 over |x| <= m
        sum_i_ai = m * (m + 1) * (2 * m + 1) // 3 if l == 1 else weights[k]
        rate = (math.log2(n) / l - 1.0) / a
        beta = rate_targeted_beta(lat, rate, a, h_bits)
        sum_l2 = sum_i_ai * n ** (2.0 / l) / l
        # Outside the normal float range these values would have lost their precision.
        cause, what = f"entropy {h_bits} bits", f"the N={n} row"
        b2 = normal_float(lambda: beta * beta, cause, what)
        d_tilde = normal_float(lambda: b2 * sum_l2 / (4.0 * n), cause, what)
        d0 = analytic_d0(lat, beta)
        ratio = normal_float(
            lambda: d_tilde * 2.0 ** (2.0 * rate * (1.0 - a)) / 2.0 ** (2.0 * h_bits), cause, what
        )
        d0_norm = normal_float(
            lambda: d0 * 2.0 ** (2.0 * rate * (1.0 + a)) * 4.0 / 2.0 ** (2.0 * h_bits), cause, what
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


# ---------------------------------------------------------------------------
# design sweeps and figure tables
# ---------------------------------------------------------------------------


def admissible_design_indices(lat_name: str, n_max: int):
    """Indices 3 <= N <= n_max for which a full labeling design builds and verifies."""
    out = []
    for n in sorted(n for n in sublattice_indices(get_lattice(lat_name), n_max) if n >= 3):
        try:
            build_design(lat_name, n)
        except MdlqError:
            continue
        out.append(n)
    return out


_design_cache: dict = {}


def build_design(lat_name: str, n: int) -> Labeling:
    """Build a design once per process; later calls return the same object."""
    key = (lat_name, n)
    if key not in _design_cache:
        _design_cache[key] = build_labeling(design_sublattice(lat_name, index=n))
    return _design_cache[key]


# The keywords each figure reads.
_FIGURE_KEYWORDS = {"fig1": (), "fig9": ("a2_indices", "z_indices", "n_max"), "fig10": ("sweeps",)}


def figure_data(kind: str, **kwargs):
    """Data tables behind the summary figures; returns (header, rows).

    * ``fig1``: two-channel and side distortion ratios by dimension.
    * ``fig9``: (d0, ds) trade-off for the hexagonal lattice vs Z at a
      constant product N * nu (constant rate); the Z curve reports the
      squared index, as the comparison convention requires.
    * ``fig10``: labeling excess vs per-dimension index for Z^1..Z^8.

    A keyword the figure does not read raises ``InvalidInput``.
    """
    if kind not in _FIGURE_KEYWORDS:
        raise InvalidInput(f"unknown figure kind {kind!r}; expected fig1, fig9 or fig10")
    unread = sorted(set(kwargs) - set(_FIGURE_KEYWORDS[kind]))
    if unread:
        takes = ", ".join(_FIGURE_KEYWORDS[kind]) or "no keywords"
        raise InvalidInput(f"figure {kind} does not take {', '.join(unread)}; it takes {takes}")
    if kind == "fig1":
        header = ["L", "lattice", "G_lattice", "ratio_d0", "G_sphere", "ratio_ds"]
        g_z = get_lattice("Z1").second_moment()
        gs1 = sphere_second_moment(1)
        rows = []
        for name in ("Z1", "A2", "Z2", "Z4", "Z8"):
            lat = get_lattice(name)
            rows.append(
                [
                    lat.dim,
                    name,
                    lat.second_moment(),
                    lat.second_moment() / g_z,
                    sphere_second_moment(lat.dim),
                    sphere_second_moment(lat.dim) / gs1,
                ]
            )
        rows.sort(key=lambda r: (r[0], r[1]))
        return header, rows

    if kind == "fig9":
        header = ["curve", "N_reported", "N_actual", "beta", "R", "d0", "ds", "excess"]
        a2_ns = kwargs.get("a2_indices")
        if a2_ns is None:
            a2_ns = admissible_design_indices("A2", int(kwargs.get("n_max", 100)))
        z_ns = kwargs.get("z_indices")
        if z_ns is None:
            z_ns = list(range(3, math.isqrt(max(0, int(kwargs.get("n_max", 100)))) + 1, 2))
        rows = []
        for name, ns in (("A2", a2_ns), ("Z", z_ns)):
            lat = get_lattice("A2" if name == "A2" else "Z1")
            for n in ns:
                # Constant N * nu(beta Lambda) = 1 along the curve = constant rate.
                beta = (1.0 / (n * lat.fundamental_volume)) ** (1.0 / lat.dim)
                rep = design_report(build_design(lat.name, n), beta)
                n_reported = n * n if name == "Z" else n
                rows.append([name, n_reported, n, beta, rep.r, rep.d0_analytic, rep.ds_analytic, rep.excess])
        return header, rows

    if kind == "fig10":
        header = ["lattice", "L", "N", "N_per_dim", "excess", "lower", "upper"]
        sweeps = kwargs.get(
            "sweeps",
            {
                "Z1": list(range(3, 32, 2)),
                "Z2": [5, 13, 25, 41, 61],
                "Z4": [9, 25, 49],
                "Z8": [81],
            },
        )
        rows = []
        for name in sorted(sweeps):
            lat = get_lattice(name)
            for n in sweeps[name]:
                rep = design_report(build_design(name, n))
                # The bounds' excesses: lower and upper less d0.
                low, up = (bound - rep.ds_analytic + rep.excess for bound in (rep.lower, rep.upper))
                rows.append([name, lat.dim, n, n ** (1.0 / lat.dim), rep.excess, low, up])
    return header, rows


@dataclass
class DesignReport:
    """Analytic summary of one (lattice, N, beta) design point."""

    lattice: str
    params: tuple
    index: int
    beta: float
    d0_analytic: float
    excess: float
    ds_analytic: float
    lower: float
    upper: float
    r0: float
    r: float
    edge_hist: dict

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "lattice": self.lattice,
            "params": list(self.params),
            "index": self.index,
            "beta": self.beta,
            "d0_analytic": self.d0_analytic,
            "excess": self.excess,
            "ds_analytic": self.ds_analytic,
            "lower": self.lower,
            "upper": self.upper,
            "R0": self.r0,
            "R": self.r,
            "edge_histogram": {str(k): v for k, v in sorted(self.edge_hist["B"].items())},
            "edge_hist_checks": {
                "B_eq_A_below_K": self.edge_hist["B_eq_A_below_K"],
                "B_le_A_at_K": self.edge_hist["B_le_A_at_K"],
            },
        }


def design_report(labeling: Labeling, beta: float = 1.0, h_bits: float = 0.0) -> DesignReport:
    """The analytic values of a design at scale beta; PropertyCheckFailed
    unless its bound sandwich holds."""
    sand = bound_sandwich(labeling, beta)
    lat = labeling.lattice
    if not sand.holds():
        detail = f"{lat.name} N={labeling.index}: not lower <= ds <= upper"
        raise PropertyCheckFailed("bound-sandwich", detail)
    r0, r = analytic_rates(lat, labeling.index, beta, h_bits)
    return DesignReport(
        lattice=lat.name,
        params=tuple(labeling.sub.params),
        index=labeling.index,
        beta=beta,
        d0_analytic=sand.point.d0,
        excess=sand.point.excess,
        ds_analytic=sand.point.ds,
        lower=sand.lower,
        upper=sand.upper,
        r0=r0,
        r=r,
        edge_hist=edge_histogram(labeling),
    )
