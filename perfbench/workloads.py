"""The four benchmark workloads: inputs from the seed, one timed pass, checks.

Every workload reaches the package only through names in ``mdlq.__all__``
plus ``mdlq.cli.main``, looked up at call time so that the tracer's wrappers
take effect.  It never passes ``threads`` or ``chunk`` to ``simulate``.

A workload object has ``setup()``, which builds what a pass needs (the
prebuilt designs and design files) and returns it, and ``run_pass(state)``,
which does the fixed job once and returns a ``Timings``: the wall time of
each of its operations, keyed ``"kind:detail"`` (kinds: build, simulate,
verify, roundtrip, asymptotic), and the times of the reference loop run
around them.  ``units`` gives the samples or round trips that one pass's
operations of a kind process.  Every checked operation is recorded in a
``Checker``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# Exact optimal labeling costs (numerator, denominator), recorded from the
# package at the commit that introduced this benchmark.
RECORDED_COST = {
    ("A2", 31): (528, 1),
    ("A2", 199): (136209, 1),
    ("A2", 397): (2163573, 2),
    ("Z1", 151): (1635473450, 1),
    ("Z2", 13): (49, 1),
    ("Z2", 181): (118518, 1),
    ("Z4", 49): (53, 1),
    ("Z8", 81): (27, 1),
}

BETA = 0.5
D_TOL = 0.02  # relative tolerance on d0 and ds against the analytic values
H_TOL = 0.05  # bits per dimension, channel entropies against R_analytic
G_TOL = 0.10  # last asymptotic ratio against the sphere second moment
ROUNDTRIP_RANGE = 10**6

# Inputs per size: "full" is the benchmark, "small" is the self-test.
SIZES = {
    "full": {
        "build": [("A2", 199), ("A2", 397), ("Z1", 151), ("Z2", 181), ("Z8", 81)],
        "sim-plane": [("A2", 31, "periods:20"), ("Z2", 13, "periods:20")],
        "sim-cube": [("Z4", 49, "periods:4"), ("Z8", 81, "periods:2")],
        "sim_samples": 1 << 18,
        "verify": [("A2", 31), ("A2", 199), ("Z2", 181), ("Z8", 81)],
        "roundtrip": [("A2", 31), ("Z2", 13), ("Z4", 49), ("Z8", 81)],
        "roundtrips_per_design": 2500,
        "asymptotic_n_max": 10**4,
    },
    "small": {
        "build": [("A2", 31)],
        "sim-plane": [("A2", 31, "periods:20")],
        "sim-cube": [("Z4", 49, "periods:4")],
        "sim_samples": 1 << 15,
        "verify": [("A2", 31)],
        "roundtrip": [("A2", 31)],
        "roundtrips_per_design": 100,
        "asymptotic_n_max": 300,
    },
}


_REFERENCE_DATA = []


def reference_seconds():
    """Wall time of one run of a fixed loop that does not touch the package.

    The machine is shared, and its speed drifts by 1.5x and more at every
    time scale from milliseconds to minutes.  The loop is timed next to the
    package's operations so that a run can express its times at a fixed
    machine speed (see ``run.py``).  It mixes the package's two kinds of
    work: exact Python arithmetic on Fractions and dicts of tuples, and
    numpy passes (row-wise ``unique``, rounding, a dot product)."""
    import numpy as np  # imported here, after run.py has set the thread limits

    if not _REFERENCE_DATA:
        rng = np.random.default_rng(12345)
        _REFERENCE_DATA.extend([rng.integers(-40, 40, size=(1 << 14, 2)), rng.standard_normal(1 << 17)])
    rows, values = _REFERENCE_DATA
    t0 = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 2500):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        table[(i, i * 7 % 13)] = acc.numerator % 1000
    sum(k[0] * v for k, v in table.items())
    np.unique(rows, axis=0)
    err = np.rint(values * 3.7) - values
    np.dot(err, err)
    return perf_counter() - t0


class Timings(dict):
    """Wall time of each operation of one pass, keyed ``"kind:detail"``, and
    in ``refs`` the times of the reference loop, run just before each
    operation and again after it once for every ``REF_EVERY_S`` it took, so
    that the loop samples the machine's speed about evenly over the pass
    (the long operations of ``build`` and ``sim-cube`` would otherwise leave
    too few reference times for a steady median)."""

    REF_EVERY_S = 0.5

    def __init__(self):
        super().__init__()
        self.refs = []

    @contextlib.contextmanager
    def time(self, what):
        self.refs.append(reference_seconds())
        t0 = perf_counter()
        try:
            yield
        finally:
            self[what] = perf_counter() - t0
            self.refs.extend(reference_seconds() for _ in range(int(self[what] / self.REF_EVERY_S)))


class Checker:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, what, problems, count=1, bad=None):
        """Record ``count`` operations, ``bad`` of them failed (default: all
        of them if ``problems`` is nonempty)."""
        if bad is None:
            bad = count if problems else 0
        self.attempted += count
        self.failed += bad
        if bad:
            self.messages.append(f"{what}: {'; '.join(problems)}")

    @contextlib.contextmanager
    def op(self, what, times=None):
        """One operation; an exception inside it counts as its failure.
        With ``times`` (a ``Timings``), it is timed there under ``what``."""
        problems = []
        with times.time(what) if times is not None else contextlib.nullcontext():
            try:
                yield problems
            except Exception as err:  # the benchmark keeps going and reports it
                problems.append("".join(traceback.format_exception_only(type(err), err)).strip())
        self.record(what, problems)


def _cost_problems(lab, key):
    num, den = RECORDED_COST[key]
    got = lab.cost_total
    if Fraction(got) != Fraction(num, den):
        return [f"cost_total {got} != recorded {num}/{den}"]
    return []


def _prebuild(mdlq, checker, keys):
    """Build and verify designs; check each cost against the record."""
    labs = {}
    for key in keys:
        with checker.op(f"prebuild {key[0]}/{key[1]}") as problems:
            lab = mdlq.build_labeling(mdlq.design_sublattice(*key))
            problems += _cost_problems(lab, key)
            labs[key] = lab
    return labs


class Build:
    """Exact optimal labelings on a ladder of designs, built from scratch."""

    def __init__(self, mdlq, seed, size, checker, workdir):
        self.mdlq = mdlq
        self.checker = checker
        self.ladder = list(SIZES[size]["build"])
        random.Random(seed).shuffle(self.ladder)
        self.units = {}

    def setup(self):
        return None

    def run_pass(self, state):
        mdlq = self.mdlq
        times = Timings()
        for key in self.ladder:
            with self.checker.op(f"build:{key[0]}/{key[1]}", times) as problems:
                sub = mdlq.design_sublattice(*key)
                sub.voronoi_reps
                lab = mdlq.build_labeling(sub, check=False)
                lab.verify_properties()
                problems += _cost_problems(lab, key)
        return times


class Simulate:
    """Bulk Monte-Carlo simulation of prebuilt designs."""

    def __init__(self, mdlq, seed, size, checker, workdir, family):
        self.mdlq = mdlq
        self.checker = checker
        self.designs = SIZES[size][family]
        self.n = SIZES[size]["sim_samples"]
        rng = random.Random(seed)
        self.seeds = [rng.randrange(1 << 31) for _ in self.designs]
        self.first_reports = {}
        self.units = {"simulate": self.n * len(self.designs)}

    def setup(self):
        return _prebuild(self.mdlq, self.checker, [(lat, n) for lat, n, _ in self.designs])

    def run_pass(self, labs):
        mdlq = self.mdlq
        times = Timings()
        for (lat, n, source), seed in zip(self.designs, self.seeds):
            with self.checker.op(f"simulate:{lat}/{n} {source}", times) as problems:
                design = mdlq.ScaledDesign(labs[(lat, n)], BETA)
                rep = mdlq.simulate(design, mdlq.SourceSpec.parse(source), self.n, seed)
                problems += _sim_problems(rep)
                doc = rep.to_dict()
                first = self.first_reports.setdefault((lat, n), doc)
                if doc != first:
                    problems.append("report differs from the first pass with the same seed")
        return times


def _sim_problems(rep):
    problems = []
    for name, got, want in (("d0", rep.d0, rep.d0_analytic), ("ds", rep.ds, rep.ds_analytic)):
        if not abs(got / want - 1.0) <= D_TOL:
            problems.append(f"{name}={got:.6g} vs analytic {want:.6g}")
    for name, got in (("H1", rep.h1), ("H2", rep.h2)):
        if not abs(got - rep.r_analytic) <= H_TOL:
            problems.append(f"{name}={got:.4f} vs R_analytic {rep.r_analytic:.4f}")
    return problems


def _a2_norms(n_max):
    """Values a^2 - ab + b^2 <= n_max (the indices with an A2 sublattice)."""
    r = math.isqrt(4 * n_max // 3) + 1
    return {
        a * a - a * b + b * b
        for a in range(-r, r + 1)
        for b in range(r + 1)
        if 0 < a * a - a * b + b * b <= n_max
    }


def asymptotic_indices(mdlq, n_max):
    """A2 indices N <= n_max that fill whole shells, admit a sublattice and
    exceed 2^L, so that the rate map N = 2^(L(aR+1)) has R > 0.

    The package has the same rule in ``mdlq.evaluation`` (without the 2^L
    cut), but not among the names of ``mdlq.__all__``, the only ones this
    benchmark calls; the copy keeps the sweep's inputs fixed if that helper
    is renamed or changed."""
    lat = mdlq.get_lattice("A2")
    max_norm = 64
    shells = lat.shells(max_norm)
    while shells.S(len(shells) - 1) < n_max:
        max_norm *= 2
        shells = lat.shells(max_norm)
    filled, acc = set(), 0
    for a in shells.A:
        acc += a
        if acc > n_max:
            break
        filled.add(acc)
    return sorted(n for n in filled & _a2_norms(n_max) if n > 2**lat.dim)


class Exact:
    """Scalar exact paths: CLI verify of design files, round trips, and the
    asymptotic sweep."""

    def __init__(self, mdlq, seed, size, checker, workdir):
        self.mdlq = mdlq
        self.checker = checker
        self.workdir = Path(workdir)
        cfg = SIZES[size]
        self.verify_keys = list(cfg["verify"])
        self.roundtrip_keys = cfg["roundtrip"]
        self.n_roundtrip = cfg["roundtrips_per_design"]
        self.n_max = cfg["asymptotic_n_max"]
        rng = random.Random(seed)
        rng.shuffle(self.verify_keys)
        self.points = {}
        for key in self.roundtrip_keys:
            dim = mdlq.get_lattice(key[0]).dim
            self.points[key] = [
                tuple(rng.randint(-ROUNDTRIP_RANGE, ROUNDTRIP_RANGE) for _ in range(dim))
                for _ in range(self.n_roundtrip)
            ]
        self.units = {"roundtrip": self.n_roundtrip * len(self.roundtrip_keys)}

    def setup(self):
        mdlq = self.mdlq
        keys = list(dict.fromkeys(self.verify_keys + list(self.roundtrip_keys)))
        labs = _prebuild(mdlq, self.checker, keys)
        files = []
        for key in self.verify_keys:
            path = self.workdir / f"design_{key[0]}_{key[1]}.json"
            with self.checker.op(f"write design file {path.name}"):
                path.write_text(json.dumps(labs[key].to_dict(), indent=2, sort_keys=True) + "\n")
            files.append(str(path))
        ns = asymptotic_indices(mdlq, self.n_max)
        return {"labs": labs, "files": files, "asymptotic_ns": ns}

    def run_pass(self, state):
        mdlq = self.mdlq
        checker = self.checker
        times = Timings()
        for path in state["files"]:
            with checker.op(f"verify:{Path(path).name}", times) as problems:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = mdlq.cli.main(["verify", "--design", path])
                text = out.getvalue()
                if code != 0 or "FAIL" in text or text.count("PASS") != 4:
                    problems.append(f"exit {code}: {text.strip()!r}")
        for key in self.roundtrip_keys:
            lab = state["labs"].get(key)  # None if its build failed; every trip then fails
            bad, problems = 0, []
            what = f"roundtrip:{key[0]}/{key[1]}"
            with times.time(what):
                for lam in self.points[key]:
                    try:
                        got = lab.decode_both(lab.encode(lam))
                    except Exception as err:  # counted as this round trip's failure
                        got = err
                    if got != lam:
                        bad += 1
                        if len(problems) < 3:
                            problems.append(f"{lam} -> {got!r}")
            checker.record(what, problems, len(self.points[key]), bad)
        with checker.op("asymptotic:A2", times) as problems:
            ns = state["asymptotic_ns"]
            rows = mdlq.asymptotic_limit_check(mdlq.get_lattice("A2"), ns, 0.5)
            g = mdlq.sphere_second_moment(2)
            if len(rows) != len(ns) or not abs(rows[-1]["ratio"] / g - 1.0) <= G_TOL:
                problems.append(f"last ratio {rows[-1]['ratio']!r} vs G(S_2) {g!r}")
        return times


def make(name, mdlq, seed, size, checker, workdir):
    if name == "build":
        return Build(mdlq, seed, size, checker, workdir)
    if name in ("sim-plane", "sim-cube"):
        return Simulate(mdlq, seed, size, checker, workdir, name)
    if name == "exact":
        return Exact(mdlq, seed, size, checker, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("build", "sim-plane", "sim-cube", "exact")
