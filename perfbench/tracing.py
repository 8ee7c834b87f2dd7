"""Span tracing installed from outside the package.

The tracer wraps the functions that mdlq's own callers look up (a module
global such as ``mdlq.labeling.min_cost_assignment``, or a class attribute
such as ``SimilarSublattice.nearest2``) and records one span per call: its
name, start, end and parent.  Spans stay in memory; ``summary()`` turns them
into per-name totals, self times (duration minus the time covered by child
spans) and call counts.  Nothing in ``src/mdlq`` changes.

A target that a later version of the package has removed or renamed is left
out, and every metric that needs it is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

# span name -> call sites it wraps, as "module:attribute.path".
SPANS = {
    "sublattices.voronoi": ["mdlq.sublattices:SimilarSublattice.voronoi_reps"],
    "sublattices.nearest2": ["mdlq.sublattices:SimilarSublattice.nearest2"],
    "sublattices.coset_reduce": ["mdlq.sublattices:SimilarSublattice.coset_reduce"],
    "symmetry.group_for": ["mdlq.labeling:group_for"],
    "labeling.base_edge_set": ["mdlq.labeling:base_edge_set"],
    "labeling.matching": ["mdlq.labeling:optimal_class_matching"],
    "labeling.build": ["mdlq:build_labeling", "mdlq.labeling:build_labeling"],
    "labeling.verify": ["mdlq.labeling:Labeling.verify_properties"],
    "labeling.encode": ["mdlq.labeling:Labeling.encode"],
    "labeling.decode_both": ["mdlq.labeling:Labeling.decode_both"],
    "labeling.from_dict": ["mdlq.cli:labeling_from_dict"],
    "assignment.solve": ["mdlq.labeling:min_cost_assignment"],
    "codec.encoder_init": ["mdlq.codec:BulkEncoder.__init__"],
    "codec.nearest": ["mdlq.codec:bulk_nearest"],
    "codec.coset_reduce": ["mdlq.codec:bulk_coset_reduce"],
    "codec.encode": ["mdlq.codec:BulkEncoder.encode"],
    "codec.simulate": ["mdlq:simulate"],
    "evaluation.asymptotic": ["mdlq:asymptotic_limit_check"],
    "evaluation.sandwich": ["mdlq.cli:bound_sandwich"],
    "cli.verify": ["mdlq.cli:cmd_verify"],
}

# per-layer metric -> (span, field, unit); field is total, self, calls or a
# counter filled by a hook below.
LAYER_METRICS = {
    "sublattices.voronoi_s": ("sublattices.voronoi", "total", "s"),
    "sublattices.nearest2_s": ("sublattices.nearest2", "total", "s"),
    "sublattices.nearest2.calls": ("sublattices.nearest2", "calls", "count"),
    "sublattices.coset_reduce.calls": ("sublattices.coset_reduce", "calls", "count"),
    "symmetry.group_for_s": ("symmetry.group_for", "total", "s"),
    "symmetry.fallbacks": ("labeling.build", "fallbacks", "count"),
    "labeling.base_edge_set_s": ("labeling.base_edge_set", "total", "s"),
    "labeling.matching_s": ("labeling.matching", "self", "s"),
    "labeling.matching.calls": ("labeling.matching", "calls", "count"),
    "labeling.build_self_s": ("labeling.build", "self", "s"),
    "labeling.verify_s": ("labeling.verify", "total", "s"),
    "labeling.encode_s": ("labeling.encode", "total", "s"),
    "labeling.decode_both_s": ("labeling.decode_both", "total", "s"),
    "labeling.from_dict_s": ("labeling.from_dict", "total", "s"),
    "assignment.solve_s": ("assignment.solve", "total", "s"),
    "assignment.rows": ("assignment.solve", "rows", "count"),
    "assignment.max_rows": ("assignment.solve", "max_rows", "count"),
    "codec.encoder_init_s": ("codec.encoder_init", "total", "s"),
    "codec.nearest_s": ("codec.nearest", "total", "s"),
    "codec.coset_reduce_s": ("codec.coset_reduce", "total", "s"),
    "codec.encode_self_s": ("codec.encode", "self", "s"),
    "codec.simulate_self_s": ("codec.simulate", "self", "s"),
    "codec.samples": ("codec.simulate", "samples", "count"),
    "codec.label_bytes": ("codec.simulate", "label_bytes", "B"),
    "evaluation.asymptotic_s": ("evaluation.asymptotic", "total", "s"),
    "evaluation.sandwich_s": ("evaluation.sandwich", "total", "s"),
    "cli.verify_self_s": ("cli.verify", "self", "s"),
}

# Set-up layers traced once per traced run (prebuilt designs and files).
SETUP_METRICS = {
    "setup.sublattices.voronoi_s": ("sublattices.voronoi", "total", "s"),
    "setup.labeling.matching_s": ("labeling.matching", "self", "s"),
    "setup.assignment.solve_s": ("assignment.solve", "total", "s"),
}

# Layer counts that must repeat exactly for a fixed seed.
COUNT_METRICS = (
    "sublattices.nearest2.calls",
    "sublattices.coset_reduce.calls",
    "assignment.rows",
    "labeling.matching.calls",
    "symmetry.fallbacks",
    "codec.samples",
)


class Tracer:
    """In-memory span log: name id, parent index, start and end per span."""

    def __init__(self, full_group_order):
        # lattice name -> order of the full symmetry group of that lattice
        self.full_group_order = full_group_order
        self.names = list(SPANS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.present = set()
        self._saved = []
        self.reset()

    def reset(self):
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = {}
        self._cur = -1

    # -- span recording ----------------------------------------------------

    def _open(self, name_id):
        i = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._cur)
        self.ends.append(0.0)
        self._cur = i
        self.starts.append(perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = perf_counter()
        self._cur = self.parents[i]

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _wrap(self, fn, name):
        name_id = self._ids[name]
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def span_count(self):
        return len(self.starts)

    def wrapper_cost(self, calls=20000, repeats=7):
        """Seconds one wrapped call adds to a plain call (the fastest of
        ``repeats`` loops of ``calls`` each).  Clears the span log."""

        def noop():
            return None

        wrapped = self._wrap(noop, self.names[0])
        best = float("inf")
        for _ in range(repeats):
            self.reset()
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = perf_counter()
            best = min(best, (t2 - t1) - (t1 - t0))
        self.reset()
        return max(best, 0.0) / calls

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        """Wrap every resolvable call site; remember the originals."""
        for name, sites in SPANS.items():
            for site in sites:
                found = _resolve(site)
                if found is None:
                    continue
                owner, attr, raw = found
                if isinstance(raw, functools.cached_property):
                    new = functools.cached_property(self._wrap(raw.func, name))
                    new.__set_name__(owner, attr)
                elif callable(raw):
                    new = self._wrap(raw, name)
                else:
                    continue
                setattr(owner, attr, new)
                self._saved.append((owner, attr, raw))
                self.present.add(name)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- summaries -----------------------------------------------------------

    def summary(self):
        """Per span name: total and self seconds and call count."""
        import numpy as np  # loaded by the package already; keeps this module stdlib-only

        n_names = len(self.names)
        ids = np.asarray(self.name_ids, dtype=np.intp)
        parents = np.asarray(self.parents, dtype=np.intp)
        dur = np.asarray(self.ends, dtype=float) - np.asarray(self.starts, dtype=float)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        total = np.bincount(ids, weights=dur, minlength=n_names)
        selfs = np.bincount(ids, weights=self_time, minlength=n_names)
        calls = np.bincount(ids, minlength=n_names)
        return {
            name: {"total": float(total[i]), "self": float(selfs[i]), "calls": int(calls[i])}
            for i, name in enumerate(self.names)
        }

    def metrics(self, table):
        """Evaluate a metric table; absent metrics are returned separately."""
        spans = self.summary()
        values, absent = {}, []
        for metric, (span, field, unit) in table.items():
            if span not in self.present:
                absent.append(metric)
                continue
            if field in ("total", "self", "calls"):
                value = spans[span][field]
            else:
                value = self.counters.get(f"{span}.{field}", 0)
            values[metric] = (value, unit)
        return values, absent


def _resolve(site):
    """(owner, attribute, raw value) for "module:Attr.path", or None."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


# -- hooks: counts read from a call's arguments or result ---------------------


def _assignment_hook(tracer, args, kwargs, out):
    cost = args[0] if args else kwargs.get("cost")
    rows = len(cost) if cost is not None else 0
    tracer.count("assignment.solve.rows", rows)
    tracer.maximum("assignment.solve.max_rows", rows)


def _build_hook(tracer, args, kwargs, out):
    group = getattr(out, "group", None)
    lattice = getattr(out, "lattice", None)
    if group is None or lattice is None:
        return
    full = tracer.full_group_order.get(lattice.name, 0)
    tracer.count("labeling.build.fallbacks", int(group.order == 2 and full > 2))


def _simulate_hook(tracer, args, kwargs, out):
    n = args[2] if len(args) > 2 else kwargs.get("n_samples", 0)
    dim = getattr(args[0], "dim", 0) if args else 0
    tracer.count("codec.simulate.samples", n)
    # Both channels' label keys (n x L int64 each) are held until the entropy.
    tracer.maximum("codec.simulate.label_bytes", 2 * n * dim * 8)


_HOOKS = {
    "assignment.solve": _assignment_hook,
    "labeling.build": _build_hook,
    "codec.simulate": _simulate_hook,
}
