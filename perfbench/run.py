"""mdlq benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing needs to be installed.  Workloads are
``build``, ``sim-plane``, ``sim-cube`` and ``exact`` (see ``workloads.py`` and
``README.md``).

Every time a run reports is in reference seconds: the wall time measured,
times ``REFERENCE_S`` over the median time of the reference loop
(``workloads.reference_seconds``), which the run times before each of its
imports, set-ups and operations and, during the long ones, once more for
every half second they took.  That is the time the work would take on
this machine at the speed at which the loop takes ``REFERENCE_S``; it takes
out most of the machine's drift in speed from run to run.

``--trace 0`` sets up the workload several times (``setup_s`` is the median
time of the package imports, each in a fresh interpreter, plus the median
time of the workload's own set-up), then repeats the workload's fixed pass for
about ``--seconds`` and prints the end-to-end metrics ``setup_s``,
``pass_s`` and ``peak_rss_mb``.  ``pass_s`` is the sum over the pass's
operations of each operation's median time over the passes.

``--trace 1`` sets up once with the tracer installed, then alternates an
untraced and a traced pass for about ``--seconds``.  It prints the per-layer
metrics of the traced passes (medians), the step metrics of the untraced
passes, the raw wall time and reference time, and ``trace.overhead_frac``:
the spans of one traced pass times the measured cost of one wrapped call,
over the untraced pass's wall time.  Metrics whose wrapped call site no
longer exists are left out and named on an ``absent`` line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 15
# Seconds the reference loop takes on this benchmark's machine at its usual
# speed (2 vCPUs of a shared Intel Xeon host): the unit of reported times.
REFERENCE_S = 0.035
WORK_DIR = ".perfbench_tmp"

import tracing  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402


SRC = ROOT / "src"
# Times the imports a user of the package pays for, in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, mdlq, mdlq.cli; print(time.perf_counter() - t)"
)


def import_mdlq():
    """Import the package from ``src/`` of this checkout."""
    if not (SRC / "mdlq" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package sources at {SRC / 'mdlq'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    # One thread: numpy's BLAS would otherwise use every core for the float
    # matrix products in simulate, and its thread pool adds run-to-run noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import mdlq
    import mdlq.cli  # noqa: F401

    if Path(mdlq.__file__).resolve().parent != (SRC / "mdlq").resolve():
        raise SystemExit(f"run.py: imported mdlq from {mdlq.__file__}, not from {SRC}")
    return mdlq


def import_seconds():
    """Seconds ``import numpy, mdlq, mdlq.cli`` takes in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_for(seconds, *runs):
    """Call ``runs`` in turn, round after round, for about ``seconds`` (the
    last round ends within half a round of it); at least one round.
    Returns the list of rounds of results."""
    start = perf_counter()
    rounds, round_times = [], []
    while True:
        t0 = perf_counter()
        rounds.append([run() for run in runs])
        round_times.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(round_times) / 2 > seconds:
            return rounds


def op_medians(passes):
    """Median wall time of each operation over the passes."""
    return {op: statistics.median(p[op] for p in passes if op in p) for op in passes[0]}


def speed_factor(refs):
    """Factor that turns this run's wall times into reference seconds."""
    return REFERENCE_S / statistics.median(refs)


def run_untraced(work, seconds):
    boot = workloads.Timings()  # samples the reference loop around the set-ups too
    imports = []
    for i in range(IMPORT_REPEATS):
        with boot.time(f"import:{i}"):
            imports.append(import_seconds())
    for i in range(SETUP_REPEATS):
        with boot.time(f"setup:{i}"):
            state = work.setup()
    setups = [boot[f"setup:{i}"] for i in range(SETUP_REPEATS)]
    rounds = repeat_for(seconds, lambda: work.run_pass(state))
    passes = [r[0] for r in rounds]
    refs = boot.refs + [t for p in passes for t in p.refs]
    speed = speed_factor(refs)
    wall_s = sum(op_medians(passes).values())
    print(f"wall time: pass {wall_s:.4g} s, imports {statistics.median(imports):.4g} s, set-up "
          f"{statistics.median(setups):.4g} s; reference loop {statistics.median(refs):.4g} s, "
          f"median of {len(refs)}")
    metrics = {
        "setup_s": ((statistics.median(imports) + statistics.median(setups)) * speed, "s"),
        "pass_s": (wall_s * speed, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, len(passes), []


def step_metrics(op_times, units, checker):
    """Workload step figures from untraced passes, in reference seconds;
    zero where a workload has no such step."""

    def total(kind):
        return sum(v for op, v in op_times.items() if op.split(":")[0] == kind)

    def rate(kind, scale=1.0):
        return units[kind] / total(kind) / scale if kind in units else 0.0

    return {
        "build_s": (total("build"), "s"),
        "sim_msamples_per_s": (rate("simulate", 1e6), "Msample/s"),
        "roundtrip_per_s": (rate("roundtrip"), "1/s"),
        "verify_s": (total("verify"), "s"),
        "asymptotic_s": (total("asymptotic"), "s"),
        "error_rate": (checker.failed / max(checker.attempted, 1), "ratio"),
    }


def full_group_orders(mdlq):
    orders = {}
    for name in ("Z1", "Z2", "Z4", "Z8", "A2"):
        try:
            orders[name] = mdlq.group_for(mdlq.get_lattice(name)).order
        except (mdlq.MdlqError, ValueError):
            orders[name] = 0
    return orders


def run_traced(work, seconds, mdlq, checker):
    tracer = tracing.Tracer(full_group_orders(mdlq))
    tracer.install()
    try:
        state = work.setup()
    finally:
        tracer.uninstall()
    setup_values, absent = tracer.metrics(tracing.SETUP_METRICS)
    tracer.reset()

    def traced_pass():
        tracer.install()
        try:
            times = work.run_pass(state)
        finally:
            tracer.uninstall()
        values, missing = tracer.metrics(tracing.LAYER_METRICS)
        spans = tracer.span_count()
        tracer.reset()
        return times, values, missing, spans

    rounds = repeat_for(seconds, lambda: work.run_pass(state), traced_pass)
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]

    refs = [t for p in plain for t in p.refs]
    speed = speed_factor(refs)
    metrics = {}
    for name, (_, unit) in traced[0][1].items():
        series = [t[1][name][0] for t in traced]
        if name in tracing.COUNT_METRICS:
            checker.record(f"count {name} repeats in every traced pass", [] if len(set(series)) == 1 else [f"values {series}"])
            metrics[name] = (series[0], unit)
        elif unit == "s":
            metrics[name] = (statistics.median(series) * speed, unit)
        else:
            metrics[name] = (max(series), unit)
    metrics.update({k: (v * speed if u == "s" else v, u) for k, (v, u) in setup_values.items()})
    absent = sorted(set(absent) | set(traced[0][2]))
    plain_ops = op_medians(plain)
    wall_s = sum(plain_ops.values())
    spans = statistics.median(t[3] for t in traced)
    metrics["trace.overhead_frac"] = (spans * tracer.wrapper_cost() / wall_s, "ratio")
    metrics["pass_wall_s"] = (wall_s, "s")
    metrics["reference_s"] = (statistics.median(refs), "s")
    metrics.update(step_metrics({op: t * speed for op, t in plain_ops.items()}, work.units, checker))
    return metrics, len(plain), absent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="input size; 'small' is for the self-test")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _number(value):
    return value if isinstance(value, int) else float(value)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the work directory is removed


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    mdlq = import_mdlq()
    checker = workloads.Checker()
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=ROOT / WORK_DIR) as workdir:
            work = workloads.make(args.workload, mdlq, args.seed, args.size, checker, workdir)
            if args.trace:
                metrics, n_passes, absent = run_traced(work, args.seconds, mdlq, checker)
            else:
                metrics, n_passes, absent = run_untraced(work, args.seconds)
    finally:
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass  # another run is still using it
    for msg in checker.messages[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n_passes} passes, "
          f"{checker.attempted} checked operations, {checker.failed} failed")
    if absent:
        print("absent " + json.dumps(absent))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": _number(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
