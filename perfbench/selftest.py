"""Quick self-test of the benchmark itself (about 15 seconds).

    python3 perfbench/selftest.py

1. Runs every workload on one small design with ``--trace 0`` and
   ``--trace 1`` and checks that the last line is the result object, that
   every check passed, and that every metric named in ``BENCHMARK.json`` is
   emitted with its unit (or, traced, named on the ``absent`` line).
2. Repeats each traced run with the same seed and checks that the layer
   counts are identical.
3. Corrupts one output of the package per workload, in this process, and
   checks that the workload counts a failure.
4. Checks that ``run.py`` exits nonzero, printing no result, in a directory
   that holds only ``BENCHMARK.json`` and the benchmark's own files.

Exits nonzero if any of these fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_small(workload, trace, seed=3):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_emitted(bench, failures):
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (x["name"] for x in bench["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            code, lines, err = run_small(w, trace)
            label = f"{w} --trace {trace}"
            if code != 0 or not lines:
                failures.append(f"{label}: exit {code} {err[-500:]}")
                continue
            result = json.loads(lines[-1])
            absent = []
            for line in lines[:-1]:
                if line.startswith("absent "):
                    absent = json.loads(line[len("absent "):])
            if set(result) != RESULT_KEYS:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']}/{result['attempted']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {k: u for k, u in expected[trace].items() if k not in absent}
            if got != want:
                failures.append(f"{label}: metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            if trace:
                counts.append({k: result["metrics"].get(k, {}).get("value") for k in tracing.COUNT_METRICS})
        if len(counts) == 2 and counts[0] != counts[1]:
            failures.append(f"{w}: layer counts differ between runs with one seed: {counts}")
        print(f"emitted metrics: {w} checked", flush=True)


def _corrupt_cost(mdlq):
    orig = mdlq.build_labeling

    def build_labeling(*args, **kwargs):
        lab = orig(*args, **kwargs)
        lab.cost_total += 1
        return lab

    return mdlq, "build_labeling", build_labeling


def _corrupt_report(mdlq):
    orig = mdlq.simulate

    def simulate(*args, **kwargs):
        rep = orig(*args, **kwargs)
        return dataclasses.replace(rep, d0=1.5 * rep.d0)

    return mdlq, "simulate", simulate


def _corrupt_decode(mdlq):
    orig = mdlq.Labeling.decode_both

    def decode_both(self, de):
        lam = orig(self, de)
        return (lam[0] + 1,) + tuple(lam[1:])

    return mdlq.Labeling, "decode_both", decode_both


FAULTS = {
    "build": _corrupt_cost,
    "sim-plane": _corrupt_report,
    "sim-cube": _corrupt_report,
    "exact": _corrupt_decode,
}


def scratch_dir():
    """A temporary directory inside the checkout's ignored work directory."""
    (ROOT / run.WORK_DIR).mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / run.WORK_DIR)


def check_faults_counted(mdlq, failures):
    for w, corrupt in FAULTS.items():
        checker = workloads.Checker()
        with scratch_dir() as workdir:
            work = workloads.make(w, mdlq, 3, "small", checker, workdir)
            state = work.setup()
            owner, attr, fake = corrupt(mdlq)
            saved = owner.__dict__[attr]
            setattr(owner, attr, fake)
            try:
                work.run_pass(state)
            finally:
                setattr(owner, attr, saved)
        if checker.failed < 1:
            failures.append(f"{w}: corrupted {attr} was not counted as a failure")
        print(f"fault counted: {w} {checker.failed}/{checker.attempted} failed", flush=True)


def check_refuses_without_sources(failures):
    with scratch_dir() as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        shutil.copytree(HERE, tmp / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "build", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    print(f"without sources: exit {proc.returncode}", flush=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    check_emitted(bench, failures)
    mdlq = run.import_mdlq()
    check_faults_counted(mdlq, failures)
    check_refuses_without_sources(failures)
    try:
        (ROOT / run.WORK_DIR).rmdir()
    except OSError:
        pass  # a benchmark run is using it
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
