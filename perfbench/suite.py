"""Run every workload of the benchmark over ten seeds, each run in a
fresh process, and summarise the spread of every metric.

    python3 perfbench/suite.py --traced --out results.json

For each end-to-end metric it prints the median over the seeds and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``.  With ``--traced`` it also makes one traced run per
workload and prints the per-layer metrics.  Runs go round-robin over the
workloads, so a slow spell of the machine falls on all of them alike.
The machine facts (cores, CPU model, cache sizes, Python and numpy
versions) go into the output file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def machine_facts():
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    facts["caches_per_cpu0"] = caches
    return facts


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--traced", action="store_true", help="add one traced run per workload")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in names}
    for seed in SEEDS:
        for w in names:
            result, _ = run_one(w, seed, seconds, 0)
            runs[w].append(result)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                + ("" if result["correct"] else f"  FAILED {result['failed']}/{result['attempted']}"),
                flush=True)

    summary, ok = {}, True
    print(f"\n{'workload':10} {'metric':14} {'median':>12} {'iqr/med':>8} {'bound':>6}")
    for w in names:
        summary[w] = {"correct": all(r["correct"] for r in runs[w]), "metrics": {}}
        ok &= summary[w]["correct"]
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs[w]]
            med, rel = spread(values)
            summary[w]["metrics"][metric] = {"median": med, "iqr_over_median": rel, "values": values}
            mark = "ok" if rel <= bounds[metric] / 3 else ("wide" if rel <= bounds[metric] else "TOO WIDE")
            ok &= rel <= bounds[metric]
            print(f"{w:10} {metric:14} {med:12.5g} {rel:8.4f} {bounds[metric]:6.2f} {mark}")

    traced = {}
    if args.traced:
        for w in names:
            result, info = run_one(w, SEEDS[0], seconds, 1)
            traced[w] = {"result": result, "info": info}
            print(f"\n{w} traced (seed {SEEDS[0]}):")
            for line in info:
                print("  " + line)
            for k, v in result["metrics"].items():
                print(f"  {k:34} {v['value']:>14.6g} {v['unit']}")

    doc = {"machine": machine_facts(), "seconds": seconds, "seeds": SEEDS,
           "summary": summary, "traced": traced}
    print("\nmachine " + json.dumps(doc["machine"]))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
