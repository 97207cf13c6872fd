"""Read benchmark results files.

    python3 perfbench/report.py RESULTS.json
        print the metrics of one run, per-layer spans ranked by self time

    python3 perfbench/report.py --base A1.json A2.json ... --new B1.json B2.json ...
        compare two groups of runs of one workload: median, quartile spread
        and change of every metric, and whether the change exceeds the
        metric's bound in BENCHMARK.json

A comparison is refused (exit code 2) when the runs used different
mpmath backends or different workloads: the pure-Python and gmpy
backends give numbers that are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def show(record):
    env = record["env"]
    print(f"{record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"backend {env['mpmath_backend']}  python {env['python']}  nproc {env['nproc']}  "
          f"commit {env['git_commit'][:12]}")
    metrics = record["metrics"]
    if not record["trace"]:
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
        return
    rows = []
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            label = name[: -len(".self_s")]
            rows.append((m["value"], label, metrics[f"{label}.total_s"]["value"],
                         metrics[f"{label}.calls"]["value"]))
    print(f"  {'span':44s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for self_s, label, total_s, calls in sorted(rows, reverse=True):
        if calls:
            print(f"  {label:44s} {calls:9d} {total_s:10.4f} {self_s:10.4f}")
    for name, m in metrics.items():
        if not name.endswith((".calls", ".total_s", ".self_s")):
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")


def compare(base, new):
    records = base + new
    backends = {r["env"]["mpmath_backend"] for r in records}
    workloads = {r["workload"] for r in records}
    if len(backends) != 1 or len(workloads) != 1:
        print(f"refused: runs differ in mpmath backend {sorted(backends)} "
              f"or workload {sorted(workloads)}", file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]}
    print(f"{workloads.pop()}: {len(base)} base runs, {len(new)} new runs")
    print(f"  {'metric':28s} {'base':>12s} {'spread':>7s} {'new':>12s} {'spread':>7s} "
          f"{'change':>8s}  verdict")
    worse = False
    for name in base[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in new]
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else 0.0
        verdict = ""
        if name in bounds:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * change > bounds[name]["bound"]:
                verdict, worse = "WORSE than bound", True
            elif spread(a) > bounds[name]["bound"]:
                verdict = "unresolved (spread above bound)"
        print(f"  {name:28s} {ma:12.6g} {spread(a):7.3f} {mb:12.6g} {spread(b):7.3f} "
              f"{change:+8.3f}  {verdict}")
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file", nargs="?")
    parser.add_argument("--base", nargs="+")
    parser.add_argument("--new", nargs="+")
    args = parser.parse_args(argv)
    if args.file:
        show(load(args.file))
        return 0
    if not (args.base and args.new):
        parser.error("give one results file, or --base and --new")
    return compare([load(p) for p in args.base], [load(p) for p in args.new])


if __name__ == "__main__":
    sys.exit(main())
