"""Benchmark entry point: certify one workload for a given time and report.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run is a closed loop of passes: one client, one certificate at a time,
each pass a fresh worker interpreter that builds the inputs and runs the
workload's certificates once (see ``workloads.py``).  Pass k draws its
random inputs from the seed and k.  Passes repeat until the next one
would end after ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several set-up-only interpreters and every pass's set-up), ``certify_s``
(median pass time), ``cert_p50_ms`` and ``peak_rss_mb``.  ``certify_s``
and ``cert_p50_ms`` are scaled to the nominal host speed of
``calibrate.py``; the raw wall times are in the results file and in the
``wall.*`` per-layer metrics.  ``--trace 1`` runs untraced and traced
passes in pairs on the same inputs and reports the per-layer metrics of
the traced ones, plus the tracing overhead.

Every certificate's outcome is checked against its expected one.  A
mismatch, an exception or a wrong exit code is a failure: the run prints
the failures, reports ``correct: false`` and exits 1.  The last line of
standard output is the JSON summary; a results file with the environment
record is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import spans  # noqa: E402
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("exact-deep", "exact-wide", "numeric")
SETUP_PROBES = 9
# Hard limit for one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def tree_digest(top, suffix=""):
    """sha256 over the files under top (ending in suffix), by relative path and content."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "results"))
        for name in sorted(filenames):
            if not name.endswith(suffix):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, args, stamp):
        self.args = args
        self.stamp = stamp
        self.started = perf_counter()
        self.count = 0

    def remaining(self):
        return RUN_LIMIT_S - (perf_counter() - self.started)

    def worker(self, pass_index=0, trace=0, setup_only=False):
        """Run one worker to completion; return its result with "setup_s" added."""
        self.count += 1
        tag = f"{self.stamp}-{self.count}"
        out = os.path.join(RESULTS, f"pass-{tag}.json")
        spans_path = os.path.join(RESULTS, f"spans-{self.args.workload}-s{self.args.seed}-"
                                           f"{tag}.jsonl.gz")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--pass-index", str(pass_index), "--trace", str(trace), "--out", out]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", spans_path]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            setup_s = perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"worker exited with code {code} before finishing")
        if setup_only:
            return {"setup_s": setup_s}
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(out)
        result["setup_s"] = setup_s
        if trace:
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
        return result


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def check_exact_repeat(workload, seed, pass_index, digest, counts):
    """Exact counts must repeat across traced runs of the same code, seed and pass."""
    key = hashlib.sha256((digest + tree_digest(HERE, ".py")).encode()).hexdigest()[:16]
    path = os.path.join(RESULTS, f"counts-{workload}-s{seed}-p{pass_index}-{key}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        differ = sorted(k for k in set(previous) | set(counts)
                        if previous.get(k) != counts.get(k))
        return [f"exact count {k} changed between traced runs: "
                f"{previous.get(k)} then {counts.get(k)}" for k in differ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    return []


def measure(args):
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    runner = Runner(args, stamp)
    setups = []
    if not args.trace:
        setups = [runner.worker(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    rounds = []
    loop_start = perf_counter()
    while True:
        t = perf_counter()
        for trace in ((0, 1) if args.trace else (0,)):
            result = runner.worker(pass_index=len(rounds), trace=trace)
            passes.append(result)
            if not trace:
                setups.append(result["setup_s"])
        rounds.append(perf_counter() - t)
        elapsed = perf_counter() - loop_start
        expected_round = statistics.median(rounds)
        if elapsed + expected_round > args.seconds or expected_round > runner.remaining():
            break
    return setups, passes


def problems_of(args, passes, digest):
    """Every reason the run is not correct, as readable lines."""
    problems = []
    for p in passes:
        for c in p["certs"]:
            if not c["ok"]:
                problems.append(f"{p['kind']} pass: {c['name']}: expected {c['expected']}, "
                                f"observed {c['observed']}" + (f" ({c['error']})" if c["error"] else ""))
    for k in sorted({p["pass_index"] for p in passes}):
        same_inputs = [p for p in passes if p["pass_index"] == k]
        if len({p["docs_sha256"] for p in same_inputs}) != 1:
            problems.append(f"output documents differ between passes on the inputs of pass {k}")
        untraced = [p["counts"] for p in same_inputs if p["kind"] == "untraced"]
        for p in same_inputs:
            if p["kind"] == "traced" and any(p["counts"].get(name) != value
                                             for u in untraced for name, value in u.items()):
                problems.append(f"exact counts differ between the untraced and traced "
                                f"passes on the inputs of pass {k}")
    backends = {p["mpmath_backend"] for p in passes}
    if len(backends) != 1:
        problems.append(f"passes ran with different mpmath backends: {sorted(backends)}")
    traced = [p for p in passes if p["kind"] == "traced"]
    if traced:
        for p in traced:
            if p["missing_names"]:
                problems.append(f"traced names missing from the program: {p['missing_names']}")
            calls = p["layer_stats"]
            for name in spans.EXPECTED_SPANS[args.workload]:
                if calls.get(f"{name}.calls", 0) == 0:
                    problems.append(f"span coverage: {name} recorded no span")
            for layer in spans.BYPASSED_LAYERS[args.workload]:
                if layer in p["layers_with_spans"]:
                    problems.append(f"span coverage: layer {layer} recorded spans "
                                    f"but {args.workload} must bypass it")
            problems += check_exact_repeat(args.workload, args.seed, p["pass_index"],
                                           digest, p["counts"])
    return problems


def scaled(cert):
    """A certificate's latency at the nominal host speed (see calibrate.py)."""
    return cert["seconds"] * calibrate.NOMINAL_CHUNK_S / cert["chunk_s"]


def end_to_end(setups, passes):
    untraced = [p for p in passes if p["kind"] == "untraced"]
    latencies = [scaled(c) for p in untraced for c in p["certs"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "certify_s": (statistics.median(sum(scaled(c) for c in p["certs"])
                                        for p in untraced), "s"),
        "cert_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
    }


def wall_metrics(passes):
    """Raw wall times and the reference chunk time of the untraced passes."""
    untraced = [p for p in passes if p["kind"] == "untraced"]
    certs = [c for p in untraced for c in p["certs"]]
    return {
        "wall.setup_s": statistics.median(p["setup_s"] for p in untraced),
        "wall.certify_s": statistics.median(p["certify_s"] for p in untraced),
        "wall.cert_p50_ms": statistics.median(c["seconds"] for c in certs) * 1e3,
        "host.chunk_ms": statistics.median(c["chunk_s"] for c in certs) * 1e3,
    }


def per_layer(passes):
    untraced = [p for p in passes if p["kind"] == "untraced"]
    traced = [p for p in passes if p["kind"] == "traced"]
    metrics = {}
    wall = wall_metrics(passes)
    for key in spans.metric_names():
        if key in wall:
            value = wall[key]
        elif key == "trace.overhead_ratio":
            value = (statistics.median(p["certify_s"] for p in traced)
                     / statistics.median(p["certify_s"] for p in untraced) - 1.0)
        elif key in spans.COUNT_METRICS:
            value = traced[0]["counts"].get(key, 0)
        elif key in spans.PROBE_METRICS:
            value = statistics.median(p.get("probes", {}).get(key, 0.0) for p in traced)
        else:
            value = statistics.median(p["layer_stats"][key] for p in traced)
        metrics[key] = (value, spans.unit_of(key))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "biwkit", "__init__.py")):
        print(f"error: no biwkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    digest = tree_digest(os.path.join(ROOT, "src"))
    try:
        setups, passes = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = problems_of(args, passes, digest)
    attempted = sum(len(p["certs"]) for p in passes)
    failed = sum(not c["ok"] for p in passes for c in p["certs"])
    metrics = per_layer(passes) if args.trace else end_to_end(setups, passes)
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath_backend": passes[0]["mpmath_backend"],
        "git_commit": git_commit(),
        "source_sha256": digest,
        "platform": platform.platform(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples_s": setups, "passes": passes,
        "problems": problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = os.path.join(RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}-"
                                 f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"results {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:14.6g} {unit}")
    untraced_latencies = [scaled(c) for p in passes if p["kind"] == "untraced"
                          for c in p["certs"]]
    print(f"  {'certs_attempted':52s} {attempted:14d} count")
    print(f"  {'failed_ratio':52s} {failed / attempted:14.6g} ratio")
    if not args.trace:
        if len(untraced_latencies) >= 100:
            print(f"  {'cert_p90_ms':52s} {percentile(untraced_latencies, 0.9) * 1e3:14.6g} ms")
        for name, value in wall_metrics(passes).items():
            print(f"  {name:52s} {value:14.6g} {spans.unit_of(name)}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
