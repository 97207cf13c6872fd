"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The worker imports
biwkit from the checkout's ``src``, builds the workload's inputs, writes
``ready`` on stdout (the parent's set-up clock stops there), then runs
every certificate once, timing each, and writes a JSON result file.
A reference block (``calibrate.py``) is timed before the first
certificate and after each one, and in untraced passes a reference chunk
is timed every 0.05 s while a certificate runs; neither is part of any
certificate's time.
``--pass-index`` selects the pass's random inputs (see ``workloads.build``).
With ``--trace 1`` it records spans around biwkit's public functions and
adds the per-layer statistics to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter


def _import_biwkit(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import biwkit
    if not os.path.abspath(biwkit.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"biwkit imported from {biwkit.__file__}, not from {src}")


def _probe_p50_ms(call, repeats):
    samples = []
    for _ in range(repeats):
        t = perf_counter()
        call()
        samples.append(perf_counter() - t)
    return statistics.median(samples) * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    _import_biwkit(args.root)
    import workloads
    certs = workloads.build(args.workload, args.seed, args.pass_index)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0
    # Anything the program prints from here on goes to stderr, so the
    # parent never has to drain stdout.
    os.dup2(2, 1)
    import calibrate

    tracer = None
    missing = []
    if args.trace:
        import spans
        tracer = spans.Tracer()
        missing = tracer.install()

    ctx = workloads.PassContext(os.path.dirname(os.path.abspath(args.out)))
    records = []
    # Traced passes are not scaled, and spans must not contain handler time.
    sampler = None if tracer else calibrate.Sampler()
    chunk_s = calibrate.block()
    t0 = perf_counter()
    for i, cert in enumerate(certs):
        if tracer:
            tracer.run_id = i
        error = None
        inside, in_handler = [], 0.0
        if sampler:
            sampler.start()
        start = perf_counter()
        try:
            observed = cert.run(ctx)
        except Exception as exc:  # a raising certificate is a failed one
            observed = None
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if sampler:
            inside, in_handler = sampler.stop()
        elapsed -= in_handler
        chunk_after = calibrate.block()
        chunks = [chunk_s, chunk_after] + inside
        if isinstance(observed, tuple):
            observed = list(observed)
        expected = list(cert.expected) if isinstance(cert.expected, tuple) else cert.expected
        records.append({"name": cert.name, "expected": expected, "observed": observed,
                        "error": error, "ok": error is None and observed == expected,
                        "seconds": elapsed, "chunk_s": sum(chunks) / len(chunks),
                        "chunk_samples": len(chunks)})
        chunk_s = chunk_after
    certify_s = sum(r["seconds"] for r in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import mpmath
    result = {
        "kind": "traced" if args.trace else "untraced",
        "pass_index": args.pass_index,
        "certify_s": certify_s,
        "peak_rss_mb": rss_mb,
        "certs": records,
        "counts": dict(ctx.counts),
        "docs_sha256": ctx.digest.hexdigest(),
        "mpmath_backend": mpmath.libmp.BACKEND,
    }
    if tracer:
        tracer.uninstall()
        layer_stats = tracer.stats(certify_s)
        result["counts"].update(tracer.counts)
        result["counts"].update({k: v for k, v in layer_stats.items() if k.endswith(".calls")})
        result["layer_stats"] = layer_stats
        result["missing_names"] = missing
        result["layers_with_spans"] = tracer.layers_with_spans()
        if args.workload == "numeric":
            result["probes"] = {name: _probe_p50_ms(call, workloads.PROBE_REPEATS)
                                for name, call in workloads.numeric_probes().items()}
        if args.spans:
            tracer.write(args.spans, t0)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
