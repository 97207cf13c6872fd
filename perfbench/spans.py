"""Span tracing from outside the program.

``Tracer.install`` replaces each traced public function of biwkit with a
wrapper that records one span per call: name, start, end, parent span and
run id (the index of the certificate that caused it).  Spans stay in
memory and are written out once, after timing ends.

A name is patched in every module namespace that bound it (``cli`` does
``from .operators import verify_bi_algebra``), and a method in every class
dictionary slot that holds it (``Polynomial.__rmul__`` is ``__mul__``).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
from time import perf_counter

# Traced names per layer (module).  Methods are "Class.method".
LAYERS = {
    "exact": ("Polynomial.__mul__", "Polynomial.exact_div", "Polynomial.affine_substitute"),
    "polyfam": ("bi_coefficients", "bi_polynomials", "q_polynomials",
                "nonsym_wilson_family", "q_modified_coefficients", "q_symmetry_check",
                "family_to_json"),
    "operators": ("DifferenceOperator.apply", "bi_realization", "verify_eigen_bi",
                  "verify_eigen_q", "verify_nonsym_wilson_eigen", "verify_bi_algebra",
                  "verify_nc_algebra", "verify_casimir", "verify_daha_relations",
                  "iso_forward", "iso_inverse", "verify_prop1_coefficients",
                  "verify_prop1_operator_transform"),
    "reptheory": ("build_rep", "verify_rep_relations", "positivity_scan"),
    "measure": ("orthogonality_gram", "h0", "log_gamma"),
    "cli": ("main",),
}

# Names whose per-call median is reported: they are called at least 11
# times per pass in every workload that calls them at all.
P50_NAMES = ("exact.Polynomial.__mul__", "exact.Polynomial.exact_div",
             "exact.Polynomial.affine_substitute", "operators.DifferenceOperator.apply",
             "polyfam.bi_coefficients", "polyfam.bi_polynomials", "cli.main")


# Exact counts recorded beside the spans, and the numeric probes.
COUNT_METRICS = ("exact.exact_div.max_dividend_degree", "exact.exact_div.max_divisor_degree",
                 "operators.monomials_checked", "cli.output_bytes", "reptheory.u_scanned",
                 "measure.gram.truncation_L", "measure.gram.panels")
PROBE_METRICS = ("measure.weight_W.p50_ms", "measure.log_gamma.p50_ms")
# Raw wall times of the untraced passes and the host's reference chunk
# time, from which the end-to-end times are scaled (see calibrate.py).
WALL_METRICS = ("wall.setup_s", "wall.certify_s", "wall.cert_p50_ms", "host.chunk_ms")

_EXACT = ("exact.Polynomial.__mul__", "exact.Polynomial.exact_div",
          "exact.Polynomial.affine_substitute")
_FAMILIES = ("polyfam.bi_coefficients", "polyfam.bi_polynomials", "polyfam.q_polynomials")

# Names each workload must record at least one span for, and layers it
# must record none in.
EXPECTED_SPANS = {
    "exact-deep": _EXACT + _FAMILIES + (
        "polyfam.nonsym_wilson_family", "polyfam.q_symmetry_check",
        "operators.DifferenceOperator.apply", "operators.bi_realization",
        "operators.verify_eigen_bi", "operators.verify_eigen_q",
        "operators.verify_nonsym_wilson_eigen", "operators.verify_bi_algebra",
        "operators.verify_nc_algebra", "operators.verify_casimir",
        "operators.verify_daha_relations", "operators.iso_forward", "operators.iso_inverse",
        "operators.verify_prop1_operator_transform"),
    "exact-wide": _EXACT + _FAMILIES + (
        "polyfam.nonsym_wilson_family", "polyfam.family_to_json", "cli.main",
        "operators.DifferenceOperator.apply", "operators.verify_eigen_bi",
        "operators.verify_eigen_q", "operators.verify_nonsym_wilson_eigen",
        "operators.verify_bi_algebra", "operators.verify_nc_algebra",
        "operators.verify_daha_relations", "operators.verify_prop1_coefficients",
        "operators.verify_prop1_operator_transform"),
    "numeric": _FAMILIES + (
        "exact.Polynomial.__mul__", "exact.Polynomial.affine_substitute",
        "polyfam.q_modified_coefficients", "reptheory.build_rep",
        "reptheory.verify_rep_relations", "reptheory.positivity_scan",
        "measure.orthogonality_gram", "measure.h0", "measure.log_gamma"),
}
BYPASSED_LAYERS = {
    "exact-deep": ("measure", "reptheory", "cli"),
    "exact-wide": ("measure", "reptheory"),
    "numeric": ("operators", "cli"),
}


def all_span_names():
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def metric_names():
    """Every per-layer metric, in report order."""
    names = []
    for label in all_span_names():
        names += [f"{label}.calls", f"{label}.total_s", f"{label}.self_s"]
        if label in P50_NAMES:
            names.append(f"{label}.p50_ms")
    return names + list(COUNT_METRICS) + list(PROBE_METRICS) + list(WALL_METRICS) + [
        "trace.coverage", "trace.overhead_ratio"]


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.startswith("trace.") else "count"


class Tracer:
    """Records spans and exact counts for the traced names of one pass."""

    def __init__(self):
        self.labels = []  # label of each traced name, by index
        self.index = {}
        self.name_of = []  # per span: label index
        self.start = []
        self.end = []
        self.parent = []
        self.run = []
        self.stack = []
        self.run_id = 0
        self.counts = {}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, label, fn, hook=None):
        index = self.index.setdefault(label, len(self.labels))
        if index == len(self.labels):
            self.labels.append(label)
        name_of, start, end = self.name_of, self.start, self.end
        parent, run, stack = self.parent, self.run, self.stack

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            i = len(start)
            name_of.append(index)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def _maximum(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    def _exact_div_hook(self, args, kwargs):
        dividend, divisor = args[0], args[1] if len(args) > 1 else kwargs["d"]
        self._maximum("exact.exact_div.max_dividend_degree", dividend.degree)
        self._maximum("exact.exact_div.max_divisor_degree", divisor.degree)

    def _degree_hook(self, fn):
        """Sum degree + 1 over the monomials a verify_* / iso_* call checks."""
        signature = inspect.signature(fn)
        key = "degree" if "degree" in signature.parameters else "n_max"

        def hook(args, kwargs):
            degree = signature.bind(*args, **kwargs).arguments[key]
            self.counts["operators.monomials_checked"] = (
                self.counts.get("operators.monomials_checked", 0) + degree + 1)
        return hook

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every traced name; return the labels that do not exist."""
        missing = []
        for layer, names in LAYERS.items():
            module = sys.modules[f"biwkit.{layer}"]
            for name in names:
                label = f"{layer}.{name}"
                cls_name, _, attr = name.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    missing.append(label)
                    continue
                hook = None
                if label == "exact.Polynomial.exact_div":
                    hook = self._exact_div_hook
                elif layer == "operators" and name.startswith(("verify_", "iso_")):
                    hook = self._degree_hook(original)
                wrapper = self._wrap(label, original, hook)
                if cls_name:
                    classes = [c for c in vars(module).values()
                               if isinstance(c, type) and issubclass(c, owner)]
                    for cls in classes:
                        for key, value in list(vars(cls).items()):
                            if value is original:
                                self._patch(cls, key, original, wrapper)
                            elif key == attr and cls is not owner:
                                self._patch(cls, key, value, self._wrap(label, value))
                else:
                    for mod in list(sys.modules.values()):
                        namespace = getattr(mod, "__dict__", None)
                        if not namespace or mod is sys.modules[__name__]:
                            continue
                        for key, value in list(namespace.items()):
                            if value is original:
                                self._patch(mod, key, original, wrapper)
        return missing

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def stats(self, certify_s):
        """Per-name calls, total_s, self_s and p50_ms, plus the trace coverage.

        Self time is a span's duration minus the durations of its direct
        children (calls are sequential, so children never overlap).  A
        span nested inside a span of the same name adds to self time but
        not again to total time.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        per_name = {}
        top_level = 0.0
        for i in range(n):
            label = self.labels[self.name_of[i]]
            entry = per_name.setdefault(label, {"durations": [], "total": 0.0, "self": 0.0})
            entry["durations"].append(duration[i])
            entry["self"] += duration[i] - child[i]
            j = self.parent[i]
            nested = False
            while j >= 0:
                if self.name_of[j] == self.name_of[i]:
                    nested = True
                    break
                j = self.parent[j]
            if not nested:
                entry["total"] += duration[i]
            if self.parent[i] < 0:
                top_level += duration[i]
        out = {}
        for label in all_span_names():
            entry = per_name.get(label)
            calls = len(entry["durations"]) if entry else 0
            out[f"{label}.calls"] = calls
            out[f"{label}.total_s"] = entry["total"] if entry else 0.0
            out[f"{label}.self_s"] = entry["self"] if entry else 0.0
            if label in P50_NAMES:
                out[f"{label}.p50_ms"] = (
                    statistics.median(entry["durations"]) * 1e3 if calls >= 11 else 0.0)
        out["trace.coverage"] = top_level / certify_s if certify_s > 0 else 0.0
        return out

    def layers_with_spans(self):
        return sorted({self.labels[i].split(".")[0] for i in set(self.name_of)})

    def write(self, path, t0):
        """Write the spans as gzip'd JSON lines: a header, then one row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.labels,
                                 "columns": ["name", "start_s", "end_s", "parent", "run"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([self.name_of[i], round(self.start[i] - t0, 9),
                                     round(self.end[i] - t0, 9), self.parent[i],
                                     self.run[i]]) + "\n")
