"""The three benchmark workloads: their inputs, certificates and expected verdicts.

A workload is a list of certificates.  Each certificate is one public
``verify_*`` / ``iso_*`` / ``orthogonality_gram`` / ``verify_rep_relations``
/ ``positivity_scan`` call, or one ``biwkit.cli.main`` invocation, together
with the outcome it must have: ``True`` for a relation that holds,
``False`` for a negative control, an exit code for a CLI invocation.

Inputs are generated here from the seed with the benchmark's own
arithmetic (``fractions`` and ``random`` only), never with a biwkit
helper, so a change to the program cannot change what it is given.
Library objects are only used to *carry* the generated values into the
program (``ParameterSet``, ``DAHAParameterSet``, ``RealParameterQuad``).

Why each workload exists:

* ``exact-deep`` -- two parameter sets through every exact certificate,
  with two negative controls per set.  The same few operators are applied
  to every monomial of every relation; this is where the deferred
  (numerator, denominator) division grows.  ``measure`` is never called.
* ``exact-wide`` -- many distinct random parameter sets, each run through
  the command line at low degree.  Inputs share little work, so argument
  parsing, recurrence set-up, per-parameter operator construction and JSON
  tagging weigh far more than in ``exact-deep``.
* ``numeric`` -- the arbitrary-precision certificates: the Gram matrix at
  the half quad and at a narrow-strip quad (whose smaller analytic strip
  makes a trapezoid rule take a smaller step), the tridiagonal
  representation with its flipped-``alpha1`` control, and the positivity
  scan.  ``operators`` is never called.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from fractions import Fraction

from biwkit import cli, measure, operators, polyfam, reptheory
from biwkit.exact import ComplexRational
from biwkit.polyfam import DAHAParameterSet, ParameterSet, RealParameterQuad

# Sizes.  They are pinned so that one pass of each workload fits the run
# length at the seed commit; certificate thresholds are never changed.
# The exact-deep degrees spread the certificates' latencies over 0.1 to
# 0.3 s on the nominal host, so no gap sits at their median.
DEEP_DEGREES = {
    "verify_bi_algebra": 1,
    "verify_nc_algebra": 1,
    "verify_casimir": 0,
    "verify_daha_relations": 6,
    "iso_forward": 0,
    "iso_inverse": 0,
    "verify_prop1_operator_transform": 9,
    "verify_eigen_bi": 12,
    "verify_eigen_q": 13,
    "verify_nonsym_wilson_eigen": 13,
    "q_symmetry_check": 14,
}
# exact-wide: one random set per entry, (n_max, degree of verify-daha and
# verify-prop1, degree of verify-algebra).  Mixed sizes spread the
# certificate latencies, so their median moves smoothly with speed.
WIDE_SIZES = ((4, 2, 0), (6, 3, 0), (8, 4, 1), (10, 4, 1))
GRAM_N_MAX = 2
GRAM_PRECISION = 20
GRAM_TOL = Fraction(1, 10 ** 8)
# Initial half-width L of each Gram integral: the smallest L at which the
# off-diagonal certificate (<= 1e-20) still passes at the seed commit.
GRAM_TRUNCATION = {"half": 19, "narrow": 17}
REP_SIZE = 50
REP_PRECISION = 30
POSITIVITY_N = 500
# Scan lengths at the seeded random quads, spread for the same reason.
RANDOM_POSITIVITY_N = tuple(range(100, 700, 25))
PROBE_REPEATS = 21

HALF_QUAD = (Fraction(1, 2),) * 4
NARROW_QUAD = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 8), Fraction(2, 3))


@dataclasses.dataclass(frozen=True)
class Certificate:
    """One certificate: ``run(ctx)`` returns the observed outcome."""

    name: str
    run: object
    expected: object


class PassContext:
    """Exact counters and the output digest gathered during one pass."""

    def __init__(self, scratch_dir):
        self.counts = {}
        self.digest = hashlib.sha256()
        self.scratch_dir = scratch_dir

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


# ---------------------------------------------------------------------------
# Input generation (benchmark arithmetic only)

def _gaussian(rng):
    """A Gaussian rational with nonzero parts of bounded bit length."""
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 7))
    return part(), part()


def _nondegenerate(vals, degree):
    """True if n+s+1 and n+s+2 are nonzero for 0 <= n <= degree, s = a+b+c+d."""
    s_re = sum(v[0] for v in vals)
    s_im = sum(v[1] for v in vals)
    if s_im != 0:
        return True
    return all(n + s_re + k != 0 for n in range(degree + 1) for k in (1, 2))


def random_parameter_values(rng, degree):
    """Four random Gaussian rationals (re, im) with no vanishing denominator."""
    while True:
        vals = [_gaussian(rng) for _ in range(4)]
        if _nondegenerate(vals, degree):
            return vals


def conjugate_pairing(quad):
    """(alpha, beta, gamma, delta) -> a = alpha+i beta, b = gamma+i delta, c = conj a, d = conj b."""
    al, be, ga, de = quad
    return [(al, be), (ga, de), (al, -be), (ga, -de)]


def daha_values(vals):
    """(t0, t1, u0, u1) = ((c+d)/2+1/4, (a+b)/2+1/4, (c-d)/2, (a-b)/2), componentwise."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = vals
    q, h = Fraction(1, 4), Fraction(1, 2)
    return [((cr + dr) * h + q, (ci + di) * h), ((ar + br) * h + q, (ai + bi) * h),
            ((cr - dr) * h, (ci - di) * h), ((ar - br) * h, (ai - bi) * h)]


def _frac(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cli_text(vals):
    """Comma-separated "re+imi" values as the command line parses them."""
    out = []
    for re_, im in vals:
        sign = "-" if im < 0 else "+"
        out.append(f"{_frac(re_)}{sign}{_frac(abs(im))}i")
    return ",".join(out)


def _complex(v):
    return ComplexRational(v[0], v[1])


def parameter_set(vals):
    return ParameterSet(*(_complex(v) for v in vals))


def daha_set(vals):
    return DAHAParameterSet(*(_complex(v) for v in daha_values(vals)))


# ---------------------------------------------------------------------------
# Outcome helpers

def _verdict(report):
    passed = getattr(report, "passed", None)
    if passed is None:
        passed = report.realized_ok  # CasimirReport
    return bool(passed)


def _library(name, call, expected):
    def run(ctx):
        return _verdict(call())
    return Certificate(name, run, expected)


# ---------------------------------------------------------------------------
# exact-deep

def _deep_certificates(label, p, t):
    deg = DEEP_DEGREES
    sc = operators.structure_constants(p)
    perturbed = dataclasses.replace(sc, omega1=sc.omega1 + 1)
    return [
        _library(f"{label}/verify_bi_algebra",
                 lambda: operators.verify_bi_algebra(p, deg["verify_bi_algebra"]), True),
        _library(f"{label}/verify_nc_algebra",
                 lambda: operators.verify_nc_algebra(p, deg["verify_nc_algebra"]), True),
        _library(f"{label}/verify_casimir/compact",
                 lambda: operators.verify_casimir(p, deg["verify_casimir"], "compact"), True),
        _library(f"{label}/verify_casimir/noncompact",
                 lambda: operators.verify_casimir(p, deg["verify_casimir"], "noncompact"), True),
        _library(f"{label}/verify_daha_relations",
                 lambda: operators.verify_daha_relations(t, deg["verify_daha_relations"]), True),
        _library(f"{label}/iso_forward",
                 lambda: operators.iso_forward(*operators.bi_realization(p), deg["iso_forward"]),
                 True),
        _library(f"{label}/iso_inverse",
                 lambda: operators.iso_inverse(t, deg["iso_inverse"]), True),
        _library(f"{label}/verify_prop1_operator_transform",
                 lambda: operators.verify_prop1_operator_transform(
                     p, deg["verify_prop1_operator_transform"]), True),
        _library(f"{label}/verify_eigen_bi",
                 lambda: operators.verify_eigen_bi(deg["verify_eigen_bi"], p), True),
        _library(f"{label}/verify_eigen_q",
                 lambda: operators.verify_eigen_q(deg["verify_eigen_q"], p), True),
        _library(f"{label}/verify_nonsym_wilson_eigen",
                 lambda: operators.verify_nonsym_wilson_eigen(
                     deg["verify_nonsym_wilson_eigen"], t), True),
        _library(f"{label}/q_symmetry_check",
                 lambda: polyfam.q_symmetry_check(deg["q_symmetry_check"], p), True),
        # Negative controls: both must fail.
        _library(f"{label}/verify_bi_algebra/omega1+1",
                 lambda: operators.verify_bi_algebra(
                     p, deg["verify_bi_algebra"], constants=perturbed), False),
        _library(f"{label}/verify_nc_algebra/flip_first_sign",
                 lambda: operators.verify_nc_algebra(
                     p, deg["verify_nc_algebra"], flip_first_sign=True), False),
    ]


def exact_deep(rng):
    top = max(DEEP_DEGREES.values())
    sets = [("half", conjugate_pairing(HALF_QUAD)),
            ("random", random_parameter_values(rng, top))]
    certs = []
    for label, vals in sets:
        certs += _deep_certificates(label, parameter_set(vals), daha_set(vals))
    return certs


# ---------------------------------------------------------------------------
# exact-wide

def _cli(name, argv, expected_exit):
    """One biwkit.cli.main invocation writing its document to a file.

    The observed outcome is the exit code, and for exit code 0 also the
    document's own ``pass`` flag; the document bytes feed the pass digest.
    """
    def run(ctx):
        path = os.path.join(ctx.scratch_dir, f"cli-{os.getpid()}.json")
        code = cli.main(argv + ["--output", path])
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        ctx.digest.update(data)
        ctx.add("cli.output_bytes", len(data))
        if code == 0:
            return (code, json.loads(data)["pass"])
        return (code, None)
    return Certificate(name, run, (expected_exit, True if expected_exit == 0 else None))


def exact_wide(rng):
    certs = []
    for i, (top, degree, algebra_degree) in enumerate(WIDE_SIZES):
        vals = random_parameter_values(rng, top)
        params = "--params=" + cli_text(vals)
        daha = "--daha=" + cli_text(daha_values(vals))
        n_max = ["--n-max", str(top)]
        certs += [
            _cli(f"set{i}/poly", ["poly", params] + n_max, 0),
            _cli(f"set{i}/q-poly", ["q-poly", params] + n_max, 0),
            _cli(f"set{i}/wilson", ["wilson", params] + n_max, 0),
            _cli(f"set{i}/verify-eigen", ["verify-eigen", params] + n_max, 0),
            _cli(f"set{i}/verify-algebra",
                 ["verify-algebra", params, "--degree", str(algebra_degree)], 0),
            _cli(f"set{i}/verify-daha",
                 ["verify-daha", daha] + n_max + ["--degree", str(degree)], 0),
            _cli(f"set{i}/verify-prop1",
                 ["verify-prop1", params] + n_max + ["--degree", str(degree)], 0),
        ]
    # Negative control: a + b + c + d = -1 makes the n = 0 denominator
    # vanish, which the command line must reject with exit code 3.
    a, b, c = (_gaussian(rng) for _ in range(3))
    d = (-1 - a[0] - b[0] - c[0], -a[1] - b[1] - c[1])
    certs.append(_cli("degenerate/verify-eigen",
                      ["verify-eigen", "--params=" + cli_text([a, b, c, d])] + n_max, 3))
    return certs


# ---------------------------------------------------------------------------
# numeric

def _gram(label, quad_values):
    p = parameter_set(conjugate_pairing(quad_values))

    def run(ctx):
        report = measure.orthogonality_gram(
            GRAM_N_MAX, p, tol=GRAM_TOL, precision=GRAM_PRECISION,
            truncation=GRAM_TRUNCATION[label])
        ctx.add("measure.gram.panels", report.panels)
        ctx.add("measure.gram.truncation_L", report.truncation_L)
        return bool(report.passed)
    return Certificate(f"{label}/orthogonality_gram", run, True)


def _rep(label, quad_values, flip_alpha1):
    q = RealParameterQuad(*quad_values)
    sc = operators.structure_constants(parameter_set(conjugate_pairing(quad_values)))
    constants = dataclasses.replace(sc, alpha1=-sc.alpha1) if flip_alpha1 else None

    def run(ctx):
        rep = reptheory.build_rep(REP_SIZE, q, REP_PRECISION)
        return bool(reptheory.verify_rep_relations(rep, constants=constants).passed)
    suffix = "/flipped_alpha1" if flip_alpha1 else ""
    return Certificate(f"{label}/verify_rep_relations{suffix}", run, not flip_alpha1)


def _positivity(label, quad_values, n_max=POSITIVITY_N):
    q = RealParameterQuad(*quad_values)

    def run(ctx):
        report = reptheory.positivity_scan(q, n_max)
        scanned = report.first_nonpositive if report.first_nonpositive else report.n_max
        ctx.add("reptheory.u_scanned", scanned)
        return bool(report.passed)
    return Certificate(f"{label}/positivity_scan", run, True)


def numeric(rng):
    certs = [
        _gram("half", HALF_QUAD),
        _gram("narrow", NARROW_QUAD),
        _rep("half", HALF_QUAD, False),
        _rep("half", HALF_QUAD, True),
        _positivity("half", HALF_QUAD),
        _positivity("narrow", NARROW_QUAD),
    ]
    # Seeded positive quads: positivity holds for every one of them, and
    # with them most certificates are scans of spread lengths, so the
    # median certificate latency falls among many unlike samples.
    for i, n_max in enumerate(RANDOM_POSITIVITY_N):
        quad = tuple(Fraction(rng.randint(1, 9), rng.randint(2, 7)) for _ in range(4))
        certs.append(_positivity(f"quad{i}", quad, n_max))
    return certs


def numeric_probes():
    """Per-layer probes: one weight evaluation and one log-gamma call.

    ``weight_W`` is given an ``mpf`` argument: at this commit it raises
    ``TypeError`` on a ``Fraction`` z.
    """
    from mpmath import mpc, mpf
    p = parameter_set(conjugate_pairing(HALF_QUAD))
    z = mpf(7) / 10
    w = mpc(mpf(7) / 4, mpf(3) / 5)
    return {
        "measure.weight_W.p50_ms": lambda: measure.weight_W(z, p, GRAM_PRECISION),
        "measure.log_gamma.p50_ms": lambda: measure.log_gamma(w, GRAM_PRECISION),
    }


def build(workload, seed, pass_index=0):
    """The certificate list of one pass.

    Each pass of a run draws fresh random inputs from (seed, pass index),
    so a run averages over many inputs and its figures depend little on
    the seed; the same seed and pass index always give the same inputs.
    """
    builders = {"exact-deep": exact_deep, "exact-wide": exact_wide, "numeric": numeric}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    return builders[workload](random.Random(f"{workload}/{seed}/{pass_index}"))
