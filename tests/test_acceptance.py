"""Acceptance suite: eleven criteria, one pass/fail line each.

Each criterion pins its own tolerance and runtime budget.  Verdicts are
recorded in conftest and printed in the terminal summary after the run,
outside pytest's capture, so they always appear in the log.
"""

import random
import time
from fractions import Fraction

from mpmath import mpf

import conftest

from biwkit.cli import random_parameter_set
from biwkit.exact import ComplexRational, Polynomial
from biwkit.measure import orthogonality_gram
from biwkit.operators import (
    StructureConstants,
    bi_realization,
    casimir_scalar,
    iso_forward,
    iso_inverse,
    structure_constants,
    verify_bi_algebra,
    verify_casimir,
    verify_daha_relations,
    verify_eigen_bi,
    verify_nc_algebra,
    verify_nonsym_wilson_eigen,
    verify_prop1_coefficients,
)
from biwkit.polyfam import (
    ParameterSet,
    RealParameterQuad,
    bi_polynomials,
    param_map_bi_to_daha,
    q_symmetry_check,
)
from biwkit.reptheory import build_rep, positivity_scan, verify_rep_relations

ZERO_PARAMS = ParameterSet(0, 0, 0, 0)
HALF_QUAD = RealParameterQuad(
    Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
)


def _report(number: int, passed: bool, description: str) -> None:
    conftest.acceptance_verdicts[number] = (passed, description)
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance {number:02d}] {verdict}: {description}", flush=True)
    assert passed, f"acceptance criterion {number} failed: {description}"


def test_criterion_01_exact_recurrence():
    start = time.perf_counter()
    polys = bi_polynomials(2, ZERO_PARAMS)
    x = Polynomial.x()
    ok = polys[1] == x and polys[2] == x * x + 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"B_1 = x and B_2 = x^2+1 exactly at zero parameters ({elapsed:.3f}s < 1s)")


def test_criterion_02_eigenvalue_equation():
    start = time.perf_counter()
    rng = random.Random(20260823)
    sets = [ZERO_PARAMS] + [random_parameter_set(rng, 30) for _ in range(5)]
    ok = all(verify_eigen_bi(30, p).passed for p in sets)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(2, ok, f"L B_n = lambda_n B_n exact, n <= 30, 6 parameter sets ({elapsed:.1f}s < 30s)")


def test_criterion_03_wilson_eigen_and_coincidence():
    rng = random.Random(3)
    p = random_parameter_set(rng, 20)
    t = param_map_bi_to_daha(p)
    ok = verify_nonsym_wilson_eigen(20, t).passed
    ok = ok and verify_prop1_coefficients(20, p).passed
    ok = ok and verify_prop1_coefficients(20, ZERO_PARAMS).passed
    _report(3, ok, "(T0+T1) p_n = gamma_n p_n and (-2)^n p_n(-x/2+1/4) = B_n exact, n <= 20")


def test_criterion_04_algebras_with_negative_controls():
    rng = random.Random(4)
    p = random_parameter_set(rng, 0)
    ok = verify_bi_algebra(p, 20).passed and verify_nc_algebra(p, 20).passed
    ok = ok and verify_bi_algebra(ZERO_PARAMS, 20).passed
    ok = ok and verify_nc_algebra(ZERO_PARAMS, 20).passed
    # Negative controls must fail.
    sc = structure_constants(p)
    bad = StructureConstants(sc.omega1 + 1, sc.omega2, sc.omega3,
                             sc.alpha1, sc.alpha2, sc.alpha3)
    ok = ok and not verify_bi_algebra(p, 8, constants=bad).passed
    ok = ok and not verify_nc_algebra(p, 8, flip_first_sign=True).passed
    _report(4, ok, "both algebras exact on x^k, k <= 20; perturbed/flipped controls fail")


def test_criterion_05_casimir():
    rng = random.Random(5)
    p = random_parameter_set(rng, 0)
    ok = True
    for params in (ZERO_PARAMS, p):
        compact = verify_casimir(params, 12, "compact")
        noncompact = verify_casimir(params, 12, "noncompact")
        ok = ok and compact.realized_ok and noncompact.realized_ok
        ok = ok and compact.expected == casimir_scalar(params) == noncompact.expected
    _report(5, ok, "compact and non-compact Casimirs act as the predicted scalar, k <= 12")


def test_criterion_06_daha_relations():
    rng = random.Random(6)
    t = param_map_bi_to_daha(random_parameter_set(rng, 0))
    ok = verify_daha_relations(t, 20).passed
    ok = ok and verify_daha_relations(param_map_bi_to_daha(ZERO_PARAMS), 20).passed
    _report(6, ok, "T_i^2 = t_i^2, U_i^2 = u_i^2, sum = -1/2 exact on x^k, k <= 20")


def test_criterion_07_isomorphism_both_directions():
    rng = random.Random(7)
    ok = True
    for p in (ZERO_PARAMS, random_parameter_set(rng, 0)):
        k1, k2, k3, sc = bi_realization(p)
        fwd = iso_forward(k1, k2, k3, sc, 12)
        ok = ok and fwd.passed
        # Central values must equal the closed formulas built from the
        # independently computed Casimir scalar.
        q = casimir_scalar(p)
        sixteenth = ComplexRational(Fraction(1, 16))
        quarter = ComplexRational(Fraction(1, 4))
        ok = ok and fwd.central_values["t0_sq"] == sixteenth * (q + sc.omega1 - sc.omega2 - sc.omega3 + quarter)
        ok = ok and fwd.central_values["t1_sq"] == sixteenth * (q + sc.omega1 + sc.omega2 + sc.omega3 + quarter)
        ok = ok and fwd.central_values["u0_sq"] == sixteenth * (q - sc.omega1 - sc.omega2 + sc.omega3 + quarter)
        ok = ok and fwd.central_values["u1_sq"] == sixteenth * (q - sc.omega1 + sc.omega2 - sc.omega3 + quarter)
        ok = ok and iso_inverse(param_map_bi_to_daha(p), 12).passed
    # Cross-check at the zero set: ttilde_0 = t0^2 = 1/16.
    k1, k2, k3, sc = bi_realization(ZERO_PARAMS)
    fwd = iso_forward(k1, k2, k3, sc, 4)
    t = param_map_bi_to_daha(ZERO_PARAMS)
    ok = ok and fwd.central_values["t0_sq"] == t.t0 * t.t0 == ComplexRational(Fraction(1, 16))
    _report(7, ok, "isomorphism exact both directions, k <= 12; ttilde_0 = t0^2 = 1/16 at zero")


def test_criterion_08_positivity():
    start = time.perf_counter()
    quads = [
        HALF_QUAD,
        RealParameterQuad(Fraction(1, 3), Fraction(2, 5), Fraction(3, 4), Fraction(1, 7)),
        RealParameterQuad(Fraction(2), Fraction(1, 9), Fraction(5, 2), Fraction(3)),
    ]
    ok = all(positivity_scan(q, 500).passed for q in quads)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(8, ok, f"u_n > 0 and c_n real for 1 <= n <= 500 at 3 positive quads ({elapsed:.2f}s < 10s)")


def test_criterion_09_representation_residuals():
    start = time.perf_counter()
    rep = build_rep(50, HALF_QUAD, 30)
    report = verify_rep_relations(rep)
    elapsed = time.perf_counter() - start
    tol = mpf(10) ** -25
    ok = (report.passed
          and max(report.residuals["rel2"].value, report.residuals["rel3"].value,
                  report.residuals["casimir"].value) <= tol
          and elapsed < 10.0)
    _report(9, ok, f"N=50, 30 digits: interior residuals <= 1e-25 ({elapsed:.2f}s < 10s)")


def test_criterion_10_orthogonality():
    start = time.perf_counter()
    p = ParameterSet.from_quad(HALF_QUAD)
    report = orthogonality_gram(6, p, tol=Fraction(1, 10 ** 8), precision=50)
    elapsed = time.perf_counter() - start
    ok = (report.max_offdiag_rel.value <= mpf(10) ** -20
          and report.max_diag_rel_err.value <= mpf(10) ** -8
          and report.max_ratio_err.value <= mpf(10) ** -8
          and report.l_stability.value < mpf(10) ** -9
          and elapsed < 120.0)
    _report(10, ok, f"Gram: offdiag <= 1e-20, diag and ratio to 1e-8, L-stability < 1e-9 ({elapsed:.1f}s < 120s)")


def test_criterion_11_q_symmetries():
    rng = random.Random(11)
    ok = all(
        q_symmetry_check(10, random_parameter_set(rng, 10)).passed for _ in range(3)
    )
    _report(11, ok, "all three modified-family symmetries coefficient-exact, n <= 10")
