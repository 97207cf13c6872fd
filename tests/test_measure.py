"""Tests for the weight function, normalization, and Gram matrix.

log_gamma and the norm h0 go through mpmath.loggamma, and the weight W through
measure._log_abs_gamma, biwkit's real-part Stirling kernel, whose error radius is
checked against mpmath.loggamma at twice the working precision; each is checked
against Gamma values built from mpmath.gamma, which goes through neither.
"""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import fone

from biwkit import measure
from biwkit.cli import document_text
from biwkit.errors import InvalidParameters, PoleError, QuadratureNotConverged
from biwkit.measure import (
    DEFAULT_PRECISION,
    DEFAULT_TOL,
    MAX_PRECISION,
    check_gram_inputs,
    h0,
    log_gamma,
    orthogonality_gram,
    weight_W,
)
from biwkit.polyfam import ParameterSet, RealParameterQuad

HALF_QUAD = RealParameterQuad(
    Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
)
HALF_PARAMS = ParameterSet.from_quad(HALF_QUAD)
# Strip half-width d = 2*min(alpha, gamma) + 1 = 1.2, the narrowest in use.
NARROW_PARAMS = ParameterSet.from_quad(RealParameterQuad(
    Fraction(1, 10), Fraction(1, 3), Fraction(1, 8), Fraction(2, 3)
))

# a = alpha + i*beta and b = gamma + i*delta differ by 10^-80: the same mpc
# at every working precision below 80 digits.
NEAR_PARAMS = ParameterSet.from_quad(RealParameterQuad(
    Fraction(1, 2), Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10 ** 80), Fraction(1, 2)
))
PAIRED_PARAMS = ParameterSet.from_quad(RealParameterQuad(
    Fraction(1, 3), Fraction(2, 5), Fraction(1, 3), Fraction(2, 5)
))


def _mp(q):
    """A decimal string or Fraction as an mpf at the working precision."""
    q = Fraction(q)
    return mpf(q.numerator) / q.denominator


def _four_term_weight(z, p, weight=measure._weight):
    """W(z) from four _log_abs_gamma calls, one per factor a, b, c, d, none merged."""
    half = mpf(1) / 2
    kappas = tuple(mpc(_mp(v.re), _mp(v.im)) + shift
                   for v, shift in ((p.a, 1), (p.b, 1), (p.c, half), (p.d, half)))
    return weight(z, (kappas, (0, 1, 2, 3)))


class TestLogGamma:
    @pytest.mark.parametrize("z", [
        "3.5", "0.25", "12.0", "-2.5", "-0.75",
        mpc("2", "3"), mpc("0.5", "0.5"), mpc("1", "-4"), mpc("-1.5", "2"),
        mpc("0.01", "30"),
    ])
    def test_against_mpmath_oracle(self, z):
        ours = log_gamma(mpc(z), precision=50)
        with mp.workdps(65):
            # exp() forgets the branch of the imaginary part.
            ref = mpmath.gamma(mpc(z))
            assert abs(mp.exp(ours) - ref) < abs(ref) * mpf(10) ** -45, (z, ours, ref)

    def test_poles(self):
        for z in (0, -1, -3):
            with pytest.raises(PoleError):
                log_gamma(mpc(z), precision=30)

    def test_conjugate_symmetry(self):
        z = mpc("1.25", "0.75")
        a = log_gamma(z, precision=40)
        b = log_gamma(z.conjugate(), precision=40)
        with mp.workdps(45):
            assert abs(a - b.conjugate()) < mpf(10) ** -38


def _gram_argument(rng):
    """A random kappa + iz/2 of the kind W meets, with some far from the Gram's."""
    re = rng.uniform(0, 60) if rng.random() < 0.5 else 2 ** rng.uniform(-12, 14)
    im = rng.uniform(-200, 200) if rng.random() < 0.5 else 2 ** rng.uniform(-14, 14)
    return mpc(re, rng.choice((-1, 1)) * im)


# The Gram's working precisions: --precision 20, 30, 50 and 100 plus guard digits.
_GRAM_DPS = (30, 40, 60, 110)


def _outside_radius(w):
    """Whether _log_abs_gamma misses log|Gamma(w)| by more than its radius, at the working
    precision as the Gram calls it; the reference is mpmath.loggamma at twice that precision."""
    y, P, r = measure._log_abs_gamma(w._mpc_, mp.prec + 20)
    with mp.workprec(2 * (mp.prec + 20)):
        err = abs(mp.make_mpf(y) - mp.log(mp.make_mpf(P)) / 2 - mp.re(mpmath.loggamma(w)))
        return err > mp.make_mpf(r)


# (Re w, Im w) at the kernel's edges, as functions of its shift target n, and whether the
# kernel shifts w.  w is shifted right when max(int(Re w), |int(Im w)|) < n.
_DOMAIN_CASES = {
    "im 0": (lambda n: (mpf("3.5"), 0), True),
    "im 0, re past n": (lambda n: (n + mpf("0.5"), 0), False),
    "|im| = 2^-40": (lambda n: (mpf("1.5"), -mpf(2) ** -40), True),
    "re = 2^-30": (lambda n: (mpf(2) ** -30, 2), True),
    "re = 2^-200, im 0": (lambda n: (mpf(2) ** -200, 0), True),
    "|w| = 2^-100": (lambda n: (mpf(2) ** -100, mpf(2) ** -101), True),
    "re = 2^-30, im past n": (lambda n: (mpf(2) ** -30, n + 3), False),
    "re below n": (lambda n: (n - mpf("0.5"), 1), True),
    "re at n": (lambda n: (n + mpf("0.5"), 1), False),
    "im below n": (lambda n: (mpf("0.5"), -(n - mpf("0.5"))), True),
    "im at n": (lambda n: (mpf("0.5"), n + mpf("0.5")), False),
    "|im| = 2^20": (lambda n: (1, mpf(2) ** 20), False),
    "re = 2^30": (lambda n: (mpf(2) ** 30, -1), False),
}


class TestLogAbsGamma:
    """measure._log_abs_gamma within its radius of mpmath.loggamma, and its controls."""

    def test_seeded_sweep_within_radius(self):
        rng = random.Random(20261020)
        for dps in _GRAM_DPS:
            with mp.workdps(dps):
                for _ in range(2500):
                    w = _gram_argument(rng)
                    assert not _outside_radius(w), (dps, w)

    @pytest.mark.parametrize("dps", _GRAM_DPS)
    def test_domain_boundaries(self, dps):
        with mp.workdps(dps):
            n = int(0.2 * (mp.prec + 20))
            for name, (point, shifted) in _DOMAIN_CASES.items():
                w = mpc(*point(n))
                assert not _outside_radius(w), name
                assert (measure._log_abs_gamma(w._mpc_, mp.prec + 20)[1] != fone) == shifted, name

    @pytest.mark.parametrize("constant", ["log(2 pi)/2", "c_1 = 1/12"])
    def test_a_constant_off_by_2_to_the_minus_90_fails_the_sweep(self, constant, monkeypatch):
        original = measure._stirling_constants

        def perturbed(fp, wp, n):
            half_log_2pi, fixed, logs = original(fp, wp, n)
            if constant == "log(2 pi)/2":
                return half_log_2pi + (1 << (fp - 90)), fixed, logs
            return half_log_2pi, [fixed[0] + (1 << (fp - 90))] + fixed[1:], logs

        monkeypatch.setattr(measure, "_stirling_constants", perturbed)
        rng = random.Random(20261020)
        with mp.workdps(_GRAM_DPS[0]):
            assert any(_outside_radius(_gram_argument(rng)) for _ in range(200))

    def test_imports_no_private_mpmath_names(self):
        tree = ast.parse(Path(measure.__file__).read_text(encoding="utf-8"))
        imported = [(node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names]
        assert imported
        for module, name in imported:
            assert module != "mpmath.libmp.gammazeta", name
            assert name not in ("round_fast", "mpc_loggamma", "GAMMA_STIRLING_BETA",
                                "complex_stirling_series"), (module, name)


class TestWeight:
    def test_positive_and_even_structure(self):
        with mp.workdps(50):
            for z in ("0", "1.5", "-1.5", "7.25"):
                w = weight_W(mpf(z), HALF_PARAMS)
                assert w > 0

    @pytest.mark.parametrize("params", [HALF_PARAMS, NARROW_PARAMS])
    @pytest.mark.parametrize("z", ["2.3", "0", "-3.75", Fraction(7, 10), "16.5"])
    def test_against_gamma_product_oracle(self, params, z):
        precision = 55
        with mp.workdps(precision + 15):
            zz = _mp(z)
            ours = weight_W(z if isinstance(z, Fraction) else zz, params, precision=precision)
            a, b, c, d = (mpc(_mp(v.re), _mp(v.im))
                          for v in (params.a, params.b, params.c, params.d))
            izh = mpc(0, zz / 2)
            g = mpmath.gamma
            prod = (g(a + izh + 1) * g(b + izh + 1)
                    * g(c + izh + mpf("0.5")) * g(d + izh + mpf("0.5"))
                    / g(mpf("0.5") + mpc(0, zz)))
            ref = abs(prod) ** 2
            assert abs(ours - ref) / ref < mpf(10) ** -(precision - 2), (z, ours, ref)

    def test_decay(self):
        with mp.workdps(50):
            w1 = weight_W(mpf(1), HALF_PARAMS)
            w10 = weight_W(mpf(10), HALF_PARAMS)
            w20 = weight_W(mpf(20), HALF_PARAMS)
            assert w10 < w1 * mpf(10) ** -5
            assert w20 < w10 * mpf(10) ** -5

    def test_exact_argument(self):
        # A Fraction z is converted like the exact parameters are.
        assert weight_W(Fraction(3, 4), HALF_PARAMS) == weight_W(mpf("0.75"), HALF_PARAMS)
        with mp.workdps(80):
            z = mpf(7) / 10
        assert weight_W(Fraction(7, 10), HALF_PARAMS, precision=60) == weight_W(
            z, HALF_PARAMS, precision=60)

    @pytest.mark.parametrize("params, calls", [
        (HALF_PARAMS, 2), (PAIRED_PARAMS, 2), (NEAR_PARAMS, 2), (NARROW_PARAMS, 4),
    ], ids=["half", "paired", "near", "narrow"])
    def test_one_loggamma_per_distinct_factor(self, params, calls, loggamma_calls):
        weight_W(mpf("1.5"), params)
        assert len(loggamma_calls) == calls

    @pytest.mark.parametrize("params", [HALF_PARAMS, PAIRED_PARAMS, NEAR_PARAMS, NARROW_PARAMS],
                             ids=["half", "paired", "near", "narrow"])
    def test_factors_sum_as_four_calls(self, params):
        # Bit equality: merged factors change no rounding step of the sum.
        with mp.workdps(DEFAULT_PRECISION + 10):
            factors = measure._gamma_factors(params)
            # At z = -+1 the half quad's kappa + iz/2 is real: the kernel's Im w = 0 edge.
            for z in ("0", "0.3", "-1", "1", "-2.5", "17.75", "-123.0625", "4000.5"):
                z = mpf(z)
                assert measure._weight(z, factors) == _four_term_weight(z, params), z

    def test_hypotheses_enforced(self):
        # Not conjugate-paired.
        with pytest.raises(InvalidParameters):
            weight_W(mpf(1), ParameterSet(0, 0, 1, 1))
        # Paired but with nonpositive real parts.
        bad = ParameterSet.from_quad(
            RealParameterQuad(Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        )
        with pytest.raises(InvalidParameters):
            weight_W(mpf(1), bad)


class TestNormalization:
    def test_h0_positive_real(self):
        val = h0(HALF_PARAMS, 50)
        assert val > 0

    def test_h0_against_mpmath_gamma_oracle(self):
        ours = h0(HALF_PARAMS, 50)
        with mp.workdps(65):
            g = mpmath.gamma
            a = b = mpc("0.5", "0.5")
            c = d = a.conjugate()
            ref = (g(a + b + mpf(1.5)) * g(a + c + 1) * g(b + c + 1)
                   * g(a + d + 1) * g(b + d + 1) * g(c + d + mpf(1.5))
                   / g(a + b + c + d + 2))
            assert abs(ref.imag) < mpf(10) ** -55
            ref = ref.real
            assert abs(ours - ref) / ref < mpf(10) ** -45


# The _mpf_ tuples of the numeric benchmark's Grams (n_max 2, precision 20, tol 1e-8).
_H0, _H2, _H12 = ((0, 7443632425933103584252356722825, -105, 103),
                  (1, 4653434000611582655581683095941, -204, 102),
                  (0, 6395983516903020436542610415429, -206, 103))
BENCH_HALF_PIN = {
    "gram": [[(0, 3721816212966551792126178361413, -104, 102),
              (0, 2904391683306279349506328213415, -210, 102), _H2],
             [(0, 2904391683306279349506328213415, -210, 102),
              (0, 3721816212966551792126178361409, -102, 102), _H12],
             [_H2, _H12, (0, 8634613614082400157732733798467, -101, 103)]],
    "expected_diag": [_H0, (0, 7443632425933103584252356722825, -103, 103),
                      (0, 4317306807041200078866366899239, -100, 102)],
    "l_stability": (0, 3282968915586475175038569576451, -145, 102),
    "max_offdiag_rel": (0, 6339838472889942925232373195983, -202, 103),
    "panels": 275,
    "truncation_L": 19,
}
_N01, _N02, _N12 = ((1, 5466723703375129797481602952003, -208, 103),
                    (1, 9259400172613730790968680274049, -206, 103),
                    (1, 5554129858001575025162162623829, -207, 103))
BENCH_NARROW_PIN = {
    "gram": [[(0, 971937886684614890637223326993, -102, 100), _N01, _N02],
             [_N01, (0, 6263419800656178535832102234111, -104, 103), _N12],
             [_N02, _N12, (0, 2562800690830082482218772465385, -101, 102)]],
    "expected_diag": [(0, 7775503093476919125097786615939, -105, 103),
                      (0, 1565854950164044633958025558529, -102, 101),
                      (0, 5125601381660164964437544930817, -102, 103)],
    "l_stability": (0, 4196237063737361611178457954271, -147, 102),
    "max_offdiag_rel": (0, 1509572312615273608048155854581, -201, 101),
    "panels": 243,
    "truncation_L": 17,
}
# The same Grams with W's log|Gamma| taken by mpmath's complex loggamma (the pins before
# W had its own kernel): the reference of the new pins' noise digits.
_M2, _M12 = ((1, 8278249877289786213407649929999, -205, 103),
             (1, 8406609442658860007277233039683, -206, 103))
MPMATH_HALF_PIN = {
    "gram": [[_H0, (0, 7314745911010744445872563771435, -208, 103), _M2],
             [(0, 7314745911010744445872563771435, -208, 103),
              (0, 7443632425933103584252356722817, -103, 103), _M12],
             [_M2, _M12, (0, 8634613614082400157732733798467, -101, 103)]],
    "panels": 275,
    "truncation_L": 19,
}
_M01, _M02, _M12 = ((1, 7761549758769715959322301061369, -208, 103),
                    (1, 2836348841471214310047172789681, -204, 102),
                    (1, 1790881269788712336789555817057, -208, 101))
MPMATH_NARROW_PIN = {
    "gram": [[(0, 7775503093476919125097786615943, -105, 103), _M01, _M02],
             [_M01, (0, 6263419800656178535832102234111, -104, 103), _M12],
             [_M02, _M12, (0, 2562800690830082482218772465385, -101, 102)]],
    "panels": 243,
    "truncation_L": 17,
}


@pytest.fixture(scope="module")
def small_report():
    return orthogonality_gram(
        1, HALF_PARAMS, tol=Fraction(1, 10 ** 6), precision=30, truncation=15
    )


@pytest.fixture
def loggamma_calls(monkeypatch):
    """The argument of every loggamma call W makes, recorded by wrapping measure._log_abs_gamma."""
    calls = []
    loggamma = measure._log_abs_gamma

    def counted(w, wp):
        calls.append(w)
        return loggamma(w, wp)

    monkeypatch.setattr(measure, "_log_abs_gamma", counted)
    return calls


@pytest.fixture
def weight_calls(monkeypatch):
    """The z of every evaluation of W, recorded by wrapping measure._weight."""
    calls = []
    weight = measure._weight

    def counted(z, factors):
        calls.append(z)
        return weight(z, factors)

    monkeypatch.setattr(measure, "_weight", counted)
    return calls


class TestGram:

    def test_quantitative_fields(self, small_report):
        # Reduced settings (precision 30, L = 15); the full-scale
        # thresholds are exercised by the acceptance suite.
        assert small_report.max_offdiag_rel.value <= mpf(10) ** -18
        assert small_report.max_diag_rel_err.value <= mpf(10) ** -8
        assert small_report.max_ratio_err.value <= mpf(10) ** -8
        assert small_report.l_stability.value <= mpf(10) ** -7

    def test_diag_matches_h0(self, small_report):
        with mp.workdps(40):
            ref = h0(HALF_PARAMS, 40)
            assert abs(small_report.gram[0][0].value - ref) / ref < mpf(10) ** -8

    def test_ratio_is_u1(self, small_report):
        # u_1 = 4 at the half quad.
        with mp.workdps(40):
            ratio = small_report.gram[1][1].value / small_report.gram[0][0].value
            assert abs(ratio - 4) < mpf(10) ** -6

    def test_json_shape(self, small_report):
        doc = json.loads(document_text(small_report))
        assert isinstance(doc["pass"], bool)
        assert len(doc["gram"]) == 2
        assert doc["precision_digits"] == 30

    def test_narrow_strip_passes(self):
        # The poles of W sit 1.2 from the real line, on the lines Re z = -+2/3
        # and -+4/3, next to the origin where most of the mass of W lies.
        report = orthogonality_gram(1, NARROW_PARAMS, precision=30, truncation=20)
        assert report.passed

    def test_first_step_resolves_the_peaks(self):
        # W has its mass in peaks at z = -+200, 3 wide; a rule that started at
        # h = 1/2 would step over them on two levels and stop on a matrix near 0.
        p = ParameterSet.from_quad(RealParameterQuad(*map(Fraction, (1, 100, 1, 100))))
        assert orthogonality_gram(0, p, precision=20).passed

    def test_panels_count_weight_evaluations(self, weight_calls):
        report = orthogonality_gram(1, HALF_PARAMS, tol=Fraction(1, 10 ** 6), precision=30,
                                    truncation=15)
        assert report.panels == len(weight_calls)

    def test_merged_factors_leave_the_gram_unchanged(self, monkeypatch):
        # The half quad's four factors are two distinct kappa.
        kwargs = {"n_max": 1, "p": HALF_PARAMS, "precision": 30, "truncation": 20}
        ours = orthogonality_gram(**kwargs)
        monkeypatch.setattr(measure, "_weight",
                            lambda z, factors: _four_term_weight(z, HALF_PARAMS))
        ref = orthogonality_gram(**kwargs)
        assert ours == ref

    @pytest.mark.parametrize("params, truncation, pin", [
        (HALF_PARAMS, 19, BENCH_HALF_PIN), (NARROW_PARAMS, 17, BENCH_NARROW_PIN),
    ], ids=["half", "narrow"])
    def test_benchmark_grams_bit_for_bit(self, params, truncation, pin):
        # The numeric benchmark's two Grams, every rounding step pinned: the
        # narrow quad's four Gamma factors and the three-term Horner sums.
        report = orthogonality_gram(2, params, tol=Fraction(1, 10 ** 8), precision=20,
                                    truncation=truncation)
        assert [[v.value._mpf_ for v in row] for row in report.gram] == pin["gram"]
        assert [v.value._mpf_ for v in report.expected_diag] == pin["expected_diag"]
        assert report.l_stability.value._mpf_ == pin["l_stability"]
        assert report.max_offdiag_rel.value._mpf_ == pin["max_offdiag_rel"]
        assert (report.panels, report.truncation_L) == (pin["panels"], pin["truncation_L"])

    @pytest.mark.parametrize("pin, reference", [(BENCH_HALF_PIN, MPMATH_HALF_PIN),
                                                (BENCH_NARROW_PIN, MPMATH_NARROW_PIN)],
                             ids=["half", "narrow"])
    def test_benchmark_grams_move_only_in_noise_digits(self, pin, reference):
        # Each entry within 1e-28 of mpmath's log-Gamma's, relative to its row's diagonal.
        assert (pin["panels"], pin["truncation_L"]) == (reference["panels"],
                                                        reference["truncation_L"])
        with mp.workprec(400):
            for n, (row, ref) in enumerate(zip(pin["gram"], reference["gram"])):
                for v, r in zip(row, ref):
                    assert abs(mp.make_mpf(v) - mp.make_mpf(r)) <= (
                        abs(mp.make_mpf(ref[n])) * mpf(10) ** -28), n

    def test_a_kappa_moved_by_one_half_fails_the_diagonal_check(self, monkeypatch):
        gamma_factors = measure._gamma_factors

        def moved(p):
            kappas, index = gamma_factors(p)
            return (kappas[0] + mpf(1) / 2,) + kappas[1:], index

        monkeypatch.setattr(measure, "_gamma_factors", moved)
        report = orthogonality_gram(2, NARROW_PARAMS, tol=Fraction(1, 10 ** 8), precision=20,
                                    truncation=17)
        assert not report.passed
        assert report.max_diag_rel_err.value > report.tol.value

    @pytest.mark.parametrize("params, truncation, kappas", [
        (HALF_PARAMS, 19, 2), (NARROW_PARAMS, 17, 4),
    ], ids=["half", "narrow"])
    def test_one_loggamma_per_distinct_factor_per_node(self, params, truncation, kappas,
                                                       loggamma_calls):
        report = orthogonality_gram(2, params, tol=Fraction(1, 10 ** 8), precision=20,
                                    truncation=truncation)
        assert len(loggamma_calls) == report.panels * kappas

    def test_budget_checked_before_the_first_level(self, weight_calls):
        # At d = 100000 the first level needs about 460,000 nodes to pass L: the
        # Gram raises after the decay tests at -+L, before the walk-out.
        p = ParameterSet.from_quad(RealParameterQuad(
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(100000)))
        with pytest.raises(QuadratureNotConverged,
                           match=f"within {measure.MAX_EVALUATIONS} evaluations of W"):
            orthogonality_gram(0, p, precision=20)
        assert len(weight_calls) < 10

    @pytest.mark.parametrize("quad", [(10 ** 6, 1, 1, 1), (1, 1, 10 ** 6, 1)],
                             ids=["alpha", "gamma"])
    def test_budget_counts_the_second_level_before_the_first(self, quad, weight_calls):
        # At alpha = 1e6 the first level's 1 + 2k nodes (k = 28,788) fit the budget,
        # but no pass ends at the first level and the second adds 2k more: the Gram
        # raises after the two decay tests at -+L, before the walk-out.
        p = ParameterSet.from_quad(RealParameterQuad(*map(Fraction, quad)))
        with pytest.raises(QuadratureNotConverged,
                           match=f"within {measure.MAX_EVALUATIONS} evaluations of W"):
            orthogonality_gram(0, p, precision=20)
        assert len(weight_calls) == 2

    def test_budget_checked_before_each_later_level(self, small_report, weight_calls,
                                                    monkeypatch):
        # A budget one short of small_report's: its last level is not started,
        # where a count alone would stop inside it after panels - 1 evaluations.
        budget = small_report.panels - 1
        monkeypatch.setattr(measure, "MAX_EVALUATIONS", budget)
        with pytest.raises(QuadratureNotConverged, match=f"within {budget} evaluations"):
            orthogonality_gram(1, HALF_PARAMS, tol=Fraction(1, 10 ** 6), precision=30,
                               truncation=15)
        assert len(weight_calls) < budget

    def test_halving_cap_raises(self):
        # A level change of 1e-41 * h0 is below what 30 working digits
        # resolve, so the rule runs to its cap.
        with pytest.raises(QuadratureNotConverged):
            orthogonality_gram(1, HALF_PARAMS, tol=Fraction(1, 10 ** 40),
                               precision=20, truncation=10)

    def test_rejects_unpaired_parameters(self):
        with pytest.raises(InvalidParameters):
            orthogonality_gram(1, ParameterSet(0, 0, 1, 1), precision=30)

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0}, {"tol": Fraction(-1, 10)}, {"precision": 19}, {"n_max": -1},
        {"truncation": 0}, {"truncation": -100}, {"truncation": 201}, {"truncation": 10 ** 9},
        {"precision": MAX_PRECISION + 1},
    ])
    def test_rejects_invalid_input(self, kwargs):
        args = {"n_max": 1, "p": HALF_PARAMS, "precision": 30, **kwargs}
        with pytest.raises(InvalidParameters):
            orthogonality_gram(**args)

    def test_n_max_range(self):
        for n_max in (0, 25):
            check_gram_inputs(HALF_PARAMS, n_max, 20, None, DEFAULT_TOL)
        for n_max in (-1, 26):
            with pytest.raises(InvalidParameters, match=rf"^--n-max must be in 0\.\.25, got {n_max}$"):
                check_gram_inputs(HALF_PARAMS, n_max, 20, None, DEFAULT_TOL)

    @pytest.mark.parametrize("tol", [1, Fraction(3, 2), 10 ** 400], ids=["1", "3/2", "1e400"])
    def test_rejects_tolerance_of_one_or_more(self, tol):
        with pytest.raises(InvalidParameters, match="--tol"):
            orthogonality_gram(1, HALF_PARAMS, tol=tol, precision=30)

    def test_default_precision_constant(self):
        assert DEFAULT_PRECISION == 50
