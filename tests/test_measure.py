"""Tests for the weight function, normalization, and Gram matrix.

The in-house log-gamma, which feeds h0 only, is checked against
mpmath.loggamma; the weight, which uses mpmath.loggamma, is checked
against Gamma products built from mpmath.gamma, an oracle independent of
both log-gamma paths.
"""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpc, mpf

from biwkit.errors import InvalidParameters, PoleError, QuadratureNotConverged
from biwkit.measure import (
    DEFAULT_PRECISION,
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


def _mp(q):
    """A decimal string or Fraction as an mpf at the working precision."""
    q = Fraction(q)
    return mpf(q.numerator) / q.denominator


class TestLogGamma:
    @pytest.mark.parametrize("z", [
        "3.5", "0.25", "12.0", "-2.5", "-0.75",
        mpc("2", "3"), mpc("0.5", "0.5"), mpc("1", "-4"), mpc("-1.5", "2"),
        mpc("0.01", "30"),
    ])
    def test_against_mpmath_oracle(self, z):
        ours = log_gamma(mpc(z), precision=50)
        with mp.workdps(65):
            ref = mpmath.loggamma(mpc(z))
            # The two implementations may pick different branches of the
            # imaginary part (differing by a multiple of 2*pi); both are
            # logarithms of Gamma(z).
            diff = ours - ref
            turns = mp.im(diff) / (2 * mp.pi)
            assert abs(mp.re(diff)) < mpf(10) ** -45, (z, ours, ref)
            assert abs(turns - mp.nint(turns)) < mpf(10) ** -45, (z, ours, ref)

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


@pytest.fixture(scope="module")
def small_report():
    return orthogonality_gram(
        1, HALF_PARAMS, tol=Fraction(1, 10 ** 6), precision=30, truncation=15
    )


class TestGram:

    def test_quantitative_fields(self, small_report):
        # Reduced settings (precision 30, L = 15); the full-scale
        # thresholds are exercised by the acceptance suite.
        assert small_report.max_offdiag_rel <= mpf(10) ** -18
        assert small_report.max_diag_rel_err <= mpf(10) ** -8
        assert small_report.max_ratio_err <= mpf(10) ** -8
        assert small_report.l_stability <= mpf(10) ** -7

    def test_diag_matches_h0(self, small_report):
        with mp.workdps(40):
            ref = h0(HALF_PARAMS, 40)
            assert abs(small_report.gram[0][0] - ref) / ref < mpf(10) ** -8

    def test_ratio_is_u1(self, small_report):
        # u_1 = 4 at the half quad.
        with mp.workdps(40):
            ratio = small_report.gram[1][1] / small_report.gram[0][0]
            assert abs(ratio - 4) < mpf(10) ** -6

    def test_json_shape(self, small_report):
        doc = small_report.to_json()
        assert isinstance(doc["pass"], bool)
        assert len(doc["gram"]) == 2
        assert doc["precision_digits"] == 30

    def test_narrow_strip_passes(self):
        # The poles of W sit at |Im z| = 1.2 here, the trapezoid rule's
        # slowest case among the tested parameters.
        report = orthogonality_gram(1, NARROW_PARAMS, precision=30, truncation=20)
        assert report.passed

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
    ])
    def test_rejects_invalid_input(self, kwargs):
        args = {"n_max": 1, "p": HALF_PARAMS, "precision": 30, **kwargs}
        with pytest.raises(InvalidParameters):
            orthogonality_gram(**args)

    def test_default_precision_constant(self):
        assert DEFAULT_PRECISION == 50
