"""Tests for the difference-reflection operators and algebra checks."""

import random
from fractions import Fraction

import pytest

from biwkit.cli import random_parameter_set
from biwkit.errors import InvalidParameters, OperatorNotPolynomialPreserving
from biwkit.exact import I, ComplexRational, Polynomial
from biwkit.operators import (
    CasimirReport,
    DividedDifference,
    StructureConstants,
    Substitution,
    _check_annihilates,
    _check_eigen_pairs,
    bi_realization,
    build_daha_generators,
    build_L,
    build_M,
    casimir_scalar,
    iso_forward,
    iso_inverse,
    reflection,
    structure_constants,
    verify_bi_algebra,
    verify_casimir,
    verify_daha_relations,
    verify_eigen_bi,
    verify_eigen_q,
    verify_nc_algebra,
    verify_nonsym_wilson_eigen,
    verify_prop1_coefficients,
    verify_prop1_operator_transform,
)
from biwkit.polyfam import (
    DAHAParameterSet,
    ParameterSet,
    RealParameterQuad,
    param_map_bi_to_daha,
)

ZERO_PARAMS = ParameterSet(0, 0, 0, 0)
HALF_QUAD_PARAMS = ParameterSet.from_quad(
    RealParameterQuad(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
)


class TestOperatorBasics:
    def test_reflection(self):
        x = Polynomial.x()
        assert reflection().apply(x * x + x) == x * x - x

    def test_divided_difference_block(self):
        # (x+1)/(2x+1) * (T+R - 1): T+R maps x to -x-1, so (T+R - 1) x =
        # -2x - 1, the quotient by (2x+1) is exact and the block maps x to
        # -(x+1).
        op = DividedDifference(Polynomial([1, 1]), Polynomial([1, 2]), Substitution(-1, -1))
        assert op.apply(Polynomial.x()) == Polynomial([-1, -1])

    def test_non_preserving_raises(self):
        # (f(x+1) - f(x))/x: the shift has no fixed point, x does not divide.
        op = DividedDifference(Polynomial.one(), Polynomial([0, 1]), Substitution(1, 1))
        with pytest.raises(OperatorNotPolynomialPreserving):
            op.apply(Polynomial.x())

    def test_L_on_x_at_zero_params(self):
        # Hand computation: L x = -5/2 x at a=b=c=d=0.
        L = build_L(ZERO_PARAMS)
        assert L.apply(Polynomial.x()) == Polynomial([0, Fraction(-5, 2)])


def _gaussian_rational(rng):
    return ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 5)))


# The defining formulas, evaluated pointwise at x with f called directly.
def _L_formula(f, x, p):
    return ((x + 2 * p.c + 1) * (x + 2 * p.d + 1) / (2 * x + 1) * (f(-x - 1) - f(x))
            - (x - 2 * p.a - 1) * (x - 2 * p.b - 1) / (2 * x - 1) * (f(-x + 1) - f(x))
            + (p.total + Fraction(3, 2)) * f(x))


def _M_formula(f, x, p):
    ix = I * x
    return ((2 * p.a + 1 - ix) * (2 * p.b + 1 - ix) / (1 - 2 * ix) * (f(-x - I) - f(x))
            + (2 * p.c + 1 + ix) * (2 * p.d + 1 + ix) / (1 + 2 * ix) * (f(-x + I) - f(x))
            + (p.total + Fraction(3, 2)) * f(x))


def _T0_formula(f, z, t):
    half = Fraction(1, 2)
    return ((t.t0 + t.u0 - z + half) * (t.t0 - t.u0 - z + half) / (1 - 2 * z)
            * (f(1 - z) - f(z)) + t.t0 * f(z))


def _T1_formula(f, z, t):
    return (t.t1 + t.u1 + z) * (t.t1 - t.u1 + z) / (2 * z) * (f(-z) - f(z)) + t.t1 * f(z)


class TestOracle:
    """The operator engine against the defining formulas at random points."""

    def test_generators_match_defining_formulas(self):
        rng = random.Random(2015)
        # Every block denominator: 2x+-1, 1-+2ix, 1-2z, 2z.
        poles = {ComplexRational(0), ComplexRational(Fraction(1, 2)),
                 ComplexRational(Fraction(-1, 2)), ComplexRational(0, Fraction(1, 2)),
                 ComplexRational(0, Fraction(-1, 2))}
        for _ in range(4):
            p = ParameterSet(*(_gaussian_rational(rng) for _ in range(4)))
            t = DAHAParameterSet(*(_gaussian_rational(rng) for _ in range(4)))
            T0, T1, _, _ = build_daha_generators(t)
            cases = [(build_L(p), lambda f, x: _L_formula(f, x, p)),
                     (build_M(p), lambda f, x: _M_formula(f, x, p)),
                     (T0, lambda f, z: _T0_formula(f, z, t)),
                     (T1, lambda f, z: _T1_formula(f, z, t))]
            for _ in range(3):
                f = Polynomial([_gaussian_rational(rng) for _ in range(rng.randint(1, 8))])
                x0 = _gaussian_rational(rng)
                if x0 in poles:
                    continue
                for op, formula in cases:
                    assert op.apply(f)(x0) == formula(f, x0)

    def test_corrupted_block_is_named(self):
        x = Polynomial.x()
        bad = DividedDifference((x + 1) * (x + 1), 2 * x + 3, Substitution(-1, -1))
        op = bad - build_L(ZERO_PARAMS)
        with pytest.raises(OperatorNotPolynomialPreserving) as info:
            (op * op).apply(Polynomial.monomial(2))
        assert info.value.operator is bad
        assert repr(bad) in str(info.value)
        assert not info.value.remainder.is_zero()

    def test_labels_are_built_only_when_read(self, monkeypatch):
        printed = []
        monkeypatch.setattr(Polynomial, "__repr__", lambda p: printed.append(p) or "p")
        L = build_L(HALF_QUAD_PARAMS)
        L.apply(Polynomial.monomial(3))
        assert printed == []
        x = Polynomial.x()
        block = DividedDifference(x + 1, 2 * x + 1, Substitution(-1, -1))
        assert repr(block) == "DivDiff(p / p * (Subst(x -> -1*x + -1) - 1))"
        assert printed == [x + 1, 2 * x + 1]

    def test_images_are_memoized_per_object(self):
        L = build_L(HALF_QUAD_PARAMS)
        image = L.image(4)
        assert L.image(4) is image
        assert build_L(HALF_QUAD_PARAMS).image(4) == image


class TestNoVacuousPass:
    def test_negative_degree_rejected(self):
        L = build_L(ZERO_PARAMS)
        with pytest.raises(InvalidParameters):
            _check_annihilates(L, -1, "vacuous")
        with pytest.raises(InvalidParameters):
            _check_eigen_pairs(L, [], [], "vacuous", -1)
        with pytest.raises(InvalidParameters):
            verify_daha_relations(param_map_bi_to_daha(ZERO_PARAMS), -1)


class TestEigen:
    def test_bi_eigen_zero_params(self):
        assert verify_eigen_bi(12, ZERO_PARAMS).passed

    def test_q_eigen_half_quad(self):
        assert verify_eigen_q(10, HALF_QUAD_PARAMS).passed

    def test_bi_eigen_random(self):
        rng = random.Random(99)
        p = random_parameter_set(rng, 10)
        assert verify_eigen_bi(10, p).passed

    def test_failure_is_reported_with_witness(self):
        # A wrong eigenvalue must produce a first_failure witness.
        from biwkit.polyfam import bi_polynomials

        L = build_L(ZERO_PARAMS)
        polys = bi_polynomials(2, ZERO_PARAMS)
        wrong = [ComplexRational(17)] * 3
        check = _check_eigen_pairs(L, polys, wrong, "wrong", 2)
        assert not check.passed
        assert check.first_failure is not None


class TestAlgebras:
    def test_compact_and_noncompact(self):
        for p in (ZERO_PARAMS, HALF_QUAD_PARAMS):
            assert verify_bi_algebra(p, 10).passed
            assert verify_nc_algebra(p, 10).passed

    def test_structure_constants_at_zero(self):
        sc = structure_constants(ZERO_PARAMS)
        assert sc.omega1 == ComplexRational(Fraction(1, 2))
        assert sc.omega2 == ComplexRational(0)
        assert sc.omega3 == ComplexRational(0)
        assert sc.alpha1 == ComplexRational(Fraction(-1, 2))

    def test_negative_control_perturbed_omega1(self):
        sc = structure_constants(ZERO_PARAMS)
        bad = StructureConstants(
            sc.omega1 + 1, sc.omega2, sc.omega3, sc.alpha1, sc.alpha2, sc.alpha3
        )
        assert not verify_bi_algebra(ZERO_PARAMS, 6, constants=bad).passed

    def test_negative_control_flipped_sign(self):
        assert not verify_nc_algebra(ZERO_PARAMS, 6, flip_first_sign=True).passed

    def test_casimir_both_forms(self):
        for p in (ZERO_PARAMS, HALF_QUAD_PARAMS):
            expected = casimir_scalar(p)
            compact = verify_casimir(p, 8, "compact")
            noncompact = verify_casimir(p, 8, "noncompact")
            assert compact.realized_ok and noncompact.realized_ok
            assert compact.expected == expected == noncompact.expected

    def test_casimir_passed_is_realized_ok(self):
        report = verify_casimir(ZERO_PARAMS, 4, "noncompact")
        failed = CasimirReport(expected=report.expected, realized_ok=False,
                               max_degree_checked=4)
        for r in (report, failed):
            assert r.passed is r.realized_ok
            assert r.to_json()["realized_ok"] is r.realized_ok
            assert "pass" not in r.to_json()
        assert report.passed and not failed.passed

    def test_casimir_value_at_zero(self):
        assert casimir_scalar(ZERO_PARAMS) == ComplexRational(Fraction(1, 4))


class TestDAHA:
    def test_relations(self):
        t = param_map_bi_to_daha(HALF_QUAD_PARAMS)
        assert verify_daha_relations(t, 10).passed

    def test_generators_sum(self):
        t = param_map_bi_to_daha(ZERO_PARAMS)
        T0, T1, U0, U1 = build_daha_generators(t)
        s = T0 + T1 + U0 + U1
        out = s.apply(Polynomial.monomial(3))
        assert out == Polynomial([Fraction(-1, 2)]) * Polynomial.monomial(3)

    def test_wilson_eigen(self):
        t = param_map_bi_to_daha(ZERO_PARAMS)
        assert verify_nonsym_wilson_eigen(10, t).passed


class TestIsomorphism:
    def test_forward_and_inverse(self):
        for p in (ZERO_PARAMS, HALF_QUAD_PARAMS):
            k1, k2, k3, sc = bi_realization(p)
            fwd = iso_forward(k1, k2, k3, sc, 8)
            assert fwd.passed
            t = param_map_bi_to_daha(p)
            assert iso_inverse(t, 8).passed

    def test_central_value_cross_check_at_zero(self):
        k1, k2, k3, sc = bi_realization(ZERO_PARAMS)
        fwd = iso_forward(k1, k2, k3, sc, 4)
        t = param_map_bi_to_daha(ZERO_PARAMS)
        sixteenth = ComplexRational(Fraction(1, 16))
        assert fwd.t0_sq == t.t0 * t.t0 == sixteenth
        assert fwd.t1_sq == t.t1 * t.t1 == sixteenth


class TestProp1:
    def test_coefficient_identity(self):
        rng = random.Random(42)
        for p in (ZERO_PARAMS, random_parameter_set(rng, 10)):
            assert verify_prop1_coefficients(10, p).passed

    def test_operator_transform(self):
        for p in (ZERO_PARAMS, HALF_QUAD_PARAMS):
            assert verify_prop1_operator_transform(p, 6).passed

    def test_M_differs_from_L(self):
        # The two operators are genuinely different realizations.
        L, M = build_L(ZERO_PARAMS), build_M(ZERO_PARAMS)
        x2 = Polynomial.monomial(2)
        assert L.apply(x2) != M.apply(x2)
