"""Tests for the three polynomial families and the parameter maps."""

import random
from fractions import Fraction

import pytest

from biwkit.cli import random_parameter_set
from biwkit.errors import DegenerateParameters
from biwkit.exact import ComplexRational, Polynomial
from biwkit.polyfam import (
    DAHAParameterSet,
    ModifiedClosedForm,
    ParameterSet,
    RealParameterQuad,
    bi_coefficients,
    bi_eigenvalue,
    bi_polynomials,
    nonsym_wilson_family,
    param_map_bi_to_daha,
    param_map_daha_to_bi,
    q_modified_coefficients,
    q_polynomials,
    q_symmetry_check,
    structure_constants,
    wilson_eigenvalue,
)

ZERO_PARAMS = ParameterSet(0, 0, 0, 0)
HALF_QUAD = RealParameterQuad(
    Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
)


class TestRecurrence:
    def test_coefficients_at_zero(self):
        # Hand-computed from the parity-branch formulas at a=b=c=d=0.
        data = bi_coefficients(2, ZERO_PARAMS)
        assert data.A[0] == ComplexRational(1)
        assert data.C[0] == ComplexRational(0)
        assert data.A[1] == ComplexRational(2)
        assert data.C[1] == ComplexRational(-1)
        assert data.u_mod[0] == ComplexRational(0)
        assert data.u_mod[1] == ComplexRational(1)

    def test_first_polynomials_at_zero(self):
        polys = bi_polynomials(2, ZERO_PARAMS)
        x = Polynomial.x()
        assert polys[0] == Polynomial.one()
        assert polys[1] == x
        assert polys[2] == x * x + 1

    def test_monic(self):
        rng = random.Random(7)
        p = random_parameter_set(rng, 12)
        for n, poly in enumerate(bi_polynomials(12, p)):
            assert poly.degree == n
            assert poly.leading_coefficient == ComplexRational(1)

    def test_degenerate_raises_with_index(self):
        # a+b+c+d+2 = 0 makes the first denominator vanish at n=0.
        with pytest.raises(DegenerateParameters) as exc:
            bi_coefficients(2, ParameterSet(0, 0, -2, 0))
        assert exc.value.n == 0

    @pytest.mark.parametrize("seed", [None] + list(range(40)))
    def test_diagonal_from_the_structure_constants(self, seed):
        # {X3, X1} = X2 + omega2 on the eigenvectors of L fixes the diagonal.
        p = ZERO_PARAMS if seed is None else random_parameter_set(random.Random(seed), 30)
        sc = structure_constants(p)
        data = bi_coefficients(30, p)
        for n in range(31):
            lam = bi_eigenvalue(n, p)
            assert data.b_coeff[n] * (4 * lam * lam - 1) == 2 * sc.omega3 * lam + sc.omega2, n

    def test_eigenvalue_alternation(self):
        assert bi_eigenvalue(0, ZERO_PARAMS) == ComplexRational(Fraction(3, 2))
        assert bi_eigenvalue(1, ZERO_PARAMS) == ComplexRational(Fraction(-5, 2))
        assert bi_eigenvalue(2, ZERO_PARAMS) == ComplexRational(Fraction(7, 2))


class TestModifiedFamily:
    def test_q_is_real_under_conjugate_pairing(self):
        p = ParameterSet.from_quad(HALF_QUAD)
        for poly in q_polynomials(10, p):
            assert poly.has_real_coefficients()

    def test_q_from_bi_substitution(self):
        # Q_n(x) = (-i)^n B_n(ix), checked independently of q_polynomials.
        p = ParameterSet.from_quad(HALF_QUAD)
        i = ComplexRational(0, 1)
        bis = bi_polynomials(6, p)
        qs = q_polynomials(6, p)
        for n in range(7):
            assert qs[n] == ((-i) ** n) * bis[n].affine_substitute(i, 0)

    def test_closed_forms_match_recurrence_route(self):
        data = q_modified_coefficients(40, HALF_QUAD)
        closed = ModifiedClosedForm(HALF_QUAD)
        for n in range(41):
            c_n, u_n = closed.at(n, n % 2)
            assert data.c_mod[n] == c_n, n
            assert n == 0 or data.u_mod[n] == u_n, n
        assert data.c_mod[0] == ComplexRational(1)
        assert data.u_mod[1] == ComplexRational(4)

    def test_symmetries_half_quad(self):
        report = q_symmetry_check(8, ParameterSet.from_quad(HALF_QUAD))
        assert report.passed


class TestParameterMaps:
    def test_roundtrip_bi_daha_bi(self):
        rng = random.Random(11)
        for _ in range(5):
            p = random_parameter_set(rng, 0)
            assert param_map_daha_to_bi(param_map_bi_to_daha(p)) == p

    def test_roundtrip_daha_bi_daha(self):
        t = DAHAParameterSet(
            ComplexRational(Fraction(1, 3)),
            ComplexRational(Fraction(-2, 5), 1),
            ComplexRational(2),
            ComplexRational(0, Fraction(1, 2)),
        )
        assert param_map_bi_to_daha(param_map_daha_to_bi(t)) == t

    def test_zero_set_image(self):
        t = param_map_bi_to_daha(ZERO_PARAMS)
        quarter = ComplexRational(Fraction(1, 4))
        assert t.t0 == quarter and t.t1 == quarter
        assert t.u0 == ComplexRational(0) and t.u1 == ComplexRational(0)


class TestWilson:
    def test_monic_in_z(self):
        t = param_map_bi_to_daha(ZERO_PARAMS)
        for n, poly in enumerate(nonsym_wilson_family(8, t)):
            assert poly.degree == n
            assert poly.leading_coefficient == ComplexRational(1)

    def test_eigenvalue_pattern(self):
        t = param_map_bi_to_daha(ZERO_PARAMS)  # t0 = t1 = 1/4
        half = ComplexRational(Fraction(1, 2))
        assert wilson_eigenvalue(0, t) == half
        assert wilson_eigenvalue(1, t) == -(half + 1)
        assert wilson_eigenvalue(2, t) == half + 1
        assert wilson_eigenvalue(3, t) == -(half + 2)

    def test_coincides_with_bi_under_affine_map(self):
        rng = random.Random(3)
        p = random_parameter_set(rng, 8)
        t = param_map_bi_to_daha(p)
        bis = bi_polynomials(8, p)
        minus_two = ComplexRational(-2)
        for n, w in enumerate(nonsym_wilson_family(8, t)):
            lhs = (minus_two ** n) * w.affine_substitute(Fraction(-1, 2), Fraction(1, 4))
            assert lhs == bis[n]
