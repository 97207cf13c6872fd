"""Tests for the three polynomial families and the parameter maps."""

import random
from fractions import Fraction

import pytest

from biwkit.cli import random_parameter_set
from biwkit.errors import DegenerateParameters
from biwkit.exact import I, ComplexRational, Polynomial
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


def _coefficients_written_out(n_max, p):
    """(A, C, b, c, u) lists for n <= n_max, or (None, n) at the first n with a zero denominator."""
    a, b, c, d, s = p.a, p.b, p.c, p.d, p.a + p.b + p.c + p.d
    A, C = [], []
    for k in range(n_max + 1):
        n = ComplexRational(k)
        try:
            if k % 2 == 0:
                A.append((n + 2 * (a + c + 1)) * (n + 2 * (a + d + 1)) / (2 * (n + s + 2)))
                C.append(-(n * (n + 2 * (c + d) + 1)) / (2 * (n + s + 1)))
            else:
                A.append((n + 2 * (a + b + 1)) * (n + 2 * s + 3) / (2 * (n + s + 2)))
                C.append(-((n + 2 * (b + c) + 1) * (n + 2 * (b + d) + 1)) / (2 * (n + s + 1)))
        except ZeroDivisionError:
            return None, k
    diag = [2 * a + 1 - A[k] - C[k] for k in range(n_max + 1)]
    u = [ComplexRational(0)] + [-(A[k - 1] * C[k]) for k in range(1, n_max + 1)]
    return (A, C, diag, [-I * v for v in diag], u), None


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
            assert poly.coefficient(n) == ComplexRational(1)

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

    def test_coefficients_equal_the_formulas_written_out(self):
        # Each A_n, C_n by its parity's formula in full, with every parameter sum
        # rebuilt at each n; a zero denominator is where the recurrence must stop.
        rng = random.Random(2027)
        degenerate = 0
        for _ in range(200):
            a, b, c = (ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                       Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                       for _ in range(3))
            # A third of the sets put a+b+c+d at an integer in -22..1.
            d = (rng.randint(-22, 1) - a - b - c if rng.random() < 0.35
                 else ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
            p, n_max = ParameterSet(a, b, c, d), rng.randint(0, 20)
            expected, pole = _coefficients_written_out(n_max, p)
            if pole is not None:
                degenerate += 1
                with pytest.raises(DegenerateParameters) as info:
                    bi_coefficients(n_max, p)
                assert info.value.n == pole
                continue
            data = bi_coefficients(n_max, p)
            assert (data.A, data.C, data.b_coeff, data.c_mod, data.u_mod) == expected, p
        assert degenerate >= 20

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
            assert poly.coefficient(n) == ComplexRational(1)

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
