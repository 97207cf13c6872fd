"""Tests for the three polynomial families and the parameter maps."""

import random
from fractions import Fraction

import pytest
from conftest import mutate_polyfam

from biwkit import polyfam
from biwkit.cli import document_text, random_parameter_set
from biwkit.errors import DegenerateParameters
from biwkit.exact import I, ComplexRational, Polynomial
from biwkit.polyfam import (
    DAHAParameterSet,
    ModifiedClosedForm,
    ParameterSet,
    RealParameterQuad,
    SymmetryCheck,
    SymmetryReport,
    affine_family,
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
from biwkit.reptheory import build_rep

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

    def test_kept_data_equal_the_formulas_after_shorter_and_longer_requests(self):
        rng = random.Random(3031)
        for _ in range(10):
            p = random_parameter_set(rng, 16)
            for n_max in (5, 16, 3, 16, 0):
                data = bi_coefficients(n_max, p)
                expected, _ = _coefficients_written_out(n_max, p)
                assert (data.A, data.C, data.b_coeff, data.c_mod, data.u_mod) == expected, n_max

    def test_returned_lists_are_not_the_kept_ones(self):
        p = random_parameter_set(random.Random(5), 8)
        data = bi_coefficients(8, p)
        for values in (data.A, data.C, data.b_coeff, data.c_mod, data.u_mod):
            values.append(ComplexRational(1))
            values[1] = ComplexRational(7)
        again, _ = _coefficients_written_out(8, p)
        data = bi_coefficients(8, p)
        assert (data.A, data.C, data.b_coeff, data.c_mod, data.u_mod) == again
        assert bi_polynomials(9, p)[9].degree == 9

    def test_a_longer_rep_leaves_the_first_one_alone(self):
        first = build_rep(12, HALF_QUAD)
        c, u = list(first.c), list(first.u)
        build_rep(24, HALF_QUAD)
        assert len(first.c) == len(first.u) == 12
        assert (first.c, first.u) == (c, u)

    def test_degenerate_beyond_a_kept_shorter_request_still_raises(self):
        # a+b+c+d = -7: n+a+b+c+d+2 vanishes at n = 5.
        p = ParameterSet(ComplexRational(1, 2), ComplexRational(-3, -2), -5, 0)
        assert len(bi_coefficients(3, p).A) == 4 and len(bi_polynomials(4, p)) == 5
        for build in (bi_coefficients, bi_polynomials):
            with pytest.raises(DegenerateParameters,
                               match=r"^denominator n\+a\+b\+c\+d\+2 vanishes at n=5$") as info:
                build(10, p)
            assert info.value.n == 5

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


def _symmetry_oracle(n_max, p):
    """The three symmetries checked family by family: each permuted Q_n built, mapped and
    compared with Q_n(x;a,b,c,d) at every n <= n_max."""
    base = q_polynomials(n_max, p)
    others = {
        "Q_n(x;a,b,c,d) = Q_n(x;b,a,c,d)": q_polynomials(n_max, ParameterSet(p.b, p.a, p.c, p.d)),
        "Q_n(x;a,b,c,d) = Q_n(x;a,b,d,c)": q_polynomials(n_max, ParameterSet(p.a, p.b, p.d, p.c)),
        "Q_n(x;a,b,c,d) = (-1)^n Q_n(-x;c,d,a,b)":
            affine_family(q_polynomials(n_max, ParameterSet(p.c, p.d, p.a, p.b)), -1, -1, 0),
    }
    return SymmetryReport(n_max, [SymmetryCheck(identity, [q == r for q, r in zip(base, other)])
                                  for identity, other in others.items()])


def _symmetry_outcome(check, n_max, p):
    try:
        return document_text(check(n_max, p))
    except DegenerateParameters as exc:
        return str(exc), exc.n


class TestSymmetriesOnTheData:
    def test_matches_the_family_oracle(self, monkeypatch):
        rng = random.Random(3030)
        cases = [(8, ParameterSet.from_quad(HALF_QUAD))]
        for _ in range(50):
            n_max = rng.randint(0, 14)
            cases.append((n_max, random_parameter_set(rng, n_max)))
        # The symmetries hold, so no family is built: q_polynomials is never called.
        built, family = [], polyfam.q_polynomials
        monkeypatch.setattr(polyfam, "q_polynomials", lambda n, p: built.append(p) or family(n, p))
        for n_max, p in cases:
            report = q_symmetry_check(n_max, p)
            assert report.passed and built == [], p
            assert document_text(report) == document_text(_symmetry_oracle(n_max, p)), p
            built.clear()

    @pytest.mark.parametrize("name, old, new", [
        # b for a in one factor of the even A_n: the reflection fails.
        ("_shifts", "2 * (p.a + p.c + 1)", "2 * (p.b + p.c + 1)"),
        ("_shifts", "2 * (p.a + p.d + 1)", "2 * (p.b + p.d + 1)"),
        # b for a in the diagonal 2a+1-A_n-C_n: only the c_k differ.
        ("bi_coefficients", "2 * p.a + 1", "2 * p.b + 1"),
        # u_n scaled by 1+a-b: only the u_k differ.
        ("bi_coefficients", "-(data.A[n - 1] * C)", "-(data.A[n - 1] * C * (1 + p.a - p.b))"),
    ], ids=["A-even-first", "A-even-second", "diagonal", "u"])
    def test_a_broken_symmetry_fails_as_the_oracle_does(self, monkeypatch, name, old, new):
        mutate_polyfam(monkeypatch, polyfam, name, old, new)
        rng, failed = random.Random(3032), 0
        for _ in range(4):
            p = random_parameter_set(rng, 7)
            for n_max in range(8):
                report = q_symmetry_check(n_max, p)
                failed += not report.passed
                assert document_text(report) == document_text(_symmetry_oracle(n_max, p)), p
        assert failed >= 12

    def test_degenerate_at_exactly_n_max_raises_the_same_error(self):
        # a+b+c+d = -8: n+a+b+c+d+2 vanishes at n = 6, past every k < 6 the data compare.
        p = ParameterSet(ComplexRational(1, 2), ComplexRational(-3, -2), -6, 0)
        outcome = _symmetry_outcome(q_symmetry_check, 6, p)
        assert outcome == ("denominator n+a+b+c+d+2 vanishes at n=6", 6)
        assert outcome == _symmetry_outcome(_symmetry_oracle, 6, p)
        oracle = _symmetry_outcome(_symmetry_oracle, 5, p)
        assert _symmetry_outcome(q_symmetry_check, 5, p) == oracle


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
