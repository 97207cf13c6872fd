"""Tests for the truncated tridiagonal representation."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from conftest import mutate_polyfam
from hypothesis import example, given, strategies as st
from mpmath import mpf

from biwkit import polyfam, reptheory
from biwkit.cli import document_text
from biwkit.errors import BiwkitError, DegenerateParameters, InvalidParameters
from biwkit.exact import ComplexRational, Polynomial
from biwkit.polyfam import (
    ModifiedClosedForm,
    ParameterSet,
    RealParameterQuad,
    bi_coefficients,
    bi_eigenvalue,
    q_modified_coefficients,
)
from biwkit.operators import StructureConstants, structure_constants
from biwkit.reptheory import (
    PositivityReport,
    build_rep,
    positivity_scan,
    rep_tolerance,
    verify_rep_relations,
)

HALF_QUAD = RealParameterQuad(
    Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
)
OTHER_QUAD = RealParameterQuad(
    Fraction(1, 3), Fraction(2, 5), Fraction(3, 4), Fraction(1, 7)
)


def _to_mpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / mpf(x.denominator)


class TestBuild:
    def test_matrix_shapes(self):
        rep = build_rep(8, HALF_QUAD)
        assert len(rep.lam) == len(rep.c) == len(rep.u) == 8
        assert rep.u[0] == 0

    def test_first_entries_half_quad(self):
        rep = build_rep(6, HALF_QUAD)
        # (-1)^0 (0 + 2(alpha+gamma) + 3/2) = 7/2; c_0 = 1; u_1 = 4.
        assert rep.lam[0] == Fraction(7, 2)
        assert rep.c[0] == 1
        assert rep.u[1] == 4

    @pytest.mark.parametrize("quad", [HALF_QUAD, OTHER_QUAD])
    def test_band_matches_exact_data(self, quad):
        N = 20
        rep = build_rep(N, quad, 30)
        data = q_modified_coefficients(N, quad)
        p = ParameterSet.from_quad(quad)
        assert rep.lam == [bi_eigenvalue(n, p).re for n in range(N)]
        assert rep.c == [data.c_mod[n].re for n in range(N)]
        assert rep.u == [data.u_mod[n].re for n in range(N)]

    def test_band_is_real_complex_rational(self):
        rep = build_rep(12, OTHER_QUAD)
        for v in rep.lam + rep.c + rep.u:
            assert type(v) is ComplexRational and v.is_real()

    def test_rejects_small_and_nonpositive(self):
        for size in (3, 5):
            with pytest.raises(InvalidParameters):
                build_rep(size, HALF_QUAD)
        with pytest.raises(InvalidParameters):
            build_rep(10, RealParameterQuad(Fraction(-1), Fraction(1), Fraction(1), Fraction(1)))
        for digits in (0, 15):
            with pytest.raises(InvalidParameters):
                build_rep(10, HALF_QUAD, digits)

    def test_rejects_nonpositive_u_naming_n(self, monkeypatch):
        exact = reptheory.q_modified_coefficients

        def negated_u3(n_max, q):
            data = exact(n_max, q)
            data.u_mod[3] = -data.u_mod[3]
            return data

        monkeypatch.setattr(reptheory, "q_modified_coefficients", negated_u3)
        with pytest.raises(InvalidParameters, match="u_3"):
            build_rep(10, HALF_QUAD)


class TestRelations:
    def test_residuals_within_tolerance(self):
        for quad in (HALF_QUAD, OTHER_QUAD):
            rep = build_rep(20, quad, 30)
            report = verify_rep_relations(rep)
            assert report.passed, document_text(report)

    @pytest.mark.parametrize("quad", [HALF_QUAD, OTHER_QUAD])
    def test_residuals_exactly_zero(self, quad):
        report = verify_rep_relations(build_rep(50, quad, 30))
        assert report.passed
        assert (report.residuals["rel2"].value == report.residuals["rel3"].value
                == report.residuals["casimir"].value == 0)

    def test_double_precision_tolerance(self):
        rep = build_rep(16, HALF_QUAD, 16)
        report = verify_rep_relations(rep)
        assert report.tolerance.value == rep_tolerance(16) == mpf(10) ** -12
        assert report.passed

    def test_negative_control_flipped_alpha1(self):
        sc = structure_constants(ParameterSet.from_quad(HALF_QUAD))
        bad = StructureConstants(
            sc.omega1, sc.omega2, sc.omega3, -sc.alpha1, sc.alpha2, sc.alpha3
        )
        rep = build_rep(12, HALF_QUAD, 30)
        report = verify_rep_relations(rep, constants=bad)
        assert not report.passed
        # The similarity keeps the diagonal: the residual is |2 alpha1| = 5.
        assert report.residuals["rel2"].value == 5

    def test_negative_control_alpha1_shifted_below_print_digits(self):
        sc = structure_constants(ParameterSet.from_quad(HALF_QUAD))
        shift = Fraction(1, 10 ** 30)
        bad = dataclasses.replace(sc, alpha1=sc.alpha1 + ComplexRational(shift))
        report = verify_rep_relations(build_rep(50, HALF_QUAD, 30), constants=bad)
        assert not report.passed
        assert report.residuals["rel2"].value == _to_mpf(shift)
        assert report.residuals["rel3"].value == report.residuals["casimir"].value == 0

    @pytest.mark.parametrize("quad", [HALF_QUAD, OTHER_QUAD])
    def test_negative_control_alpha2_shifted(self, quad):
        sc = structure_constants(ParameterSet.from_quad(quad))
        bad = dataclasses.replace(sc, alpha2=sc.alpha2 + 1)
        report = verify_rep_relations(build_rep(12, quad, 30), constants=bad)
        assert not report.passed
        # alpha2 enters only {A3,A1} - A2 - alpha2, on the diagonal.
        assert (report.residuals["rel2"].value, report.residuals["rel3"].value,
                report.residuals["casimir"].value) == (0, 1, 0)

    @pytest.mark.parametrize("quad, rel2_casimir, rel3", [
        (HALF_QUAD, Fraction(7000, 121), Fraction(23)),
        (OTHER_QUAD, Fraction(954773548, 16497075), Fraction(70, 3)),
    ])
    def test_negative_control_alpha3_shifted(self, quad, rel2_casimir, rel3):
        sc = structure_constants(ParameterSet.from_quad(quad))
        bad = dataclasses.replace(sc, alpha3=sc.alpha3 + 1)
        report = verify_rep_relations(build_rep(12, quad, 30), constants=bad)
        assert not report.passed
        # alpha3 enters A3 itself, so every relation fails.
        assert (report.residuals["rel2"].value == report.residuals["casimir"].value
                == _to_mpf(rel2_casimir))
        assert report.residuals["rel3"].value == _to_mpf(rel3)

    @pytest.mark.parametrize("quad", [HALF_QUAD, RealParameterQuad(*map(Fraction, (3, 2, 5, 7)))],
                             ids=["half", "3,2,5,7"])
    def test_a3_band_equals_the_composed_anticommutator(self, quad):
        # Reference: A3 e_j = A1 A2 e_j + A2 A1 e_j - alpha3 e_j composed on sparse
        # vectors; the band's first and last columns must neither wrap nor keep n = N.
        N = 12
        rep = build_rep(N, quad, 30)
        alpha3 = structure_constants(ParameterSet.from_quad(quad)).alpha3

        def a1(v):
            return {n: rep.lam[n] * x for n, x in v.items()}

        def a2(v):
            out = {}
            for n, x in v.items():
                for m, s in ((n - 1, rep.u[n]), (n, rep.c[n]), (n + 1, 1)):
                    if 0 <= m < N:
                        out[m] = out.get(m, 0) + s * x
            return out

        a2_columns, a3_columns = reptheory._band_columns(rep, alpha3)
        for j in (0, 1, N - 2, N - 1):
            e = {j: ComplexRational(1)}
            assert a2_columns[j] == a2(e), j
            ref = reptheory._lincomb((1, a1(a2(e))), (1, a2(a1(e))), (-alpha3, e))
            assert a3_columns[j] == ref, j

    def test_tolerance_schedule(self):
        assert rep_tolerance(30) == mpf(10) ** -25
        assert rep_tolerance(16) == mpf(10) ** -12


class TestPositivity:
    def test_positive_quads(self):
        for quad in (HALF_QUAD, OTHER_QUAD):
            report = positivity_scan(quad, 100)
            assert report.passed
            assert report.first_nonpositive is None

    def test_vanishing_denominator_names_n(self):
        # 2(alpha+gamma) = -1 makes n+a+b+c+d+1 vanish at n = 0.
        quad = RealParameterQuad(Fraction(-1, 2), Fraction(1), Fraction(0), Fraction(1))
        with pytest.raises(DegenerateParameters) as info:
            positivity_scan(quad, 4)
        assert info.value.n == 0

    @pytest.mark.parametrize("n_max", [-1, -3])
    def test_negative_n_max_is_refused(self, n_max):
        with pytest.raises(InvalidParameters, match=f"n_max must be >= 0, got {n_max}"):
            positivity_scan(HALF_QUAD, n_max)

    def test_report_shape(self):
        doc = json.loads(document_text(positivity_scan(HALF_QUAD, 10)))
        assert doc["pass"] is True
        assert doc["n_max"] == 10


def _scan_by_recurrence(q: RealParameterQuad, n_max: int) -> PositivityReport:
    """The scan as the recurrence run to n_max gives it: the reference for positivity_scan.

    It stops at the first n whose denominator n+s+2 or n+s+1 vanishes, then
    reads every u_mod[n] and c_mod[n] of bi_coefficients.
    """
    s = 2 * (q.alpha + q.gamma)
    for n in range(n_max + 1):
        for shift in (2, 1):
            if n + s + shift == 0:
                raise DegenerateParameters(f"denominator n+a+b+c+d+{shift} vanishes at n={n}", n=n)
    data = bi_coefficients(n_max, ParameterSet.from_quad(q))
    first = next((n for n in range(1, n_max + 1)
                  if not (data.u_mod[n].is_real() and data.u_mod[n].re > 0)), None)
    return PositivityReport(n_max=n_max, all_positive=first is None,
                            all_real=all(c.is_real() for c in data.c_mod), first_nonpositive=first)


def _outcome(scan, q, n_max):
    """The report's document, or the exception's kind, detail and n."""
    try:
        return "report", json.loads(document_text(scan(q, n_max)))
    except BiwkitError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "n", None)


def _seeded_cases(count: int):
    """Quads with entries of both signs; a quarter put the pole at n = k-2 via 2(alpha+gamma) = -k."""
    rng = random.Random(2026)
    for _ in range(count):
        al, be, ga, de = (Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(4))
        if rng.random() < 0.25:
            ga = -al - Fraction(rng.randint(1, 45), 2)
        yield RealParameterQuad(al, be, ga, de), rng.choice([0, 1, 2, 3, 4, 5, 9, 17, 40])


EPSILON = "Fraction(1, 10 ** 30)"
# Source mutants (owner, function, old text, new text, the coefficient the per-quad proof names).
ODD_CLASS_MUTANTS = [
    # The odd-branch factor n+4alpha+1 of u_n.
    pytest.param(ModifiedClosedForm, "__init__", "-4 * al - 1,", f"-4 * al - 1 + {EPSILON},",
                 "u_1", id="closed-u-odd"),
    # The denominator 4*lambda_n^2 - 1 of c_n, and alpha3 in its numerator.
    pytest.param(ModifiedClosedForm, "at", "4 * lam * lam - 1",
                 f"4 * lam * lam - 1 + {EPSILON}", "c_1", id="closed-c"),
    pytest.param(ModifiedClosedForm, "at", "2 * self.sc.alpha3 *",
                 f"2 * (self.sc.alpha3 + {EPSILON}) *", "c_1", id="closed-alpha3"),
    # The shift of one factor of C_n for even n, and of one of A_n for odd n.
    pytest.param(polyfam, "_shifts", "2 * (p.c + p.d) + 1)", f"2 * (p.c + p.d) + 1 + {EPSILON})",
                 "c_2", id="recurrence-C-even"),
    pytest.param(polyfam, "_shifts", "2 * (p.a + p.b + 1),", f"2 * (p.a + p.b + 1) + {EPSILON},",
                 "c_1", id="recurrence-A-odd"),
]
EVEN_CLASS_MUTANTS = [
    # The square 4(beta+delta)^2 of u_n for even n only.
    pytest.param(ModifiedClosedForm, "squares", "(2 * (be + de)) ** 2",
                 f"(2 * (be + de)) ** 2 + {EPSILON}", "u_2", id="closed-u-even"),
    # The factor n of C_n for even n (its shift 0): c_n and u_n of the even class.
    pytest.param(polyfam, "_shifts", "ZERO,", f"ZERO + {EPSILON},", "c_2",
                 id="recurrence-C-even-n"),
]


class TestPositivityProof:
    def test_matches_the_recurrence_run_to_n_max(self):
        kinds = {}
        for q, n_max in _seeded_cases(1600):
            expected = _outcome(_scan_by_recurrence, q, n_max)
            assert _outcome(positivity_scan, q, n_max) == expected, (q, n_max)
            s = 2 * (q.alpha + q.gamma)
            if expected[0] == "report":
                kind = "pass" if expected[1]["pass"] else "fail"
                # A denominator vanishes at some n >= 0, all beyond n_max.
                kind += "/pole beyond n_max" if s.denominator == 1 and s <= -1 else ""
            else:
                kind = expected[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        # Each outcome the scan can have is exercised many times.
        for kind in ("pass", "fail", "fail/pole beyond n_max", "DegenerateParameters"):
            assert kinds.get(kind, 0) >= 50, kinds

    def test_closed_forms_equal_the_recurrence_at_every_n(self):
        # The recurrence run to n = 30 against the closed forms, value by value.
        checked = 0
        for q, _ in _seeded_cases(400):
            try:
                data = bi_coefficients(30, ParameterSet.from_quad(q))
            except DegenerateParameters:
                continue
            checked += 1
            closed = ModifiedClosedForm(q)
            assert data.u_mod[0] == 0 and len(data.c_mod) == 31
            for n in range(31):
                c_n, u_n = closed.at(n, n % 2)
                assert data.c_mod[n] == c_n, (q, n)
                assert n == 0 or data.u_mod[n] == u_n, (q, n)
        assert checked >= 200

    @pytest.mark.parametrize("k", range(3, 17))
    def test_pole_just_beyond_n_max(self, k):
        # 2(alpha+gamma) = -k puts zeros of n+s+2, n+s+1 and n+s at n = k-2,
        # k-1 and k, just past n_max.
        q = RealParameterQuad(Fraction(1), Fraction(-3, 2), Fraction(-1) - Fraction(k, 2),
                              Fraction(-15, 4))
        n_max = k - 3
        assert _outcome(positivity_scan, q, n_max) == _outcome(_scan_by_recurrence, q, n_max)
        with pytest.raises(DegenerateParameters) as info:
            positivity_scan(q, n_max + 1)
        assert info.value.n == n_max + 1

    def test_pole_at_a_checkpoint_n_max_0(self):
        # s = -4: the recurrence divides by zero at n = 2, 3, 4; the proof, over n, needs no point.
        report = positivity_scan(RealParameterQuad(1, Fraction(-3, 2), -3, Fraction(-15, 4)), 0)
        assert report.passed and report.n_max == 0

    def test_never_runs_the_recurrence_to_n_max(self, monkeypatch):
        def refuse(n_max, *args):
            raise AssertionError(f"recurrence run to n = {n_max}")

        for owner in (polyfam, reptheory):
            monkeypatch.setattr(owner, "q_modified_coefficients", refuse)
        monkeypatch.setattr(polyfam, "bi_coefficients", refuse)
        report = positivity_scan(OTHER_QUAD, 10 ** 6)
        assert report.passed and report.n_max == 10 ** 6

    def test_builds_no_pairing_and_no_structure_constants(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a scan read more of its closed form than the roots")

        polyfam.prove_closed_forms_for_every_quad()
        monkeypatch.setattr(polyfam, "structure_constants", refuse)
        monkeypatch.setattr(polyfam._Pairing, "of", refuse)
        report = positivity_scan(OTHER_QUAD, 10 ** 6)
        assert report.passed and report.n_max == 10 ** 6
        monkeypatch.undo()
        # What the scan left unbuilt is built on first read, to the recurrence's values.
        data = bi_coefficients(30, ParameterSet.from_quad(OTHER_QUAD))
        closed = ModifiedClosedForm(OTHER_QUAD)
        for n in range(31):
            c_n, u_n = closed.at(n, n % 2)
            assert data.c_mod[n] == c_n and (n == 0 or data.u_mod[n] == u_n), n

    @pytest.mark.parametrize("owner, name, old, new, named", ODD_CLASS_MUTANTS)
    def test_perturbed_coefficient_fails_the_proof(self, monkeypatch, owner, name, old, new, named):
        mutate_polyfam(monkeypatch, owner, name, old, new)
        with pytest.raises(BiwkitError, match=f"^{named} closed form disagrees"):
            positivity_scan(OTHER_QUAD, 100)

    @pytest.mark.parametrize("owner, name, old, new, named", EVEN_CLASS_MUTANTS)
    def test_even_class_break_is_named_even(self, monkeypatch, owner, name, old, new, named):
        mutate_polyfam(monkeypatch, owner, name, old, new)
        with pytest.raises(BiwkitError, match=f"^{named} closed form disagrees") as info:
            positivity_scan(OTHER_QUAD, 100)
        assert str(info.value).endswith(" on even n")

    @pytest.mark.parametrize("gamma", [
        # -4*gamma-1 = 1: the difference's numerator vanishes at n = 1.
        Fraction(-1, 2),
        # 2(alpha+gamma) = -2: its denominator 4(n+s+1)^2 vanishes at n = 1.
        Fraction(-2),
    ], ids=["numerator-zero-at-1", "denominator-zero-at-1"])
    def test_names_the_least_k_where_the_difference_is_defined_and_nonzero(self, monkeypatch,
                                                                            gamma):
        mutate_polyfam(monkeypatch, ModifiedClosedForm, "__init__", "-4 * al - 1,",
                f"-4 * al - 1 + {EPSILON},")
        q = RealParameterQuad(Fraction(1), Fraction(2, 5), gamma, Fraction(1, 7))
        with pytest.raises(BiwkitError, match="^u_3 closed form disagrees .* on odd n$"):
            polyfam.prove_closed_forms(q)


def _first_between_by_fractions(roots, parity, n_max):
    """The rule of ``_first_between`` on the roots' ``Fraction`` parts: its reference."""
    low, high = sorted(r.re for r in roots)
    n = max(1, math.ceil(low))
    n += (n - parity) % 2
    return n if n <= min(high, n_max) else None


# Roots between -6 and 12, a third of them integers; n_max 0 and 1 are drawn as often as 2..40.
root_values = st.one_of(st.integers(-6, 12).map(Fraction),
                        st.fractions(min_value=-6, max_value=12, max_denominator=7),
                        st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)]))
n_maxes = st.one_of(st.sampled_from([0, 1]), st.integers(2, 40))


class TestFirstBetween:
    @given(root_values, root_values, st.booleans(), st.sampled_from([0, 1]), n_maxes)
    @example(Fraction(3), Fraction(3), False, 1, 3)
    @example(Fraction(3), Fraction(3), False, 0, 3)
    @example(Fraction(1, 2), Fraction(5, 2), False, 1, 1)
    @example(Fraction(1, 2), Fraction(5, 2), False, 0, 1)
    @example(Fraction(-3, 2), Fraction(1, 3), False, 1, 0)
    @example(Fraction(7, 3), Fraction(-1), False, 0, 40)
    def test_agrees_with_the_fraction_rule(self, r1, r2, equal, parity, n_max):
        roots = (ComplexRational(r1), ComplexRational(r1 if equal else r2))
        assert (reptheory._first_between(roots, parity, n_max)
                == _first_between_by_fractions(roots, parity, n_max))


class TestWarmScan:
    def test_builds_no_fraction(self, monkeypatch):
        polyfam.prove_closed_forms_for_every_quad()
        calls, new = [], Fraction.__new__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        report = positivity_scan(OTHER_QUAD, 10 ** 6)
        monkeypatch.undo()
        assert report.passed and report.first_nonpositive is None
        assert calls == []


class TestCReal:
    def test_the_check_holds_on_the_symbols(self):
        assert polyfam.c_real_for_every_quad() is True
        assert polyfam._proof_for_every_quad() == (None, True)

    def test_alpha2_plus_i_alpha_fails_the_check(self, monkeypatch):
        # alpha2 + I * alpha, with alpha = (a + c)/2 on the symbols.
        mutate_polyfam(monkeypatch, polyfam, "structure_constants", "alpha2=-I * omega2,",
                       "alpha2=-I * omega2 + I * (a + c) / 2,")
        assert polyfam.c_real_for_every_quad() is False

    def test_a_failed_check_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(polyfam, "_proof_for_every_quad", lambda: (None, False))
        doc = json.loads(document_text(positivity_scan(OTHER_QUAD, 100)))
        assert (doc["u_all_positive"], doc["c_all_real"], doc["pass"]) == (True, False, False)


def _count_polynomial_products(monkeypatch):
    """Make every ``Polynomial.__mul__`` call count itself; return the list it appends to."""
    calls, multiply = [], Polynomial.__mul__

    def counted(self, other):
        calls.append(1)
        return multiply(self, other)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Polynomial, name, counted)
    return calls


class TestClosedFormsForEveryQuad:
    def test_the_proof_runs_once_and_a_scan_then_takes_no_product(self, monkeypatch):
        calls = _count_polynomial_products(monkeypatch)
        assert positivity_scan(HALF_QUAD, 100).passed
        assert calls
        calls.clear()
        assert positivity_scan(OTHER_QUAD, 100).passed
        polyfam.prove_closed_forms_for_every_quad()
        assert not calls
        info = polyfam._proof_for_every_quad.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    @pytest.mark.parametrize("owner, name, old, new, named", [
        # One odd root moved by 1/7.
        pytest.param(ModifiedClosedForm, "__init__", "-4 * al - 1,",
                     "-4 * al - 1 + Fraction(1, 7),", "u_1", id="odd-root-by-1/7"),
        # b for a in the even e1 of _shifts: A_{n-1} of the odd class's u_n.
        pytest.param(polyfam, "_shifts", "2 * (p.a + p.c + 1)", "2 * (p.b + p.c + 1)", "u_1",
                     id="even-e1-b-for-a"),
    ] + ODD_CLASS_MUTANTS + EVEN_CLASS_MUTANTS)
    def test_mutant_fails_the_proof_for_every_quad(self, monkeypatch, owner, name, old, new, named):
        # The proof names the coefficient and the class that the proof at OTHER_QUAD names.
        mutate_polyfam(monkeypatch, owner, name, old, new)
        cls = ("even", "odd")[int(named[2:]) % 2]
        with pytest.raises(BiwkitError, match=f"^{named[0]}_n closed form disagrees .* on {cls} n$"):
            polyfam.prove_closed_forms_for_every_quad()

    def test_a_mutant_vanishing_at_the_quad_fails_only_the_proof_for_every_quad(self, monkeypatch):
        # The odd root -4*alpha-1 moved by (alpha - 1/2)/7: unmoved at alpha = 1/2 only.
        mutate_polyfam(monkeypatch, ModifiedClosedForm, "__init__", "-4 * al - 1,",
                       "-4 * al - 1 + (al - Fraction(1, 2)) / 7,")
        with pytest.raises(BiwkitError, match="^u_n closed form disagrees .* on odd n$") as info:
            polyfam.prove_closed_forms_for_every_quad()
        assert info.value.first_failure == {"coefficient": "u_n", "parity": "odd"}
        assert positivity_scan(HALF_QUAD, 100).passed
        with pytest.raises(BiwkitError, match="^u_1 closed form disagrees .* on odd n$"):
            positivity_scan(OTHER_QUAD, 100)
