"""Tests for the truncated tridiagonal representation."""

import dataclasses
from fractions import Fraction

import pytest
from mpmath import mpf

from biwkit import reptheory
from biwkit.errors import DegenerateParameters, InvalidParameters
from biwkit.exact import ComplexRational
from biwkit.polyfam import (
    ParameterSet,
    RealParameterQuad,
    bi_eigenvalue,
    q_modified_coefficients,
)
from biwkit.operators import StructureConstants, structure_constants
from biwkit.reptheory import (
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
            assert report.passed, report.to_json()

    @pytest.mark.parametrize("quad", [HALF_QUAD, OTHER_QUAD])
    def test_residuals_exactly_zero(self, quad):
        report = verify_rep_relations(build_rep(50, quad, 30))
        assert report.passed
        assert report.residual_rel2 == report.residual_rel3 == report.residual_casimir == 0

    def test_double_precision_tolerance(self):
        rep = build_rep(16, HALF_QUAD, 16)
        report = verify_rep_relations(rep)
        assert report.tolerance == rep_tolerance(16) == mpf(10) ** -12
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
        assert report.residual_rel2 == 5

    def test_negative_control_alpha1_shifted_below_print_digits(self):
        sc = structure_constants(ParameterSet.from_quad(HALF_QUAD))
        shift = Fraction(1, 10 ** 30)
        bad = dataclasses.replace(sc, alpha1=sc.alpha1 + ComplexRational(shift))
        report = verify_rep_relations(build_rep(50, HALF_QUAD, 30), constants=bad)
        assert not report.passed
        assert report.residual_rel2 == _to_mpf(shift)
        assert report.residual_rel3 == report.residual_casimir == 0

    @pytest.mark.parametrize("quad", [HALF_QUAD, OTHER_QUAD])
    def test_negative_control_alpha2_shifted(self, quad):
        sc = structure_constants(ParameterSet.from_quad(quad))
        bad = dataclasses.replace(sc, alpha2=sc.alpha2 + 1)
        report = verify_rep_relations(build_rep(12, quad, 30), constants=bad)
        assert not report.passed
        # alpha2 enters only {A3,A1} - A2 - alpha2, on the diagonal.
        assert (report.residual_rel2, report.residual_rel3, report.residual_casimir) == (0, 1, 0)

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
        assert report.residual_rel2 == report.residual_casimir == _to_mpf(rel2_casimir)
        assert report.residual_rel3 == _to_mpf(rel3)

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

    def test_report_shape(self):
        doc = positivity_scan(HALF_QUAD, 10).to_json()
        assert doc["pass"] is True
        assert doc["n_max"] == 10
