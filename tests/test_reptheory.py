"""Tests for the truncated tridiagonal representation."""

from fractions import Fraction

import pytest
from mpmath import mpf

from biwkit.errors import InvalidParameters
from biwkit.polyfam import ParameterSet, RealParameterQuad
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


class TestBuild:
    def test_matrix_shapes(self):
        rep = build_rep(8, HALF_QUAD)
        a1, a2 = rep.a1_matrix(), rep.a2_matrix()
        assert len(a1) == len(a2) == 8
        # A1 diagonal, A2 symmetric tridiagonal.
        assert all(a1[i][j] == 0 for i in range(8) for j in range(8) if i != j)
        assert all(a2[i][j] == a2[j][i] for i in range(8) for j in range(8))
        assert all(a2[i][j] == 0 for i in range(8) for j in range(8) if abs(i - j) > 1)

    def test_first_entries_half_quad(self):
        rep = build_rep(6, HALF_QUAD)
        # (-1)^0 (0 + 2(alpha+gamma) + 3/2) = 7/2; c_0 = 1; sqrt(u_1) = 2.
        assert rep.diag_a1[0] == mpf("3.5")
        assert rep.diag_a2[0] == mpf(1)
        assert rep.offdiag_a2[0] == mpf(2)

    def test_rejects_small_and_nonpositive(self):
        with pytest.raises(InvalidParameters):
            build_rep(3, HALF_QUAD)
        with pytest.raises(InvalidParameters):
            build_rep(10, RealParameterQuad(Fraction(-1), Fraction(1), Fraction(1), Fraction(1)))
        for digits in (0, 15):
            with pytest.raises(InvalidParameters):
                build_rep(10, HALF_QUAD, digits)


class TestRelations:
    def test_residuals_within_tolerance(self):
        for quad in (HALF_QUAD, OTHER_QUAD):
            rep = build_rep(20, quad, 30)
            report = verify_rep_relations(rep)
            assert report.passed, report.to_json()

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
        assert not verify_rep_relations(rep, constants=bad).passed

    def test_tolerance_schedule(self):
        assert rep_tolerance(30) == mpf(10) ** -25
        assert rep_tolerance(16) == mpf(10) ** -12


class TestPositivity:
    def test_positive_quads(self):
        for quad in (HALF_QUAD, OTHER_QUAD):
            report = positivity_scan(quad, 100)
            assert report.passed
            assert report.first_nonpositive is None

    def test_report_shape(self):
        doc = positivity_scan(HALF_QUAD, 10).to_json()
        assert doc["pass"] is True
        assert doc["n_max"] == 10
