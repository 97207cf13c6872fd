"""Tests for the difference-reflection operators and algebra checks."""

import inspect
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import shared_caches

from biwkit import exact, polyfam
from biwkit.cli import document_text, random_parameter_set
from biwkit.errors import DegenerateParameters, InvalidParameters, OperatorNotPolynomialPreserving
from biwkit.exact import HALF, I, ONE, ComplexRational, Polynomial
from biwkit.operators import (
    CasimirReport,
    DifferenceOperator,
    DividedDifference,
    PolynomialMultiple,
    StructureConstants,
    Substitution,
    _check_eigen_pairs,
    _realization,
    _report,
    bi_realization,
    build_daha_generators,
    build_L,
    build_M,
    casimir_scalar,
    iso_forward,
    iso_inverse,
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
    SHARED_SETS,
    DAHAParameterSet,
    ParameterSet,
    RealParameterQuad,
    bi_polynomials,
    param_map_bi_to_daha,
)

ZERO_PARAMS = ParameterSet(0, 0, 0, 0)
HALF_QUAD_PARAMS = ParameterSet.from_quad(
    RealParameterQuad(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
)


class TestOperatorBasics:
    def test_reflection(self):
        x = Polynomial.x()
        assert Substitution(-1, 0).apply(x * x + x) == x * x - x

    def test_divided_difference_block(self):
        # (x+1)/(2x+1) * (T+R - 1): T+R maps x to -x-1, so (T+R - 1) x =
        # -2x - 1, the quotient by (2x+1) is exact and the block maps x to
        # -(x+1).
        op = DividedDifference(Polynomial([1, 1]), Polynomial([1, 2]), -1, -1)
        assert op.apply(Polynomial.x()) == Polynomial([-1, -1])

    def test_substitution_images_are_affine_substitutions(self):
        rng = random.Random(2909)
        for _ in range(5):
            s, t = _gaussian_rational(rng), _gaussian_rational(rng)
            op = Substitution(s, t)
            for k in reversed(range(30)):
                assert op.image(k) == Polynomial.monomial(k).affine_substitute(s, t)

    def test_high_image_first_needs_no_deep_recursion(self):
        # L's first block at the half quad.  The limit, 100 frames above this
        # one, is far below the default 1000 and leaves no frame per lower image.
        def block():
            x, p = Polynomial.x(), HALF_QUAD_PARAMS
            return DividedDifference((x + 2 * p.c + 1) * (x + 2 * p.d + 1), 2 * x + 1, -1, -1)

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            top = block().image(400)
        finally:
            sys.setrecursionlimit(limit)
        in_order = block()
        assert [in_order.image(k) for k in range(401)][400] == top

    def test_non_preserving_raises(self):
        # (f(x+1) - f(x))/x: the shift has no fixed point, x does not divide.
        with pytest.raises(OperatorNotPolynomialPreserving) as info:
            DividedDifference(Polynomial.one(), Polynomial([0, 1]), 1, 1)
        assert "DivDiff(Polynomial(['1']) / Polynomial(['0', '1']) * (Subst(x -> 1*x + 1) - 1))" \
            in str(info.value)
        assert info.value.remainder == Polynomial.one()

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
        # 2x+3 in place of L's 2x+1: -x-1 does not fix its root -3/2.
        x = Polynomial.x()
        num, den = (x + 1) * (x + 1), 2 * x + 3
        with pytest.raises(OperatorNotPolynomialPreserving) as info:
            DividedDifference(num, den, -1, -1)
        assert f"DivDiff({num!r} / {den!r} * (Subst(x -> -1*x + -1) - 1))" in str(info.value)
        assert not info.value.remainder.is_zero()

    def test_labels_are_built_only_when_read(self, monkeypatch):
        printed = []
        monkeypatch.setattr(Polynomial, "__repr__", lambda p: printed.append(p) or "p")
        L = build_L(HALF_QUAD_PARAMS)
        L.apply(Polynomial.monomial(3))
        assert printed == []

    def test_images_are_memoized_per_object(self):
        L = build_L(HALF_QUAD_PARAMS)
        image = L.image(4)
        assert L.image(4) is image
        assert build_L(HALF_QUAD_PARAMS).image(4) == image


def _leaves(rng):
    """A polynomial multiple, a substitution and a divided-difference block, at random."""
    x = Polynomial.x()
    num = Polynomial([_gaussian_rational(rng) for _ in range(rng.randint(1, 3))])
    return [PolynomialMultiple(Polynomial([_gaussian_rational(rng) for _ in range(3)])),
            Substitution(_gaussian_rational(rng), _gaussian_rational(rng)),
            DividedDifference(num, 2 * x + 1, -1, -1)]


def _scalar(rng):
    return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                       _gaussian_rational(rng)])


def _expression(rng, leaves, depth):
    """A random operator expression over the leaves: (its tree, what ``+ - *`` built)."""
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.choice(leaves)
        return ("leaf", leaf), leaf
    a, op_a = _expression(rng, leaves, depth - 1)
    shape = rng.choice(["neg", "operators", "scalar on the left", "scalar on the right"])
    if shape == "neg":
        return ("neg", a), -op_a
    if shape == "operators":
        b, op_b = _expression(rng, leaves, depth - 1)
    else:
        c = _scalar(rng)
        b, op_b = ("scalar", c), c
        if shape == "scalar on the left":
            (a, op_a), (b, op_b) = (b, op_b), (a, op_a)
    kind = rng.choice(["add", "sub", "mul"])
    op = {"add": lambda: op_a + op_b, "sub": lambda: op_a - op_b, "mul": lambda: op_a * op_b}
    return (kind, a, b), op[kind]()


def _reference(node, f: Polynomial) -> Polynomial:
    """The image of f under the expression ``node``, evaluated node by node."""
    kind = node[0]
    if kind == "scalar":
        return ComplexRational.coerce(node[1]) * f
    if kind == "leaf":
        return node[1].apply(f)
    if kind == "neg":
        return -_reference(node[1], f)
    a, b = node[1], node[2]
    if kind == "add":
        return _reference(a, f) + _reference(b, f)
    if kind == "sub":
        return _reference(a, f) - _reference(b, f)
    return _reference(a, _reference(b, f))  # a product: b first, then a


class TestFlatCombinations:
    """Sums, differences, negations and scalar multiples as one flat node of terms."""

    def test_random_expressions_match_a_node_by_node_reference(self):
        rng = random.Random(27)
        for _ in range(50):
            node, op = _expression(rng, _leaves(rng), rng.randint(1, 4))
            for k in range(9):
                assert op.image(k) == _reference(node, Polynomial.monomial(k)), node

    def test_scalars_on_either_side(self):
        A, B, _ = _leaves(random.Random(1))
        c = ComplexRational(Fraction(2, 3), -1)
        for k in range(6):
            f = Polynomial.monomial(k)
            assert (c - A).image(k) == c * f - A.apply(f)
            assert (A - c).image(k) == A.apply(f) - c * f
            assert (2 + B).image(k) == (B + 2).image(k) == B.apply(f) + 2 * f
            assert (c * A).image(k) == (A * c).image(k) == c * A.apply(f)

    def test_like_terms_merge_and_cancelled_terms_drop(self):
        A, B, C = _leaves(random.Random(2))
        expr = 2 * (A + B) - (C - 3) + Fraction(1, 2) * -(A - HALF)
        coefficients = {op: c for c, op in expr.terms}
        assert len(expr.terms) == 4 and coefficients[A] == Fraction(3, 2)
        assert coefficients[B] == 2 and coefficients[C] == -1
        assert (A + B - A).terms == ((ONE, B),)
        zero = A - A
        assert zero.terms == () and all(zero.image(k).is_zero() for k in range(4))
        assert (zero + B).image(3) == B.image(3)

    def test_products_are_not_flattened(self):
        A, B, _ = _leaves(random.Random(3))
        product = A * B
        assert product.terms == ()
        assert (product + A).terms == ((ONE, product), (ONE, A))

    def test_one_combination_per_image(self, monkeypatch):
        A, B, C = _leaves(random.Random(4))
        expr = 2 * (A + B) - (C - 3) + Fraction(1, 2) * -(A - HALF) - I * (B - C + 1)
        for k in range(7):  # the leaves' own images, made beforehand
            A.image(k), B.image(k), C.image(k)
        calls, combination = [], exact._combination
        monkeypatch.setattr(exact, "_combination",
                            lambda *args: calls.append(1) or combination(*args))
        for k in range(7):
            expr.image(k)
        assert len(calls) == 7

    @pytest.mark.parametrize("operand", [Polynomial.x(), 0.5, "1"])
    def test_an_operand_that_is_not_a_scalar_is_rejected_when_built(self, operand):
        A, _, _ = _leaves(random.Random(6))
        for build in (lambda: A + operand, lambda: operand - A, lambda: A * operand,
                      lambda: operand * A):
            with pytest.raises(TypeError):
                build()

    def test_flat_nodes_are_difference_operators(self):
        A, _, _ = _leaves(random.Random(5))
        assert type(A + 1) is type(-A) is type(2 * A) is type(A * A) is DifferenceOperator


class TestNoVacuousPass:
    def test_negative_degree_rejected(self):
        L = build_L(ZERO_PARAMS)
        with pytest.raises(InvalidParameters):
            _report(-1, ["vacuous"], [L])
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
        failed = CasimirReport(which="compact", expected=report.expected, realized_ok=False,
                               max_degree_checked=4)
        for r in (report, failed):
            assert r.passed is r.realized_ok
            assert json.loads(document_text(r))["realized_ok"] is r.realized_ok
            assert "pass" not in json.loads(document_text(r))
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
        assert fwd.central_values["t0_sq"] == t.t0 * t.t0 == sixteenth
        assert fwd.central_values["t1_sq"] == t.t1 * t.t1 == sixteenth


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


class TestSharedBuilders:
    """A process builds each parameter set's operators and B_n family once, keyed by value."""

    P = ParameterSet(ComplexRational(1, 2), Fraction(-1, 3), ComplexRational(Fraction(2, 3), -1),
                     ComplexRational(0, Fraction(1, 7)))

    def test_equal_sets_share_one_object(self):
        p = self.P
        twin = ParameterSet(*(ComplexRational(v.re, v.im) for v in (p.a, p.b, p.c, p.d)))
        assert twin is not p and twin == p
        assert build_L(twin) is build_L(p)
        assert build_M(twin) is build_M(p)
        assert build_daha_generators(param_map_bi_to_daha(twin)) is \
            build_daha_generators(param_map_bi_to_daha(p))
        for mine, theirs in zip(bi_realization(twin)[:3], bi_realization(p)[:3]):
            assert mine is theirs

    def test_other_sets_get_other_objects(self):
        p = self.P
        for other in (ParameterSet(p.a, p.b + 1, p.c, p.d), ParameterSet(p.a, p.b, p.d, p.c)):
            assert other != p
            assert build_L(other) is not build_L(p)
            assert build_M(other) is not build_M(p)
            assert build_daha_generators(param_map_bi_to_daha(other)) is not \
                build_daha_generators(param_map_bi_to_daha(p))

    def test_triple_is_keyed_by_its_own_constant(self):
        # omega1 is not part of the compact triple, omega3 is.
        p, sc = self.P, structure_constants(self.P)
        triple = _realization(p, sc, "compact")
        assert _realization(p, replace(sc, omega1=sc.omega1 + 1), "compact") is triple
        assert _realization(p, replace(sc, omega3=sc.omega3 + 1), "compact")[2] is not triple[2]
        assert _realization(p, sc, "noncompact")[0] is build_M(p)

    def test_caches_stay_bounded(self):
        rng = random.Random(25)
        for _ in range(SHARED_SETS + 3):
            p = random_parameter_set(rng, 4)
            for which in ("compact", "noncompact"):
                assert verify_casimir(p, 0, which).passed
            assert verify_daha_relations(param_map_bi_to_daha(p), 0).passed
            bi_polynomials(2, p)
        # The proof of the closed forms takes no input: its cache holds at most one entry.
        proof = polyfam._proof_for_every_quad
        caches = shared_caches() - {proof}
        assert len(caches) == 5
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize == SHARED_SETS and info.misses > SHARED_SETS
            assert info.currsize <= info.maxsize
        assert proof.cache_info().currsize <= 1

    def test_family_is_returned_as_a_new_list(self):
        polys = bi_polynomials(4, self.P)
        kept = list(polys)
        polys[0] = Polynomial.zero()
        polys.append(Polynomial.one())
        assert bi_polynomials(4, self.P) == kept

    def test_longer_request_extends_the_family(self):
        short, long = bi_polynomials(3, self.P), bi_polynomials(9, self.P)
        assert long[:4] == short and bi_polynomials(6, self.P) == long[:7]
        for cache in shared_caches():
            cache.cache_clear()
        assert bi_polynomials(9, self.P) == long

    def test_degenerate_request_leaves_the_family_as_it_was(self):
        # a+b+c+d = -5: n+s+2 vanishes at n = 3.
        p = ParameterSet(-5, 0, 0, 0)
        short = bi_polynomials(2, p)
        for _ in range(2):
            with pytest.raises(DegenerateParameters) as info:
                bi_polynomials(5, p)
            assert info.value.n == 3
        assert bi_polynomials(2, p) == short
