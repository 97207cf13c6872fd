"""Unit and property tests for the exact arithmetic substrate."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from biwkit.cli import document_text
from biwkit.errors import NonzeroRemainder, OperatorNotPolynomialPreserving
from biwkit.exact import (SYMBOLS, ComplexRational, MultiPolynomial, Polynomial, RationalFunction,
                          parse_complex_rational)
from biwkit.operators import DividedDifference


def written(value):
    """``value`` as the command line writes it into a document, read back as JSON."""
    return json.loads(document_text(value))


def read_complex(leaf) -> ComplexRational:
    return ComplexRational(Fraction(leaf["exact"]["re"]), Fraction(leaf["exact"]["im"]))


# -- scalar strategies -------------------------------------------------------

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)
scalars = st.builds(ComplexRational, small_fractions, small_fractions)
nonzero_scalars = scalars.filter(lambda c: not c.is_zero())
parts = st.fractions(max_denominator=60, min_value=-40, max_value=40)
pairs = st.tuples(parts, parts)
rationals = st.one_of(st.integers(-20, 20), st.fractions(max_denominator=60))
polys = st.lists(scalars, min_size=0, max_size=6).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


class TestComplexRational:
    def test_field_axioms_spot(self):
        a = ComplexRational(Fraction(1, 2), Fraction(-3, 4))
        b = ComplexRational(Fraction(2, 3), Fraction(5))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * a == a * a + b * a
        assert a / a == ComplexRational(1)

    def test_i_squared(self):
        i = ComplexRational(0, 1)
        assert i * i == ComplexRational(-1)

    def test_conjugate_norm(self):
        a = ComplexRational(Fraction(3, 5), Fraction(4, 5))
        assert a * a.conjugate() == ComplexRational(1)

    def test_pow(self):
        i = ComplexRational(0, 1)
        assert i ** 4 == ComplexRational(1)
        assert i ** -1 == -i
        a = ComplexRational(2, 1)
        assert a ** 3 == a * a * a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ComplexRational(1) / ComplexRational(0)

    def test_immutability(self):
        a = ComplexRational(1, 2)
        with pytest.raises(AttributeError):
            a.re = Fraction(5)

    @given(scalars, nonzero_scalars)
    def test_division_roundtrip(self, a, b):
        assert (a / b) * b == a

    @given(scalars)
    def test_json_roundtrip(self, a):
        assert read_complex(written(a)) == a

    @given(scalars)
    def test_str_parse_roundtrip(self, a):
        assert parse_complex_rational(str(a)) == a


# -- inline reference: a Gaussian rational as a (Fraction, Fraction) pair ----

def ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_div(a, b):
    n2 = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n2, (a[1] * b[0] - a[0] * b[1]) / n2)


def ref_pow(a, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = ref_mul(out, a)
    return ref_div((Fraction(1), Fraction(0)), out) if k < 0 else out


def assert_is(z, ref):
    """z holds the value ref in the canonical (x, y, d) form."""
    assert (z.re, z.im) == ref
    assert type(z.re) is Fraction and type(z.im) is Fraction
    x, y, d = z._x, z._y, z._d
    assert d > 0 and gcd(x, y, d) == 1
    assert ref != (0, 0) or (x, y, d) == (0, 0, 1)


class TestArithmeticOracle:
    @given(pairs, pairs)
    def test_field_operations(self, a, b):
        za, zb = ComplexRational(*a), ComplexRational(*b)
        assert_is(za, a)
        assert_is(za + zb, (a[0] + b[0], a[1] + b[1]))
        assert_is(za - zb, (a[0] - b[0], a[1] - b[1]))
        assert_is(za * zb, ref_mul(a, b))
        if b != (0, 0):
            assert_is(za / zb, ref_div(a, b))
        else:
            with pytest.raises(ZeroDivisionError):
                za / zb
        assert_is(-za, (-a[0], -a[1]))
        assert_is(za.conjugate(), (a[0], -a[1]))
        assert (za == zb) == (a == b)
        if za == zb:
            assert hash(za) == hash(zb)

    @given(pairs, rationals)
    def test_mixed_operands(self, a, r):
        za, rr = ComplexRational(*a), (Fraction(r), Fraction(0))
        assert_is(za + r, (a[0] + r, a[1]))
        assert_is(r + za, (a[0] + r, a[1]))
        assert_is(za - r, (a[0] - r, a[1]))
        assert_is(r - za, (r - a[0], -a[1]))
        assert_is(za * r, ref_mul(a, rr))
        assert_is(r * za, ref_mul(a, rr))
        if r != 0:
            assert_is(za / r, ref_div(a, rr))
        else:
            with pytest.raises(ZeroDivisionError):
                za / r
        if a != (0, 0):
            assert_is(r / za, ref_div(rr, a))
        assert_is(ComplexRational.coerce(r), rr)
        assert (za == r) == (a == rr)
        assert (ComplexRational(r) == r) and hash(ComplexRational(r)) == hash(r)

    @given(pairs, st.integers(-5, 5))
    def test_powers(self, a, k):
        za = ComplexRational(*a)
        if k < 0 and a == (0, 0):
            with pytest.raises(ZeroDivisionError):
                za ** k
        else:
            assert_is(za ** k, ref_pow(a, k))

    @given(pairs)
    def test_immutable(self, a):
        za = ComplexRational(*a)
        for name in ("re", "im", "_x", "_y", "_d"):
            with pytest.raises(AttributeError):
                setattr(za, name, 1)
        assert_is(za, a)

    def test_zero_is_canonical(self):
        for z in (ComplexRational(), ComplexRational(Fraction(0, 7), "0"),
                  ComplexRational(3, -2) - ComplexRational(3, -2),
                  ComplexRational(Fraction(1, 3)) * 0):
            assert (z._x, z._y, z._d) == (0, 0, 1)

    def test_equal_values_hash_equal(self):
        for value in (3, -1, 0, Fraction(1, 2), Fraction(-7, 3)):
            z = ComplexRational(value)
            assert z == value and hash(z) == hash(value)
            assert {value: "v"}.get(z) == "v"
            assert {z: "v"}.get(value) == "v"
        assert hash(ComplexRational(Fraction(2, 4), 1)) == hash(ComplexRational("1/2", 1))


class TestParsing:
    @pytest.mark.parametrize("text,expected", [
        ("3/2", ComplexRational(Fraction(3, 2))),
        ("-0.25", ComplexRational(Fraction(-1, 4))),
        ("1/2+1/3i", ComplexRational(Fraction(1, 2), Fraction(1, 3))),
        ("-i", ComplexRational(0, -1)),
        ("2i", ComplexRational(0, 2)),
        ("0", ComplexRational(0)),
        ("1/2-2i", ComplexRational(Fraction(1, 2), -2)),
    ])
    def test_parse(self, text, expected):
        assert parse_complex_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "1/2+", "i2", "1//2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_complex_rational(text)

    def test_decimal_is_exact(self):
        assert parse_complex_rational("0.5") == ComplexRational(Fraction(1, 2))

    def test_fraction_str_roundtrip(self):
        for q in (Fraction(-3, 2), Fraction(7), Fraction(0)):
            assert Fraction(written(q)["exact"]) == q


class TestPolynomial:
    def test_canonical_zero(self):
        assert Polynomial([0, 0, 0]).coeffs == ()
        assert Polynomial().degree == -1
        assert (Polynomial([1, 2]) - Polynomial([1, 2])).is_zero()

    def test_degree_and_leading(self):
        p = Polynomial([1, 0, Fraction(2, 3)])
        assert p.degree == 2
        assert p.coefficient(p.degree) == ComplexRational(Fraction(2, 3))

    def test_arithmetic_spot(self):
        x = Polynomial.x()
        assert (x + 1) * (x - 1) == x * x - 1
        assert 2 * x == x + x

    def test_exact_div_remainder(self):
        x = Polynomial.x()
        with pytest.raises(NonzeroRemainder) as exc:
            (x * x + 1).exact_div(x)
        assert not exc.value.remainder.is_zero()

    def test_call(self):
        p = Polynomial([1, 2, 1])  # (x+1)^2
        assert p(ComplexRational(0, 1)) == ComplexRational(0, 2)  # (i+1)^2 = 2i

    @given(polys, nonzero_polys)
    def test_exact_div_roundtrip(self, p, d):
        assert (p * d).exact_div(d) == p

    @given(polys, nonzero_scalars, scalars)
    def test_affine_substitute_inverse(self, p, s, t):
        q = p.affine_substitute(s, t)
        back = q.affine_substitute(1 / s, -t / s)
        assert back == p

    @given(polys, polys, scalars)
    def test_evaluation_is_ring_hom(self, p, q, z):
        assert (p * q)(z) == p(z) * q(z)
        assert (p + q)(z) == p(z) + q(z)

    @given(polys)
    def test_json_roundtrip(self, p):
        assert Polynomial([read_complex(c) for c in written(p)]) == p


# -- inline reference: a polynomial as a list of ComplexRational coefficients -

ZERO_C = ComplexRational(0)


def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def poly_add(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [ZERO_C] * (n - len(a)), list(b) + [ZERO_C] * (n - len(b))
    return poly_trim(u + v for u, v in zip(a, b))


def poly_scale(c, a):
    return poly_trim(c * u for u in a)


def poly_mul(a, b):
    out = [ZERO_C] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = out[i + j] + u * v
    return poly_trim(out)


def poly_affine(a, s, t):
    out, power = (), (ComplexRational(1),)
    for c in a:
        out = poly_add(out, poly_scale(c, power))
        power = poly_mul(power, (t, s))
    return out


def poly_divmod(a, d):
    """Long division of coefficient tuples: (quotient, remainder)."""
    rem, dd = list(a), len(d) - 1
    q = [ZERO_C] * max(len(a) - dd, 0)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + dd] / d[-1]
        q[k] = c
        for j, v in enumerate(d):
            rem[k + j] = rem[k + j] - c * v
    return poly_trim(q), poly_trim(rem[:dd])


def poly_eval(a, z):
    acc = ZERO_C
    for c in reversed(a):
        acc = acc * z + c
    return acc


def assert_poly(p, ref):
    """p holds the coefficients ref, in the canonical numerator form."""
    assert p.coeffs == ref
    xs, ys, d = p._xs, p._ys, p._d
    assert type(xs) is tuple and type(ys) is tuple and len(xs) == len(ys) == len(ref)
    assert d > 0 and gcd(d, *xs, *ys) == 1
    assert not xs or xs[-1] or ys[-1]
    assert p.degree == len(ref) - 1 and p.is_zero() == (not ref)
    assert ref or (xs, ys, d) == ((), (), 1)
    assert Polynomial(ref) == p and hash(Polynomial(ref)) == hash(p)


coeff_lists = st.lists(scalars, min_size=0, max_size=6)
# The linear divisors of the paper's blocks, each with the shift t of the
# involution x -> -x + t whose fixed point t/2 it vanishes at: 2x+1, 2x-1,
# 1-2ix, 1+2ix, 1-2z and 2z.
BLOCK_DIVISORS = [((ComplexRational(1), ComplexRational(2)), ComplexRational(-1)),
                  ((ComplexRational(-1), ComplexRational(2)), ComplexRational(1)),
                  ((ComplexRational(1), ComplexRational(0, -2)), ComplexRational(0, -1)),
                  ((ComplexRational(1), ComplexRational(0, 2)), ComplexRational(0, 1)),
                  ((ComplexRational(1), ComplexRational(-2)), ComplexRational(1)),
                  ((ComplexRational(0), ComplexRational(2)), ComplexRational(0))]
# The scales s of sigma(x) = s*x + t a divided difference is tested with.
SIGMA_SCALES = [ComplexRational(v) for v in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))] + [
    ComplexRational(0, 1), ComplexRational(0, -1)]
divisors = st.one_of(st.sampled_from([den for den, _ in BLOCK_DIVISORS]),
                     coeff_lists.map(poly_trim).filter(bool))


class TestPolynomialOracle:
    @given(coeff_lists, coeff_lists, scalars)
    def test_ring_operations(self, a, b, c):
        pa, pb, a, b = Polynomial(a), Polynomial(b), poly_trim(a), poly_trim(b)
        assert_poly(pa, a)
        assert_poly(pa + pb, poly_add(a, b))
        assert_poly(pa - pb, poly_add(a, poly_scale(ComplexRational(-1), b)))
        assert_poly(-pa, poly_scale(ComplexRational(-1), a))
        assert_poly(pa * pb, poly_mul(a, b))
        assert_poly(c * pa, poly_scale(c, a))
        assert_poly(pa * c, poly_scale(c, a))
        assert_poly(pa + c, poly_add(a, poly_trim([c])))
        assert_poly(c - pa, poly_add(poly_trim([c]), poly_scale(ComplexRational(-1), a)))
        assert (pa == pb) == (a == b)

    @given(coeff_lists, rationals)
    def test_rational_scalars(self, a, r):
        pa, a = Polynomial(a), poly_trim(a)
        assert_poly(r * pa, poly_scale(ComplexRational(r), a))
        assert_poly(pa * r, poly_scale(ComplexRational(r), a))
        assert_poly(pa - r, poly_add(a, poly_trim([ComplexRational(-r)])))
        assert_poly(r + pa, poly_add(a, poly_trim([ComplexRational(r)])))

    @given(coeff_lists, scalars, scalars, scalars)
    def test_affine_substitute(self, a, s, t, scale):
        pa, a = Polynomial(a), poly_trim(a)
        assert_poly(pa.affine_substitute(s, t), poly_affine(a, s, t))
        assert_poly(pa.affine_substitute(s, 0), poly_affine(a, s, ZERO_C))
        assert_poly(pa.affine_substitute(s, t, scale), poly_scale(scale, poly_affine(a, s, t)))
        assert_poly(pa.affine_substitute(s, 0, scale), poly_scale(scale, poly_affine(a, s, ZERO_C)))

    @given(coeff_lists, divisors, st.booleans())
    def test_exact_div(self, a, d, exact):
        pa, pd = Polynomial(a), Polynomial(d)
        if exact:
            pa = pa * pd
        q, r = poly_divmod(pa.coeffs, d)
        if not r:
            assert_poly(pa.exact_div(pd), q)
        else:
            with pytest.raises(NonzeroRemainder) as exc:
                pa.exact_div(pd)
            assert_poly(exc.value.remainder, r)

    @given(coeff_lists, scalars)
    def test_call(self, a, z):
        assert Polynomial(a)(z) == poly_eval(poly_trim(a), z)

    @given(coeff_lists, coeff_lists, st.sampled_from(BLOCK_DIVISORS))
    def test_divided_difference_apply(self, f, num, block):
        den, t = block
        op = DividedDifference(Polynomial(num), Polynomial(den), -1, t)
        f, num = poly_trim(f), poly_trim(num)
        diff = poly_add(poly_affine(f, ComplexRational(-1), t), poly_scale(ComplexRational(-1), f))
        q, r = poly_divmod(diff, den)
        assert not r
        assert_poly(op.apply(Polynomial(f)), poly_mul(num, q))

    @given(polys, scalars, nonzero_scalars, st.sampled_from(SIGMA_SCALES), scalars,
           st.booleans(), st.booleans())
    def test_divided_difference_checked_when_built(self, num, d0, d1, s, t, fixed, divisible):
        # Each flag makes the block preserve polynomials: sigma fixes the
        # root r of den, or r is a root of num.  Otherwise it mostly does not.
        den = Polynomial([d0, d1])
        if fixed:
            t = -d0 / d1 * (1 - s)
        if divisible:
            num = num * den
        try:
            (num * Polynomial([t, s - 1])).exact_div(den)
        except NonzeroRemainder as exc:
            with pytest.raises(OperatorNotPolynomialPreserving) as info:
                DividedDifference(num, den, s, t)
            assert info.value.remainder == exc.remainder
            return
        op = DividedDifference(num, den, s, t)
        for k in reversed(range(30)):  # highest first: the step recurrence fills the rest
            xk = Polynomial.monomial(k)
            assert op.image(k) == (num * (xk.affine_substitute(s, t) - xk)).exact_div(den)

    @pytest.mark.parametrize("den", [Polynomial(), Polynomial.one(), Polynomial([1, 0, 2])])
    def test_divided_difference_needs_linear_denominator(self, den):
        with pytest.raises(ValueError):
            DividedDifference(Polynomial.one(), den, -1, 0)

    def test_zero_is_unique(self):
        p = Polynomial([ComplexRational(Fraction(1, 3), 2), 5])
        for z in (Polynomial(), Polynomial.zero(), Polynomial([0, Fraction(0, 7)]), p - p,
                  p * 0, 0 * p, p * Polynomial(), Polynomial.monomial(3, 0),
                  Polynomial().affine_substitute(2, 1), (p * p).exact_div(p) - p):
            assert (z._xs, z._ys, z._d) == ((), (), 1)
            assert z == Polynomial() and hash(z) == hash(Polynomial())

    @given(coeff_lists, coeff_lists)
    def test_equal_values_hash_equal(self, a, b):
        pa, pb = Polynomial(a), Polynomial(b)
        same = (pa + pb) - pb
        assert same == pa and hash(same) == hash(pa)
        assert {pa: "v"}.get(same) == "v"


# -- rational functions of n, against evaluation at integers ----------------

rational_functions = st.builds(RationalFunction, polys, nonzero_polys)
any_scalars = st.one_of(scalars, rationals)
POINTS = range(-12, 13)


def value(f, k):
    """f at k, or None where its denominator vanishes."""
    den = f.den(k)
    return None if den.is_zero() else f.num(k) / den


class TestRationalFunctionOracle:
    @given(rational_functions, rational_functions, st.sampled_from(POINTS))
    def test_operations_agree_with_evaluation(self, f, g, k):
        fk, gk = value(f, k), value(g, k)
        assume(fk is not None and gk is not None)
        over_f_den = RationalFunction(g.num, f.den)
        hk = value(over_f_den, k)
        for h, expected in ((f + g, fk + gk), (f - g, fk - gk), (f * g, fk * gk), (-f, -fk),
                            (f + over_f_den, fk + hk), (f - over_f_den, fk - hk)):
            assert value(h, k) == expected
        if not gk.is_zero():
            assert value(f / g, k) == fk / gk

    @given(rational_functions, any_scalars, st.sampled_from(POINTS))
    def test_scalar_operands(self, f, c, k):
        fk = value(f, k)
        assume(fk is not None)
        for h, expected in ((f + c, fk + c), (c + f, c + fk), (f - c, fk - c), (c - f, c - fk),
                            (f * c, fk * c), (c * f, c * fk)):
            assert value(h, k) == expected
        if c != 0:
            assert value(f / c, k) == fk / c

    @given(rational_functions, st.integers(-3, 3), st.sampled_from(POINTS))
    def test_shift(self, f, t, k):
        assert value(f.shift(t), k) == value(f, k + t)

    @given(rational_functions, rational_functions)
    def test_zero_numerator_is_the_identity_criterion(self, f, g):
        # Numerators have degree <= 10 and there are at most 10 poles, so 25
        # points leave more common points than the difference has roots.
        common = [k for k in POINTS if value(f, k) is not None and value(g, k) is not None]
        agree = all(value(f, k) == value(g, k) for k in common)
        assert (f - g).num.is_zero() == agree
        if not g.num.is_zero():
            assert (f * g / g - f).num.is_zero()

    def test_identity_without_reduction(self):
        n = RationalFunction(Polynomial.x())
        f = (n * n - 1) / (n - 1)
        assert f.den == MultiPolynomial(Polynomial([-1, 1]))
        assert (f - (n + 1)).num.is_zero()
        assert not (f - n).num.is_zero()

    @given(rational_functions, nonzero_polys)
    def test_division_by_the_zero_function(self, f, den):
        with pytest.raises(ZeroDivisionError):
            f / RationalFunction(Polynomial(), den)
        with pytest.raises(ZeroDivisionError):
            f / 0
        with pytest.raises(ZeroDivisionError):
            RationalFunction(f.num, Polynomial())


class TestUnsupportedOperands:
    @pytest.mark.parametrize("other", [1.5, "a", None, [1]])
    def test_type_error(self, other):
        x = Polynomial.x()
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            assert getattr(x, name)(other) is NotImplemented
        for op in (lambda: x + other, lambda: other + x, lambda: x - other,
                   lambda: other - x, lambda: x * other, lambda: other * x):
            with pytest.raises(TypeError):
                op()

    def test_standard_message(self):
        with pytest.raises(TypeError, match="unsupported operand type"):
            Polynomial.x() + 1.5
        with pytest.raises(TypeError, match="unsupported operand type"):
            Polynomial.x() - "a"


# -- rational functions of n and alpha..delta, against evaluation at points --

small_polys = st.lists(scalars, min_size=0, max_size=3).map(Polynomial)
exponents = st.tuples(*[st.integers(0, 2)] * len(SYMBOLS))
multi_polys = st.dictionaries(exponents, small_polys, max_size=4).map(MultiPolynomial)
nonzero_multi_polys = multi_polys.filter(lambda m: not m.is_zero())
multi_functions = st.builds(RationalFunction, multi_polys, nonzero_multi_polys)
quad_points = st.tuples(*[scalars] * len(SYMBOLS))
n_points = st.one_of(st.integers(-6, 6), small_fractions)


# Each example multiplies dicts of polynomials: half the default count keeps the class near 2 s.
fewer_examples = settings(max_examples=50)


def value_at(f, n, point):
    """f at n and the symbols' values ``point``, or None where its denominator vanishes."""
    den = f.den(n, *point)
    return None if den.is_zero() else f.num(n, *point) / den


class TestMultivariateOracle:
    """Every operation agrees with ``ComplexRational`` arithmetic on the values at (n, point)."""

    @fewer_examples
    @given(multi_functions, multi_functions, n_points, quad_points)
    def test_operations_agree_with_evaluation(self, f, g, n, point):
        fv, gv = value_at(f, n, point), value_at(g, n, point)
        assume(fv is not None and gv is not None)
        for h, expected in ((f + g, fv + gv), (f - g, fv - gv), (f * g, fv * gv), (-f, -fv)):
            assert value_at(h, n, point) == expected
        if not gv.is_zero():
            assert value_at(f / g, n, point) == fv / gv

    @fewer_examples
    @given(multi_functions, any_scalars, n_points, quad_points)
    def test_scalar_operands(self, f, c, n, point):
        fv = value_at(f, n, point)
        assume(fv is not None)
        for h, expected in ((f + c, fv + c), (c - f, c - fv), (c * f, c * fv)):
            assert value_at(h, n, point) == expected

    @fewer_examples
    @given(multi_functions, st.integers(-3, 3), n_points, quad_points)
    def test_powers(self, f, k, n, point):
        fv = value_at(f, n, point)
        assume(fv is not None and (k >= 0 or not fv.is_zero()))
        assert value_at(f ** k, n, point) == fv ** k

    @fewer_examples
    @given(multi_functions, st.integers(-3, 3), n_points, quad_points)
    def test_shift_moves_n_only(self, f, t, n, point):
        assert value_at(f.shift(t), n, point) == value_at(f, n + t, point)

    @fewer_examples
    @given(multi_functions, n_points, quad_points)
    def test_instantiation_at_a_quad(self, f, n, point):
        try:
            g = f.instantiate(point)
        except ZeroDivisionError:
            assert f.den.in_n(point).is_zero()
            return
        assert all(e == (0,) * len(SYMBOLS) for e in g.num.terms)
        assert value_at(g, n, ()) == value_at(f, n, point)

    @given(n_points, quad_points)
    def test_symbols(self, n, point):
        n_rf = RationalFunction(Polynomial.x())
        for k, symbol in enumerate(RationalFunction.symbols()):
            assert value_at(symbol, n, point) == point[k]
            assert value_at(n_rf * symbol, n, point) == n * point[k]

    def test_a_symbol_needs_a_value(self):
        alpha = RationalFunction.symbols()[0]
        with pytest.raises(ValueError):
            alpha.num(0)
        assert not (alpha - alpha).num.terms

    def test_identity_for_every_conjugate_pairing(self):
        # a = alpha + i*beta and c = alpha - i*beta: (a + c)^2 - 4*a*c = (a - c)^2 = -4*beta^2.
        alpha, beta, _, _ = RationalFunction.symbols()
        i = ComplexRational(0, 1)
        a, c = alpha + i * beta, alpha - i * beta
        assert ((a + c) ** 2 - 4 * a * c + 4 * beta ** 2).num.is_zero()
        assert not ((a + c) ** 2 - 4 * a * c).num.is_zero()
