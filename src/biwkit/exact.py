"""Exact arithmetic substrate: Gaussian rationals, polynomials and rational functions.

Scalars are Gaussian rationals (x + y*i)/d held as three ints in lowest
terms; each scalar operation is integer arithmetic followed by one gcd.
A polynomial holds Gaussian-integer numerators over one denominator, in
ascending powers; each polynomial operation is integer arithmetic
followed by one content gcd for the whole result.  A multivariate
polynomial in n and the real parameters alpha, beta, gamma, delta is a
sparse dict from their exponents to polynomials in n.  A rational
function is one multivariate polynomial over another, never reduced: an
identity in n, or in n and the parameters, holds iff a difference has the
zero numerator; a function of n alone is the case with no parameter.  No
floating point enters here.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd as _gcd, lcm as _lcm
from typing import Callable, Iterable, Union

from .errors import NonzeroRemainder

ScalarLike = Union[int, Fraction, "ComplexRational"]


class ComplexRational:
    """A Gaussian rational (x + y*i)/d held as three ints.

    The form is canonical: d > 0 and gcd(x, y, d) = 1, so zero is (0, 0, 1)
    and equal values have equal fields.  ``re`` and ``im`` are the parts as
    ``Fraction``; the arithmetic itself never builds one.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        """Accept for each part whatever ``Fraction()`` accepts."""
        if type(re) is int and type(im) is int:
            x, y, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            q, s = re.denominator, im.denominator
            # Over the lcm of two reduced denominators, gcd(x, y, d) = 1.
            d = _lcm(q, s)
            x, y = re.numerator * (d // q), im.numerator * (d // s)
        _set_x(self, x)
        _set_y(self, y)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    @staticmethod
    def coerce(v: ScalarLike) -> "ComplexRational":
        if type(v) is ComplexRational:
            return v
        other = _from_rational(v)
        if other is None:
            raise TypeError(f"cannot coerce {type(v).__name__} to ComplexRational")
        return other

    def __add__(self, other):
        if type(other) is not ComplexRational:
            other = _from_rational(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._x + other._x, self._y + other._y, d)
        return _reduced(self._x * f + other._x * d, self._y * f + other._y * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ComplexRational:
            other = _from_rational(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._x - other._x, self._y - other._y, d)
        return _reduced(self._x * f - other._x * d, self._y * f - other._y * d, d * f)

    def __rsub__(self, other):
        return ComplexRational.coerce(other) - self

    def __neg__(self):
        return _make(-self._x, -self._y, self._d)

    def __mul__(self, other):
        if type(other) is not ComplexRational:
            other = _from_rational(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._x, self._y, other._x, other._y
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ComplexRational.coerce(other)
        a, b, c, e = self._x, self._y, other._x, other._y
        n2 = c * c + e * e
        if n2 == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        # (a+bi)/d / ((c+ei)/f) = (a+bi)(c-ei)*f / (d*(c^2+e^2))
        f = other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n2)

    def __rtruediv__(self, other):
        return ComplexRational.coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k < 0:
            return ONE / (self ** (-k))
        result, base = ONE, self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "ComplexRational":
        return _make(self._x, -self._y, self._d)

    def is_zero(self) -> bool:
        return not self._x and not self._y

    def is_real(self) -> bool:
        return not self._y

    def __eq__(self, other):
        if type(other) is ComplexRational:
            return self._x == other._x and self._y == other._y and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._y and self._x == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        if not self._y:
            return hash(Fraction(self._x, self._d))
        return hash((self._x, self._y, self._d))

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.is_real():
            return str(self.re)
        if not self._x:
            return f"{self.im}*i"
        sign = "+" if self._y > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


# The slot setters bypass __setattr__, which keeps instances immutable to callers.
_new = object.__new__
_set_x = ComplexRational._x.__set__
_set_y = ComplexRational._y.__set__
_set_d = ComplexRational._d.__set__


def _make(x: int, y: int, d: int) -> ComplexRational:
    """Build (x + y*i)/d from fields already in canonical form."""
    z = _new(ComplexRational)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


def _reduced(x: int, y: int, d: int) -> ComplexRational:
    """Build (x + y*i)/d for d > 0, dividing out gcd(x, y, d)."""
    g = _gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    # _make inlined: every arithmetic result passes here, and the extra
    # call costs a few percent of a multiplication.
    z = _new(ComplexRational)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


def _from_rational(v):
    """An int or Fraction as a ComplexRational; None for any other type."""
    if isinstance(v, int):
        return _make(int(v), 0, 1)
    if isinstance(v, Fraction):
        return _make(v.numerator, 0, v.denominator)
    return None


_COMPLEX_RE = _re.compile(
    r"""^\s*
        (?P<re>[+-]?\d+(?:/\d+|\.\d+)?)?          # real part
        (?P<im>(?:[+-]|^)(?:\d+(?:/\d+|\.\d+)?)?\*?i)?   # imaginary part, ends in i
        \s*$""",
    _re.VERBOSE,
)


def parse_complex_rational(s: str) -> ComplexRational:
    """Parse strings like "3/2", "-0.25", "1/2+1/3i", "-i", "2i"."""
    m = _COMPLEX_RE.match(s.strip())
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"cannot parse complex rational: {s!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_part = Fraction(0)
    if m.group("im"):
        tok = m.group("im").rstrip("i").rstrip("*")
        if tok in ("", "+"):
            im_part = Fraction(1)
        elif tok == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(tok)
    return ComplexRational(re_part, im_part)


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
HALF = ComplexRational(Fraction(1, 2))
QUARTER = ComplexRational(Fraction(1, 4))
I = ComplexRational(0, 1)

_SCALARS = (int, Fraction, ComplexRational)


class Polynomial:
    """Dense univariate polynomial over the Gaussian rationals, ascending powers.

    Held as Gaussian-integer numerators over one denominator: coefficient k
    is (xs[k] + ys[k]*i)/d.  The form is canonical: d > 0,
    gcd(d, *xs, *ys) = 1 and the last coefficient is nonzero, so zero is
    ((), (), 1) and equal polynomials have equal fields.  ``coeffs`` builds
    the coefficients as ``ComplexRational`` values on demand.
    """

    __slots__ = ("_xs", "_ys", "_d")

    def __new__(cls, coeffs: Iterable[ScalarLike] = ()):
        cs = [ComplexRational.coerce(c) for c in coeffs]
        d = _lcm(*(c._d for c in cs))
        return _canonical([c._x * (d // c._d) for c in cs], [c._y * (d // c._d) for c in cs], d)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as canonical ``ComplexRational`` values."""
        return tuple(_reduced(x, y, self._d) for x, y in zip(self._xs, self._ys))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.monomial(0)

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial.monomial(1)

    @staticmethod
    def monomial(k: int, coeff: ScalarLike = ONE) -> "Polynomial":
        c = ComplexRational.coerce(coeff)
        return _canonical([0] * k + [c._x], [0] * k + [c._y], c._d)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._xs) - 1

    def is_zero(self) -> bool:
        return not self._xs

    def coefficient(self, k: int) -> ComplexRational:
        if 0 <= k < len(self._xs):
            return _reduced(self._xs[k], self._ys[k], self._d)
        return ZERO

    def __add__(self, other):
        return _sum(1, self, 1, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _sum(1, self, -1, other)

    def __rsub__(self, other):
        return _sum(-1, self, 1, other)

    def __neg__(self):
        return _canonical([-x for x in self._xs], [-y for y in self._ys], self._d)

    def __mul__(self, other):
        if type(other) is Polynomial:
            pairs = enumerate(zip(self._xs, self._ys))
            return _combination([(a, b, k, other) for k, (a, b) in pairs if a or b], self._d)
        if not isinstance(other, _SCALARS):
            return NotImplemented
        c = ComplexRational.coerce(other)
        return _combination([(c._x, c._y, 0, self)], c._d)

    __rmul__ = __mul__

    @staticmethod
    def combination(terms) -> "Polynomial":
        """The sum of c * x^k * p over the terms (c, k, p), ComplexRational c, reduced once."""
        d = _lcm(*(c._d for c, _, _ in terms))
        return _combination([(c._x * (d // c._d), c._y * (d // c._d), k, p)
                             for c, k, p in terms], d)

    def linear_map(self, image_of: Callable[[int], "Polynomial"]) -> "Polynomial":
        """The sum of p_k * image_of(k): p under the linear map x^k -> image_of(k)."""
        pairs = enumerate(zip(self._xs, self._ys))
        return _combination([(a, b, 0, image_of(k)) for k, (a, b) in pairs if a or b], self._d)

    def exact_div(self, d: "Polynomial") -> "Polynomial":
        """Return q with self = d*q; raise NonzeroRemainder otherwise.

        Synthetic division on the numerators.  They are first scaled by
        |lead|^m * e, where m is the number of quotient terms and e the
        denominator of d, so each quotient numerator
        rem_top * conj(lead) / |lead|^2 is a Gaussian integer.
        """
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        dxs, dys = d._xs, d._ys
        dd = len(dxs) - 1
        m = len(self._xs) - dd
        if m <= 0:
            raise NonzeroRemainder("divisor degree exceeds dividend degree", remainder=self)
        lx, ly = dxs[-1], dys[-1]
        nl = lx * lx + ly * ly
        scale = nl ** m * d._d
        rx = [x * scale for x in self._xs]
        ry = [y * scale for y in self._ys]
        qx, qy = [0] * m, [0] * m
        for k in range(m - 1, -1, -1):
            a, b = rx[k + dd], ry[k + dd]
            cx, cy = (a * lx + b * ly) // nl, (b * lx - a * ly) // nl
            qx[k], qy[k] = cx, cy
            if cx or cy:
                for j, (ex, ey) in enumerate(zip(dxs, dys), k):
                    rx[j] -= cx * ex - cy * ey
                    ry[j] -= cx * ey + cy * ex
        if any(rx[:dd]) or any(ry[:dd]):
            raise NonzeroRemainder("polynomial division left a nonzero remainder",
                                   remainder=_canonical(rx[:dd], ry[:dd], self._d * scale))
        return _canonical(qx, qy, self._d * nl ** m)

    def affine_substitute(self, s: ScalarLike, t: ScalarLike, scale=ONE) -> "Polynomial":
        """Return the polynomial x -> scale * p(s*x + t), exactly.

        With s*x + t = (S*x + T)/D and scale = G/F for Gaussian integers S, T,
        G, the result times d * D^deg * F is the sum of G c_k (S*x + T)^k
        D^(deg-k) over the numerators c_k: for t = 0 each is scaled by G S^k
        D^(deg-k), otherwise Horner's rule runs on (S*x + T) in integers.
        """
        s, t, scale = (ComplexRational.coerce(v) for v in (s, t, scale))
        if not self._xs:
            return self
        D = _lcm(s._d, t._d)
        sx, sy = s._x * (D // s._d), s._y * (D // s._d)
        tx, ty = t._x * (D // t._d), t._y * (D // t._d)
        deg = len(self._xs) - 1
        if not tx and not ty:
            xs, ys = [], []
            px, py = scale._x, scale._y  # G S^k
            for k, (x, y) in enumerate(zip(self._xs, self._ys)):
                m = D ** (deg - k)
                a, b = px * m, py * m
                xs.append(a * x - b * y)
                ys.append(a * y + b * x)
                px, py = px * sx - py * sy, px * sy + py * sx
            return _canonical(xs, ys, self._d * D ** deg * scale._d)
        xs, ys, mx, my = [], [], scale._x, scale._y
        for x, y in zip(reversed(self._xs), reversed(self._ys)):
            # acc <- acc * (S*x + T) + c * G * D^j after j steps
            nx = [0] + [sx * a - sy * b for a, b in zip(xs, ys)]
            ny = [0] + [sx * b + sy * a for a, b in zip(xs, ys)]
            for j, (a, b) in enumerate(zip(xs, ys)):
                nx[j] += tx * a - ty * b
                ny[j] += tx * b + ty * a
            nx[0] += x * mx - y * my
            ny[0] += x * my + y * mx
            xs, ys, mx, my = nx, ny, mx * D, my * D
        return _canonical(xs, ys, self._d * D ** deg * scale._d)

    def __call__(self, z: ScalarLike) -> ComplexRational:
        z = ComplexRational.coerce(z)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def has_real_coefficients(self) -> bool:
        return not any(self._ys)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._xs == other._xs and self._ys == other._ys and self._d == other._d
        return NotImplemented

    def __hash__(self):
        return hash((self._xs, self._ys, self._d))

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"


_set_xs = Polynomial._xs.__set__
_set_ys = Polynomial._ys.__set__
_set_pd = Polynomial._d.__set__


def _canonical(xs: list, ys: list, d: int) -> Polynomial:
    """The polynomial with numerators xs + ys*i over d > 0, in canonical form.

    Drops trailing zeros and divides out the content gcd(d, *xs, *ys): the
    one gcd of each polynomial operation.
    """
    while xs and not xs[-1] and not ys[-1]:
        xs.pop()
        ys.pop()
    g = _gcd(d, *xs, *ys)
    if g != 1:
        xs, ys, d = [v // g for v in xs], [v // g for v in ys], d // g
    p = _new(Polynomial)
    _set_xs(p, tuple(xs))
    _set_ys(p, tuple(ys))
    _set_pd(p, d)
    return p


def _combination(terms, d: int) -> Polynomial:
    """The sum of (a + b*i) * x^k * p / d over the terms (a, b, k, p).

    Each p is brought to the lcm e of the denominators, the products are
    summed in integers, and the result over d*e is reduced once.
    """
    e = n = 1
    for _, _, k, p in terms:
        if p._d != e:
            e = _lcm(e, p._d)
        n = max(n, k + len(p._xs))
    xs, ys = [0] * n, [0] * n
    for a, b, j, p in terms:
        m = e // p._d
        if m != 1:
            a, b = a * m, b * m
        for x, y in zip(p._xs, p._ys):
            xs[j] += a * x - b * y
            ys[j] += a * y + b * x
            j += 1
    return _canonical(xs, ys, d * e)


def _sum(a: int, p: Polynomial, b: int, q) -> Polynomial:
    """a*p + b*q for a polynomial or scalar q; NotImplemented for any other q."""
    if type(q) is not Polynomial:
        if not isinstance(q, _SCALARS):
            return NotImplemented
        q = Polynomial.monomial(0, q)
    return _combination(((a, 0, 0, p), (b, 0, 0, q)), 1)


_POLY_ONE = Polynomial.one()

# The symbols of a ``MultiPolynomial``, in the order of its exponent tuples.
SYMBOLS = ("alpha", "beta", "gamma", "delta")
_CONSTANT = (0,) * len(SYMBOLS)


class MultiPolynomial:
    """A sparse polynomial in n and the symbols alpha, beta, gamma, delta.

    ``terms`` maps each exponent tuple (i, j, k, l) of alpha^i beta^j gamma^k
    delta^l to its coefficient, a nonzero ``Polynomial`` in n, so zero is the
    empty dict and a polynomial in n alone is its one entry at (0, 0, 0, 0).
    Every product of two coefficients is a ``Polynomial.__mul__``, and the
    coefficients that meet at one exponent are summed by one
    ``Polynomial.combination``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        """``terms`` is a ``Polynomial`` in n, or a dict as above; zero coefficients are dropped."""
        if type(terms) is Polynomial:
            terms = {_CONSTANT: terms}
        self.terms = {e: p for e, p in terms.items() if not p.is_zero()}

    @staticmethod
    def symbol(k: int) -> "MultiPolynomial":
        """The symbol ``SYMBOLS[k]``."""
        return MultiPolynomial({tuple(int(j == k) for j in range(len(SYMBOLS))): _POLY_ONE})

    def is_zero(self) -> bool:
        return not self.terms

    @staticmethod
    def combination(terms) -> "MultiPolynomial":
        """The sum of c * m over the terms (c, m), ComplexRational c."""
        return _collected((e, (c, 0, p)) for c, m in terms for e, p in m.terms.items())

    def __mul__(self, other):
        if type(other) is MultiPolynomial:
            return _collected((tuple(map(int.__add__, e, f)), (ONE, 0, p * q))
                              for e, p in self.terms.items() for f, q in other.terms.items())
        c = ComplexRational.coerce(other)
        return MultiPolynomial({e: p * c for e, p in self.terms.items()})

    def shift(self, t: ScalarLike) -> "MultiPolynomial":
        """The polynomial with n replaced by n + t."""
        return MultiPolynomial({e: p.affine_substitute(1, t) for e, p in self.terms.items()})

    def in_n(self, point=()) -> Polynomial:
        """The polynomial in n left when the symbols take the values ``point``, in the order
        of ``SYMBOLS``; with no point, ``self`` must be a polynomial in n alone."""
        if len(point) != len(SYMBOLS) and any(e != _CONSTANT for e in self.terms):
            raise ValueError(f"a polynomial in the symbols needs a value for each of {SYMBOLS}")
        values = [ComplexRational.coerce(v) for v in point]
        return Polynomial.combination(
            [(_monomial(values, e), 0, p) for e, p in self.terms.items()])

    def __call__(self, n: ScalarLike, *point) -> ComplexRational:
        """The value at n and, for a polynomial in the symbols, at ``point``."""
        return self.in_n(point)(n)

    def __eq__(self, other):
        if isinstance(other, MultiPolynomial):
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        return f"MultiPolynomial({self.terms!r})"


def _collected(pairs) -> MultiPolynomial:
    """The MultiPolynomial whose coefficient at e sums, by ``Polynomial.combination``, the
    terms (c, k, p) paired with e."""
    by_exponent = {}
    for e, term in pairs:
        by_exponent.setdefault(e, []).append(term)
    return MultiPolynomial({e: ts[0][2] if len(ts) == 1 and ts[0][0] is ONE
                            else Polynomial.combination(ts) for e, ts in by_exponent.items()})


def _monomial(values, exponents) -> ComplexRational:
    """The product of values[j] ** exponents[j]."""
    out = ONE
    for v, k in zip(values, exponents):
        if k:
            out = out * v ** k
    return out


_MULTI_ONE = MultiPolynomial(_POLY_ONE)
_MINUS_ONE = -ONE


def _times(p: MultiPolynomial, q: MultiPolynomial) -> MultiPolynomial:
    """p*q, with no product taken when a factor is the shared one."""
    return q if p is _MULTI_ONE else p if q is _MULTI_ONE else p * q


class RationalFunction:
    """num/den for ``MultiPolynomial`` values, never reduced: zero iff ``num`` is zero.

    A ``Polynomial`` given for either is the polynomial in n alone, so a
    rational function of n is the special case whose parts have no symbol.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_MULTI_ONE):
        if type(num) is Polynomial:
            num = MultiPolynomial(num)
        if type(den) is Polynomial:
            den = MultiPolynomial(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = num, den

    @staticmethod
    def symbols() -> tuple:
        """The symbols alpha, beta, gamma, delta of ``SYMBOLS``, as rational functions."""
        return tuple(RationalFunction(MultiPolynomial.symbol(k)) for k in range(len(SYMBOLS)))

    def _combine(self, a: ComplexRational, other, b: ComplexRational) -> "RationalFunction":
        """a*self + b*other; over equal denominators only the numerators are added."""
        if type(other) is not RationalFunction:
            c = ComplexRational.coerce(other)
            return RationalFunction(MultiPolynomial.combination(((a, self.num), (b * c, self.den))),
                                    self.den)
        if self.den == other.den:
            return RationalFunction(MultiPolynomial.combination(((a, self.num), (b, other.num))),
                                    self.den)
        return RationalFunction(
            MultiPolynomial.combination(((a, self.num * other.den), (b, other.num * self.den))),
            self.den * other.den)

    def __add__(self, other):
        return self._combine(ONE, other, ONE)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(ONE, other, _MINUS_ONE)

    def __rsub__(self, other):
        return self._combine(_MINUS_ONE, other, ONE)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if type(other) is RationalFunction:
            return RationalFunction(_times(self.num, other.num), _times(self.den, other.den))
        return RationalFunction(self.num * ComplexRational.coerce(other), self.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is RationalFunction:
            return self * RationalFunction(other.den, other.num)
        return self * (1 / ComplexRational.coerce(other))

    def __pow__(self, k: int) -> "RationalFunction":
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k < 0:
            return RationalFunction(self.den, self.num) ** -k
        result = RationalFunction(_MULTI_ONE)
        for _ in range(k):
            result = result * self
        return result

    def shift(self, t: ScalarLike) -> "RationalFunction":
        """The function with n replaced by n + t."""
        return RationalFunction(self.num.shift(t), self.den.shift(t))

    def instantiate(self, point) -> "RationalFunction":
        """The function of n left when the symbols take the values ``point``, in the order of
        ``SYMBOLS``; raises ZeroDivisionError if the denominator vanishes there."""
        return RationalFunction(self.num.in_n(point), self.den.in_n(point))
