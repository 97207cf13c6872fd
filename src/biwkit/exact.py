"""Exact arithmetic substrate: Gaussian rationals and dense polynomials.

Scalars are Gaussian rationals (x + y*i)/d held as three ints in lowest
terms; each operation is integer arithmetic followed by one gcd, so every
operation in this module is exact and no floating point enters here.
Polynomials are dense coefficient tuples in ascending powers with a single
canonical zero representation (the empty tuple).
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd as _gcd, lcm as _lcm
from typing import Iterable, Union

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

    def norm_squared(self) -> Fraction:
        """Exact squared modulus re^2 + im^2."""
        return Fraction(self._x * self._x + self._y * self._y, self._d * self._d)

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
I = ComplexRational(0, 1)


class Polynomial:
    """Dense univariate polynomial over ComplexRational, ascending powers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [c if type(c) is ComplexRational else ComplexRational.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial([1])

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial([0, 1])

    @staticmethod
    def monomial(k: int, coeff: ScalarLike = 1) -> "Polynomial":
        return Polynomial([ZERO] * k + [coeff])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> ComplexRational:
        if not self.coeffs:
            return ZERO
        return self.coeffs[-1]

    def coefficient(self, k: int) -> ComplexRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = Polynomial([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            c = ComplexRational.coerce(other)
            return Polynomial([c * a for a in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def exact_div(self, d: "Polynomial") -> "Polynomial":
        """Return q with self = d*q; raise NonzeroRemainder otherwise."""
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Polynomial()
        rem = list(self.coeffs)
        dd = d.degree
        lead = d.coeffs[-1]
        if len(rem) - 1 < dd:
            raise NonzeroRemainder("divisor degree exceeds dividend degree", remainder=self)
        qcoeffs = [ZERO] * (len(rem) - dd)
        for k in range(len(qcoeffs) - 1, -1, -1):
            c = rem[k + dd] / lead
            qcoeffs[k] = c
            if not c.is_zero():
                for j, dc in enumerate(d.coeffs):
                    rem[k + j] = rem[k + j] - c * dc
        if any(not c.is_zero() for c in rem[:dd]):
            raise NonzeroRemainder(
                "polynomial division left a nonzero remainder",
                remainder=Polynomial(rem[:dd]),
            )
        return Polynomial(qcoeffs)

    def affine_substitute(self, s: ScalarLike, t: ScalarLike) -> "Polynomial":
        """Return the polynomial x -> p(s*x + t), exactly.

        t = 0 scales the coefficients by powers of s; otherwise Horner's
        rule runs on a plain coefficient list.
        """
        s, t = ComplexRational.coerce(s), ComplexRational.coerce(t)
        if t.is_zero():
            out, power = [], ONE
            for c in self.coeffs:
                out.append(c * power)
                power = power * s
            return Polynomial(out)
        acc = []
        for c in reversed(self.coeffs):
            # acc <- acc * (s*x + t) + c
            nxt = [ZERO] + [s * a for a in acc]
            for k, a in enumerate(acc):
                nxt[k] = nxt[k] + t * a
            nxt[0] = nxt[0] + c
            acc = nxt
        return Polynomial(acc)

    def __call__(self, z: ScalarLike) -> ComplexRational:
        z = ComplexRational.coerce(z)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def has_real_coefficients(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"
