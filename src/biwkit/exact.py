"""Exact arithmetic substrate: Gaussian rationals and dense polynomials.

Scalars are pairs of ``fractions.Fraction`` (real and imaginary parts), so
every operation in this module is exact; no floating point enters here.
Polynomials are dense coefficient tuples in ascending powers with a single
canonical zero representation (the empty tuple).
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Iterable, Union

from .errors import NonzeroRemainder

ScalarLike = Union[int, Fraction, "ComplexRational"]


def fraction_to_str(q: Fraction) -> str:
    """Serialize a Fraction as "p" or "p/q" in lowest terms."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fraction_from_str(s: str) -> Fraction:
    """Parse "p/q", integer, or finite decimal strings exactly."""
    return Fraction(s.strip())


class ComplexRational:
    """A Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @staticmethod
    def coerce(v: ScalarLike) -> "ComplexRational":
        if isinstance(v, ComplexRational):
            return v
        if isinstance(v, (int, Fraction)):
            return ComplexRational(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to ComplexRational")

    @staticmethod
    def _try_coerce(v):
        if isinstance(v, ComplexRational):
            return v
        if isinstance(v, (int, Fraction)):
            return ComplexRational(v)
        return None

    def __add__(self, other):
        other = ComplexRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ComplexRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ComplexRational.coerce(other) - self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        other = ComplexRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ComplexRational.coerce(other)
        n2 = other.norm_squared()
        if n2 == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

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
        return ComplexRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        """Exact squared modulus re^2 + im^2."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = ComplexRational.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return fraction_to_str(self.re)
        if self.re == 0:
            return f"{fraction_to_str(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{fraction_to_str(self.re)}{sign}{fraction_to_str(abs(self.im))}*i"

    def to_json(self) -> dict:
        return {"re": fraction_to_str(self.re), "im": fraction_to_str(self.im)}

    @staticmethod
    def from_json(obj: dict) -> "ComplexRational":
        return ComplexRational(fraction_from_str(obj["re"]), fraction_from_str(obj["im"]))


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
        cs = [ComplexRational.coerce(c) for c in coeffs]
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
        return Polynomial([0] * k + [coeff])

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

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    @staticmethod
    def from_json(arr: list) -> "Polynomial":
        return Polynomial([ComplexRational.from_json(c) for c in arr])
