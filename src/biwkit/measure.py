"""High-precision certification of the continuous orthogonality relation.

The weight W(z) is a ratio of Gamma-function moduli; the Gram matrix of
the (real-coefficient) modified polynomials against W dz / (4*pi) on the
real line is computed by a nested trapezoid rule and compared with the
exact norms h0 * prod(u_k).

W is analytic in the strip |Im z| < d, d = 2*min(Re a + 1, Re b + 1,
Re c + 1/2, Re d + 1/2), and decays like exp(-pi |z|) times a power, so
the trapezoid rule on the real line converges like exp(-2*pi*d/h)
(Trefethen & Weideman, SIAM Review 56, 2014).  The rule samples z = j*h
on [-X, X], starting at h = 1; each halving of h evaluates only the new
odd nodes and reuses every earlier sample through running sums.  X is
grown until the integrand bound W(X) X^(2 n_max) is negligible, so the
truncation does not limit the accuracy.

The weight takes the four numerator factors from mpmath.loggamma and the
denominator from the identity |Gamma(1/2 + iz)|^2 = pi / cosh(pi z).  The
closed form of h0 is a ratio of seven Gamma values at sums of the
parameters, taken through log_gamma (mpmath.loggamma as well), so the
diagonal certificate compares a quadrature of W with h0 * prod(u_k) at
different Gamma arguments.

Precision is handled with mpmath work contexts: all entry points take a
``precision`` in significant decimal digits and run with guard digits
internally.

A note on the integrand: the conjugate-paired Bannai-Ito polynomials have
complex coefficients (their recurrence has purely imaginary diagonal
terms), so the literal bilinear integral against them is not orthogonal.
The family actually orthogonal against W is the modified one, obtained by
the exact rotation (-i)^n B_n(ix), which shares the same norm data
h0 * prod(u_k); this module integrates that family.
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from mpmath import loggamma, mp, mpc, mpf, pi

from .errors import InvalidParameters, PoleError, QuadratureNotConverged
from .exact import ComplexRational
from .polyfam import ParameterSet, bi_coefficients, q_polynomials

DEFAULT_PRECISION = 50
DEFAULT_TOL = Fraction(1, 10**8)
DEFAULT_TRUNCATION = 40
# Largest accepted starting L.  The outer interval [-X, X], hence the node
# count, grows with L; a larger L buys no accuracy and an unbounded one runs
# until it is killed.
MAX_TRUNCATION = 200
# Below this precision the fixed off-diagonal threshold (OFFDIAG_REL_EXPONENT)
# cannot be resolved.
MIN_PRECISION = 20
# Largest accepted precision.  Both the cost of a node and the node count grow
# with the digits: at n_max 6, 100 digits end in 5-17 s (half quad, narrow
# strip, truncation 200) and 200 digits in 16-57 s, while 1000 did not end
# in 30 s even at n_max 0.
MAX_PRECISION = 100
_GUARD_DPS = 10
# Truncations L and X grow in steps of _TAIL_STEP.
_TAIL_STEP = 5
# Significant digits of a report's summary figures (errors, residuals, tolerances).
SUMMARY_DIGITS = 6


@dataclass(frozen=True)
class Approx:
    """An approximate number in a report, printed to ``digits`` significant digits."""

    value: mpf
    digits: int


def _is_nonpositive_integer(z) -> bool:
    if mp.im(z) != 0:
        return False
    x = mp.re(z)
    return x <= 0 and x == mp.floor(x)


def log_gamma(z, precision: Optional[int] = None):
    """Principal-branch log-Gamma at the requested decimal precision.

    mpmath.loggamma evaluated with five guard digits; raises PoleError at
    nonpositive integers.
    """
    prec = precision if precision is not None else mp.dps
    with mp.workdps(prec + 5):
        z = mpc(z)
        if _is_nonpositive_integer(z):
            raise PoleError(f"log_gamma pole at z = {z}")
        return loggamma(z)


def _to_mpf(q) -> mpf:
    """An mpf at the working precision; a Fraction is divided in mpf."""
    if isinstance(q, Fraction):
        return mpf(q.numerator) / mpf(q.denominator)
    return mpf(q)


def _param_to_mpc(v: ComplexRational) -> mpc:
    return mpc(_to_mpf(v.re), _to_mpf(v.im))


def _check_weight_hypotheses(p: ParameterSet):
    if not p.is_conjugate_paired():
        raise InvalidParameters("parameters must be conjugate-paired: {c,d} = {conj(a),conj(b)}")
    for name in ("a", "b"):
        v = getattr(p, name)
        if v.re <= 0 or v.im <= 0:
            raise InvalidParameters(f"parameter {name} must have positive real and imaginary "
                                    "parts: every --quad entry must be positive")


def check_gram_inputs(p: ParameterSet, n_max: int, precision: int,
                      truncation: Optional[int], tol) -> None:
    """Raise InvalidParameters unless ``orthogonality_gram`` accepts these inputs.

    Each message names the command-line flag that sets the value; a
    truncation of None selects DEFAULT_TRUNCATION.
    """
    _check_weight_hypotheses(p)
    if n_max < 0:
        raise InvalidParameters(f"--n-max must be >= 0, got {n_max}")
    if not MIN_PRECISION <= precision <= MAX_PRECISION:
        raise InvalidParameters(
            f"--precision must be in {MIN_PRECISION}..{MAX_PRECISION} digits, got {precision}")
    if truncation is not None and not 1 <= truncation <= MAX_TRUNCATION:
        raise InvalidParameters(f"--truncation must be in 1..{MAX_TRUNCATION}, got {truncation}")
    # A tolerance of 1 or more makes the diagonal and ratio checks vacuous.
    if not 0 < tol < 1:
        raise InvalidParameters(f"--tol must be in (0, 1), got {mp.nstr(_to_mpf(tol), 6)}")


def _weight(z, pa, pb, pc, pd):
    """W(z) for real z: |Gamma products|^2, with 1/|Gamma(1/2+iz)|^2 = cosh(pi z)/pi."""
    izh = mpc(0, z / 2)
    half = mpf(1) / 2
    s = (
        mp.re(loggamma(pa + izh + 1))
        + mp.re(loggamma(pb + izh + 1))
        + mp.re(loggamma(pc + izh + half))
        + mp.re(loggamma(pd + izh + half))
    )
    return mp.exp(2 * s) * mp.cosh(pi * z) / pi


def weight_W(z, p: ParameterSet, precision: int = DEFAULT_PRECISION):
    """The positive weight W(z) at real z."""
    _check_weight_hypotheses(p)
    with mp.workdps(precision + _GUARD_DPS):
        val = +_weight(_to_mpf(z), *(_param_to_mpc(getattr(p, n)) for n in "abcd"))
    return val


def h0(p: ParameterSet, precision: int = DEFAULT_PRECISION):
    """Normalization h0: the Gamma-ratio value of the n = 0 integral."""
    _check_weight_hypotheses(p)
    with mp.workdps(precision + _GUARD_DPS):
        a, b, c, d = (_param_to_mpc(getattr(p, n)) for n in "abcd")
        three_half = mpf(3) / 2
        s = (
            log_gamma(a + b + three_half, mp.dps)
            + log_gamma(a + c + 1, mp.dps)
            + log_gamma(b + c + 1, mp.dps)
            + log_gamma(a + d + 1, mp.dps)
            + log_gamma(b + d + 1, mp.dps)
            + log_gamma(c + d + three_half, mp.dps)
            - log_gamma(a + b + c + d + 2, mp.dps)
        )
        val = mp.exp(s)
        # Conjugate pairing makes the Gamma factors pair off; the value is real.
        if abs(mp.im(val)) > abs(val) * mpf(10) ** (-(precision - 2)):
            raise InvalidParameters("h0 is not real; parameters are not conjugate-paired")
        result = +mp.re(val)
    return result


# Off-diagonal entries of an exactly orthogonal family should vanish to
# quadrature accuracy; this relative threshold is far above the rounding
# floor at the default 50-digit precision.
OFFDIAG_REL_EXPONENT = -20


@dataclass
class OrthogonalityReport:
    n_max: int
    gram: List[List[mpf]]
    expected_diag: List[mpf]
    max_offdiag_rel: mpf
    max_diag_rel_err: mpf
    max_ratio_err: mpf
    truncation_L: int
    panels: int
    l_stability: mpf
    precision_digits: int
    tol: mpf

    @property
    def passed(self) -> bool:
        return bool(
            self.max_offdiag_rel <= mpf(10) ** OFFDIAG_REL_EXPONENT
            and self.max_diag_rel_err <= self.tol
            and self.max_ratio_err <= self.tol
        )

    def to_json(self) -> dict:
        d, s = self.precision_digits, SUMMARY_DIGITS
        return {
            "n_max": self.n_max,
            "gram": [[Approx(v, d) for v in row] for row in self.gram],
            "expected_diag": [Approx(v, d) for v in self.expected_diag],
            "max_offdiag_rel": Approx(self.max_offdiag_rel, s),
            "max_diag_rel_err": Approx(self.max_diag_rel_err, s),
            "max_ratio_err": Approx(self.max_ratio_err, s),
            "truncation_L": self.truncation_L,
            "panels": self.panels,
            "l_stability": Approx(self.l_stability, s),
            "precision_digits": d,
            "tol": Approx(self.tol, s),
            "pass": self.passed,
        }


def _strip_halvings(p: ParameterSet, dps: int) -> int:
    """Halvings of h = 1 down to the a-priori step 2*pi*d / (ln 10 * dps).

    At that step the trapezoid error exp(-2*pi*d/h) reaches 10^-dps, where
    d is the distance from the real line to the nearest pole of W.
    """
    d = 2 * min(p.a.re + 1, p.b.re + 1, p.c.re + Fraction(1, 2), p.d.re + Fraction(1, 2))
    step = 2 * _math.pi * float(d) / (_math.log(10) * dps)
    return max(0, _math.ceil(_math.log2(1 / step)))


def _accumulate(acc, vals, scale):
    """acc[n][m] += scale * vals[n] * vals[m] on the upper triangle."""
    for n, vn in enumerate(vals):
        vn = vn * scale
        row = acc[n]
        for m in range(n, len(vals)):
            row[m] += vn * vals[m]


def orthogonality_gram(
    n_max: int,
    p: ParameterSet,
    tol=DEFAULT_TOL,
    precision: int = DEFAULT_PRECISION,
    truncation: Optional[int] = None,
) -> OrthogonalityReport:
    """Gram matrix of the modified family against W dz / (4*pi).

    Nested trapezoid rule on [-X, X] (see the module docstring), halving h
    until the matrix changes by at most min(tol/10, 10^(OFFDIAG_REL_EXPONENT-1))
    * |h0| from one level to the next; QuadratureNotConverged is raised one
    halving past the a-priori step.  L is grown from ``truncation`` until
    the tail bound falls to tol * 1e-3 * |h0|; the report carries the change
    when the interval is cut from [-X, X] to [-L, L].  That change certifies
    tail convergence: above tol/10 it raises QuadratureNotConverged, since
    the tail test at the single point L missed a later rise of W.
    """
    check_gram_inputs(p, n_max, precision, truncation, tol)
    tol = _to_mpf(tol)

    polys = q_polynomials(n_max, p)
    for n, poly in enumerate(polys):
        if not poly.has_real_coefficients():
            raise InvalidParameters(f"polynomial {n} has non-real coefficients")

    data = bi_coefficients(n_max, p)
    for n in range(1, n_max + 1):
        if not data.u_mod[n].is_real():
            raise InvalidParameters(f"u_{n} is not real")

    with mp.workdps(precision + _GUARD_DPS):
        params = [_param_to_mpc(getattr(p, n)) for n in "abcd"]
        h0_val = h0(p, mp.dps)
        expected = [h0_val]
        for n in range(1, n_max + 1):
            expected.append(expected[-1] * _to_mpf(data.u_mod[n].re))

        polys_mpf = [[_to_mpf(c.re) for c in poly.coeffs] for poly in polys]

        def tail(x):
            """Bound on the integrand at |z| = x: W decays like exp(-pi |z|)."""
            return _weight(mpf(x), *params) * mpf(x) ** (2 * n_max)

        L = int(truncation) if truncation is not None else DEFAULT_TRUNCATION
        while tail(L) > tol * mpf(10) ** (-3) * abs(h0_val):
            L += _TAIL_STEP
        # Past X the integrand is negligible, so the half-weighted endpoints
        # leave no O(h^2) floor.
        X = L + _TAIL_STEP
        while tail(X) > min(tol * mpf(10) ** (-3), mpf(10) ** -22) * abs(h0_val):
            X += _TAIL_STEP

        k = n_max + 1
        full = [[mpf(0)] * k for _ in range(k)]
        inner = [[mpf(0)] * k for _ in range(k)]  # nodes with |z| <= L

        def add(z, endpoint_weight):
            w = _weight(z, *params)
            vals = []
            for coeffs in polys_mpf:
                v = mpf(0)
                for c in reversed(coeffs):
                    v = v * z + c
                vals.append(v)
            _accumulate(full, vals, w * endpoint_weight)
            if abs(z) < L:
                _accumulate(inner, vals, w)
            elif abs(z) == L:
                _accumulate(inner, vals, w / 2)

        threshold = min(tol / 10, mpf(10) ** (OFFDIAG_REL_EXPONENT - 1)) * abs(h0_val)
        max_halvings = _strip_halvings(p, mp.dps) + 1
        prev = None
        for level in range(max_halvings + 1):
            if level == 0:
                for j in range(-X, X + 1):
                    add(mpf(j), mpf(1) / 2 if abs(j) == X else 1)
            else:
                # The new nodes are the odd multiples of h = 2^-level.
                for j in range(-X * 2 ** (level - 1), X * 2 ** (level - 1)):
                    add(mp.ldexp(mpf(2 * j + 1), -level), 1)
            h = mp.ldexp(mpf(1), -level)
            current = [[h * v for v in row] for row in full]
            if prev is not None and max(
                abs(current[n][m] - prev[n][m]) for n in range(k) for m in range(n, k)
            ) <= threshold:
                break
            prev = current
        else:
            raise QuadratureNotConverged(
                f"Gram matrix did not stabilize after {max_halvings} halvings of the step"
            )

        four_pi = 4 * pi
        gram = [[current[min(n, m)][max(n, m)] / four_pi for m in range(k)] for n in range(k)]
        gram_l = [[h * inner[min(n, m)][max(n, m)] / four_pi for m in range(k)]
                  for n in range(k)]

        scale = abs(gram[0][0])
        max_off = mpf(0)
        max_diag = mpf(0)
        for n in range(k):
            for m in range(k):
                if n == m:
                    err = abs(gram[n][n] - expected[n]) / abs(expected[n])
                    max_diag = max(max_diag, err)
                else:
                    max_off = max(max_off, abs(gram[n][m]) / scale)
        max_ratio = mpf(0)
        for n in range(1, k):
            u_val = _to_mpf(data.u_mod[n].re)
            max_ratio = max(max_ratio, abs(gram[n][n] / gram[n - 1][n - 1] - u_val) / u_val)
        l_stab = max(
            abs(gram[n][m] - gram_l[n][m]) / scale for n in range(k) for m in range(k)
        )
        if l_stab > tol / 10:
            raise QuadratureNotConverged(
                f"cutting the Gram to [-L, L], L = {L}, changes it by {mp.nstr(l_stab, 6)} "
                f"relative to its (0, 0) entry: W rises again past L"
            )

        report = OrthogonalityReport(
            n_max=n_max,
            gram=[[+v for v in row] for row in gram],
            expected_diag=[+v for v in expected],
            max_offdiag_rel=+max_off,
            max_diag_rel_err=+max_diag,
            max_ratio_err=+max_ratio,
            truncation_L=L,
            panels=2 * X * 2 ** level,
            l_stability=+l_stab,
            precision_digits=precision,
            tol=+tol,
        )
    return report
