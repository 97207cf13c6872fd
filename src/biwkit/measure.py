"""High-precision certification of the continuous orthogonality relation.

The weight W(z) is a ratio of Gamma-function moduli; the Gram matrix of
the (real-coefficient) modified polynomials against W dz / (4*pi) on the
real line is computed by a nested trapezoid rule and compared with the
exact norms h0 * prod(u_k).

The rule is the trapezoid rule in t with z = c*sinh(t), dz = c*cosh(t) dt
(Takahasi & Mori, Publ. RIMS 9, 1974; Trefethen & Weideman, SIAM Review
56, 2014).  W decays like exp(-pi |z|) times a power, so in t the integrand
decays double-exponentially and the nodes thin out in its tail.  The rule
converges like exp(-2*pi*tau/h), tau the half-width of a strip in t clear
of the poles' images (see _strip_halvings).  Each halving of h evaluates
only the new odd nodes and reuses every earlier sample through running sums.

The weight takes its numerator from the distinct Gamma factors, one log|Gamma|
each from _log_abs_gamma, equal bit for bit to the real part of mpmath's complex
loggamma (at a = b the four factors are two), and its denominator from the
identity |Gamma(1/2 + iz)|^2 = pi / cosh(pi z).  The node loop runs on mpmath's
raw values at the context's precision and rounding, through the libmp calls of
the object operators, so every value rounds as object arithmetic would;
_weight is its one call per node.  The closed form of h0 is a ratio of
seven Gamma values at sums of the parameters, taken through log_gamma
(mpmath.loggamma), so the diagonal certificate compares a quadrature of W with
h0 * prod(u_k) at different Gamma arguments.

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

import itertools
import math as _math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from mpmath import loggamma, mp, mpc, mpf, pi
from mpmath.libmp import (MPZ_ONE, MPZ_ZERO, from_int, from_man_exp, fzero, mpc_add, mpc_log,
                          mpc_loggamma, mpf_abs, mpf_add, mpf_cosh, mpf_cosh_sinh, mpf_div,
                          mpf_exp, mpf_gt, mpf_le, mpf_log_hypot, mpf_mul, mpf_mul_int, mpf_pi,
                          mpf_pos, mpf_pow_int, mpf_sub, to_fixed, to_int)
try:  # private to mpmath: without them, _log_abs_gamma is mpc_loggamma's real part
    from mpmath.libmp.gammazeta import GAMMA_STIRLING_BETA, complex_stirling_series
    from mpmath.libmp.libmpf import round_fast
except ImportError:
    GAMMA_STIRLING_BETA = None

from .errors import InvalidParameters, PoleError, QuadratureNotConverged
from .exact import ComplexRational
from .polyfam import ParameterSet, bi_coefficients, document_key, q_polynomials

DEFAULT_PRECISION = 50
DEFAULT_TOL = Fraction(1, 10**8)
DEFAULT_TRUNCATION = 40
# Largest accepted starting L.  A larger L buys no accuracy.
MAX_TRUNCATION = 200
# Smallest accepted precision: it resolves the fixed threshold 10^OFFDIAG_REL_EXPONENT
# * h0 while the Gram's entries are of the order of h0, but not at every quad (at
# --quad 182,128,108,6 --n-max 2 the (2,2) entry is 6.6e7 * h0; the rule runs to its cap).
MIN_PRECISION = 20
# Largest accepted n_max; the work per node grows like (n_max + 1)^2.  At dfff1e5, n_max 25: the
# half quad runs 8.6-10.0 s to exit 4 at 20 digits (at 68f8c87, 42.3 s at n_max 50 and 305.0 s
# at 100); at 100 digits it passes in 4.1-4.7 s (8.1-8.2 s at the narrow quad 1/10,1/3,1/8,2/3).
MAX_N_MAX = 25
# Largest accepted precision.  At 68f8c87, n_max 6 (half quad, narrow strip, truncation
# 200): 100 digits end in 0.5-1.9 s, 200 in 1.1-6.2 s; 1000 took 61.6 s at n_max 0.
MAX_PRECISION = 100
_GUARD_DPS = 10
# Most evaluations of W one Gram may make.  The slowest passing run seen,
# --quad 1/2,300,1/2,300 --n-max 2, makes 30,051.  The Gram checks it before
# each level, so a level that would pass it is not started.
MAX_EVALUATIONS = 2 ** 16
# Significant digits of a report's summary figures (errors, residuals, tolerances).
SUMMARY_DIGITS = 6


@dataclass(frozen=True)
class Approx:
    """An approximate number in a report, printed to ``digits`` significant digits."""

    value: mpf
    digits: int


def log_gamma(z, precision: int):
    """Principal-branch log-Gamma at the requested decimal precision.

    mpmath.loggamma evaluated with five guard digits; raises PoleError at
    nonpositive integers.
    """
    with mp.workdps(precision + 5):
        z = mpc(z)
        if mp.im(z) == 0 and mp.re(z) <= 0 and mp.re(z) == mp.floor(mp.re(z)):
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
    if not 0 <= n_max <= MAX_N_MAX:
        raise InvalidParameters(f"--n-max must be in 0..{MAX_N_MAX}, got {n_max}")
    if not MIN_PRECISION <= precision <= MAX_PRECISION:
        raise InvalidParameters(
            f"--precision must be in {MIN_PRECISION}..{MAX_PRECISION} digits, got {precision}")
    if truncation is not None and not 1 <= truncation <= MAX_TRUNCATION:
        raise InvalidParameters(f"--truncation must be in 1..{MAX_TRUNCATION}, got {truncation}")
    # A tolerance of 1 or more makes the diagonal and ratio checks vacuous.
    if not 0 < tol < 1:
        raise InvalidParameters(f"--tol must be in (0, 1), got {mp.nstr(_to_mpf(tol), 6)}")


def _gamma_factors(p: ParameterSet) -> Tuple[Tuple[mpc, ...], Tuple[int, ...]]:
    """The numerator Gamma factors of W as data, at the working precision.

    W has the factors |Gamma(kappa + iz/2)|^2 with kappa = a + 1, b + 1,
    c + 1/2, d + 1/2.  Returns the distinct kappa, merged by their mpc value
    (the value loggamma receives), and the index into them of each factor,
    in the order a, b, c, d.
    """
    half = mpf(1) / 2
    kappas: List[mpc] = []
    index = []
    for name, shift in (("a", 1), ("b", 1), ("c", half), ("d", half)):
        kappa = _param_to_mpc(getattr(p, name)) + shift
        if kappa not in kappas:
            kappas.append(kappa)
        index.append(kappas.index(kappa))
    return tuple(kappas), tuple(index)


def _log_abs_gamma(w, prec, rnd):
    """log|Gamma(w)| of a raw mpc, equal bit for bit to mpc_loggamma(w, prec, rnd)[0].

    Where Re w > 0, Im w != 0 and mpc_gamma (mpmath 1.3.0) takes neither its
    near-0, near-real-axis nor huge-|w| branch, this runs mpc_gamma's loggamma
    steps: w is shifted right by d, r = w (w+1) ... (w+d-1), and Stirling's series
    gives log Gamma(w+d), whose real part less log|r| is the result.  The
    imaginary half (the atan2 of log r and its branch correction) is skipped.
    Elsewhere, and without mpmath's private Stirling names, it calls mpc_loggamma.
    """
    a, b = w
    wp = prec + 20
    bmag = b[2] + b[3]
    if (GAMMA_STIRLING_BETA is None or a[0] or not a[1] or not b[1] or bmag < -10
            or not -8 <= max(a[2] + a[3], bmag) <= wp):
        return mpc_loggamma(w, prec, rnd)[0]
    an, bn = to_int(a), abs(to_int(b))
    n = int(GAMMA_STIRLING_BETA * wp)
    afix, bfix = to_fixed(a, wp), to_fixed(b, wp)
    r = None
    if max(an, bn) < n:
        one = MPZ_ONE << wp
        rre, rim = one, MPZ_ZERO
        for _ in range(int((1 + n ** 2 - bn ** 2) ** 0.5 - an)):
            rre, rim = (afix * rre - bfix * rim) >> wp, (afix * rim + bfix * rre) >> wp
            afix += one
        r = from_man_exp(rre, -wp), from_man_exp(rim, -wp)
        a = from_man_exp(afix, -wp)
    lre, lim = (to_fixed(v, wp) for v in mpc_log((a, b), wp))
    yre = complex_stirling_series(afix, bfix, wp)[0]
    y = from_man_exp(((lre * afix - lim * bfix) >> wp) - (lre >> 1) + yre, -wp)
    if r:
        y = mpf_sub(y, mpf_log_hypot(r[0], r[1], wp, round_fast), wp)
    return mpf_pos(y, prec, rnd)


def _weight(z, factors):
    """W(z) for real z from ``_gamma_factors``, with 1/|Gamma(1/2+iz)|^2 = cosh(pi z)/pi.

    One loggamma per distinct kappa; the real parts are summed in the order
    a, b, c, d, so the sum rounds as the sum of four separate calls would.
    """
    prec, rnd = mp._prec_rounding
    kappas, index = factors
    izh = (fzero, mpf_div(z._mpf_, from_int(2), prec, rnd))
    logs = [_log_abs_gamma(mpc_add(kappa._mpc_, izh, prec, rnd), prec, rnd) for kappa in kappas]
    s = fzero
    for i in index:
        s = mpf_add(s, logs[i], prec, rnd)
    w = mpf_mul(mpf_exp(mpf_mul_int(s, 2, prec, rnd), prec, rnd),
                mpf_cosh(mpf_mul(mpf_pi(prec, rnd), z._mpf_, prec, rnd), prec, rnd), prec, rnd)
    return mp.make_mpf(mpf_div(w, mpf_pi(prec, rnd), prec, rnd))


def weight_W(z, p: ParameterSet, precision: int = DEFAULT_PRECISION):
    """The positive weight W(z) at real z, one loggamma per distinct Gamma factor."""
    _check_weight_hypotheses(p)
    with mp.workdps(precision + _GUARD_DPS):
        return _weight(_to_mpf(z), _gamma_factors(p))


def h0(p: ParameterSet, precision: int = DEFAULT_PRECISION):
    """Normalization h0: the Gamma-ratio value of the n = 0 integral."""
    _check_weight_hypotheses(p)
    with mp.workdps(precision + _GUARD_DPS):
        a, b, c, d = (_param_to_mpc(getattr(p, n)) for n in "abcd")
        three_half = mpf(3) / 2
        s = sum(log_gamma(w, mp.dps) for w in (a + b + three_half, a + c + 1, b + c + 1,
                                               a + d + 1, b + d + 1, c + d + three_half))
        s -= log_gamma(a + b + c + d + 2, mp.dps)
        # Conjugate pairing makes the arguments pair off (a+b+3/2 with c+d+3/2, a+d+1
        # with b+c+1; the other three are real), so Im s is zero but for rounding.
        return mp.exp(mp.re(s))


# Off-diagonal entries of an exactly orthogonal family should vanish to
# quadrature accuracy; this relative threshold is far above the rounding
# floor at the default 50-digit precision.
OFFDIAG_REL_EXPONENT = -20


@dataclass
class OrthogonalityReport:
    """The Gram and ``expected_diag`` at ``precision_digits``, the summary figures at
    SUMMARY_DIGITS; ``panels`` counts the evaluations of W."""

    n_max: int
    gram: List[List[Approx]]
    expected_diag: List[Approx]
    max_offdiag_rel: Approx
    max_diag_rel_err: Approx
    max_ratio_err: Approx
    truncation_L: int
    panels: int
    l_stability: Approx
    precision_digits: int
    tol: Approx
    passed: bool = document_key("pass")


def _strip_halvings(p: ParameterSet, n_max: int, dps: int) -> Tuple[float, float, float, int, int]:
    """The strip geometry of the trapezoid rule in t: ``(x, c, q, first, last)``.

    The poles of W lie on the lines Re z = -+2 Im a and -+2 Im b, at least
    d = 2*min(Re a + 1, Re b + 1, Re c + 1/2, Re d + 1/2) from the real line.
    z = c*sinh(t), c = max(1, x), maps the strip |Im t| < delta onto |Im z| < c sin(delta)
    sqrt(1 + (Re z / (c cos delta))^2), clear of every pole while
    c^2 sin(delta)^2 + x^2 tan(delta)^2 <= d^2 on the outermost line
    x = 2*max(Im a, Im b).  In t the integrand's peak, z^q exp(-pi z) with
    q = 2 Re(a+b+c+d) + 2 + 2 n_max, has width 1/sqrt(q).  The rule starts at the
    first halving of h = 1 below tau = min(delta, 1/sqrt(q)), so no level steps over
    a peak, and stops one halving past the step where exp(-2*pi*tau/h) = 10^-dps.
    Raises QuadratureNotConverged where a float overflows (an entry past 1e308, or
    the outermost pole line past about 1e77, where s*s does).
    """
    try:
        d = float(2 * min(p.a.re + 1, p.b.re + 1, p.c.re + Fraction(1, 2),
                          p.d.re + Fraction(1, 2)))
        x = 2 * float(max(p.a.im, p.b.im))
        c, q = max(1.0, x), 2 * float(p.total.re) + 2 + 2 * n_max
        # sin(delta)^2 is the smaller root u of c^2 u^2 - (c^2 + x^2 + d^2) u + d^2.
        s = c * c + x * x + d * d
        delta = _math.asin(_math.sqrt(2 * d * d / (s + _math.sqrt(s * s - 4 * c * c * d * d))))
        tau = min(delta, 1 / _math.sqrt(q))
        first = _math.ceil(_math.log2(1 / tau))
        last = max(first, _math.ceil(_math.log2(_math.log(10) * dps / (2 * _math.pi * tau)))) + 1
    except (OverflowError, ZeroDivisionError, ValueError):
        raise QuadratureNotConverged(
            "the trapezoid rule's strip in t is out of float range at these parameters") from None
    return x, c, q, first, last


def _accumulate(accs, vals, scale, prec, rnd):
    """Each acc[n][m] += scale * vals[n] * vals[m] on the upper triangle, on raw mpf values."""
    for n, vn in enumerate(vals):
        vn = mpf_mul(vn, scale, prec, rnd)
        for m in range(n, len(vals)):
            term = mpf_mul(vn, vals[m], prec, rnd)
            for acc in accs:
                acc[n][m] = mpf_add(acc[n][m], term, prec, rnd)


def orthogonality_gram(
    n_max: int,
    p: ParameterSet,
    tol=DEFAULT_TOL,
    precision: int = DEFAULT_PRECISION,
    truncation: Optional[int] = None,
) -> OrthogonalityReport:
    """Gram matrix of the modified family against W dz / (4*pi).

    Nested trapezoid rule in t (see the module docstring), halving h until
    the matrix changes by at most min(tol/10, 10^(OFFDIAG_REL_EXPONENT-1)) *
    |h0| between levels; QuadratureNotConverged is raised past the cap of
    _strip_halvings.  L starts at ``truncation`` or past the peak of the
    integrand bound W(z) z^(2 n_max), if larger, and grows by 1 until that
    bound at -+L is below tol * 1e-3 * |h0|.  The report carries the change
    when the sum is cut to [-L, L]; above tol/10 it raises
    QuadratureNotConverged, as W rises again past L.  ``panels`` counts the
    evaluations of W.  Before each level the Gram raises
    QuadratureNotConverged if its new nodes would take that count past
    MAX_EVALUATIONS (before the first, a lower bound on the nodes of the first
    two levels, as no pass ends at the first); the decay tests at -+L count
    against the same budget.  The Gamma factors of W are built once per Gram (``_gamma_factors``).
    """
    check_gram_inputs(p, n_max, precision, truncation, tol)
    tol = _to_mpf(tol)

    polys = q_polynomials(n_max, p)
    for n, poly in enumerate(polys):
        if not poly.has_real_coefficients():
            raise InvalidParameters(f"polynomial {n} has non-real coefficients",
                                    {"polynomial": n, "expected": "real coefficients"})

    data = bi_coefficients(n_max, p)
    for n in range(1, n_max + 1):
        if not data.u_mod[n].is_real():
            raise InvalidParameters(f"u_{n} is not real",
                                    {"coefficient": f"u_{n}", "expected": "real"})

    with mp.workdps(precision + _GUARD_DPS):
        x, c, q, first, last = _strip_halvings(p, n_max, mp.dps)
        factors = _gamma_factors(p)
        h0_val = h0(p, mp.dps)
        u = [_to_mpf(v.re) for v in data.u_mod]
        expected = [h0_val]
        for n in range(1, n_max + 1):
            expected.append(expected[-1] * u[n])

        prec, rnd = mp._prec_rounding
        polys_raw = [[_to_mpf(c.re)._mpf_ for c in poly.coeffs] for poly in polys]

        evaluations = 0

        def budget(count):
            """Raise QuadratureNotConverged if ``count`` more evaluations of W pass the budget."""
            if evaluations + count > MAX_EVALUATIONS:
                raise QuadratureNotConverged(
                    f"Gram did not converge within {MAX_EVALUATIONS} evaluations of W")

        def weight(z):
            nonlocal evaluations
            budget(1)
            evaluations += 1
            return _weight(z, factors)

        # Past |z| = x every Gamma factor of W decays, and Stirling's formula
        # gives W(z) z^(2 n_max) ~ |z|^q exp(-pi |z|), which peaks q/pi further out.
        L = max(truncation or DEFAULT_TRUNCATION, _math.ceil(x + q / _math.pi))
        cut_bound = tol * mpf(10) ** -3 * abs(h0_val)
        while max(weight(mpf(L)), weight(mpf(-L))) * mpf(L) ** (2 * n_max) > cut_bound:
            L += 1
        # Past the last node the integrand is negligible: ending the rule there leaves no floor.
        end_bound = min(cut_bound, mpf(10) ** -22 * abs(h0_val))

        c, L_raw = mpf(c), from_int(L)
        k = n_max + 1
        full = [[fzero] * k for _ in range(k)]
        inner = [[fzero] * k for _ in range(k)]  # nodes with |z| <= L

        def add(t):
            """Add the node z = c*sinh(t) with weight dz/dt; return |z| and its integrand bound."""
            ch, sh = mpf_cosh_sinh(t._mpf_, prec, rnd)
            z = mpf_mul(c._mpf_, sh, prec, rnd)
            w = mpf_mul(mpf_mul(weight(mp.make_mpf(z))._mpf_, c._mpf_, prec, rnd), ch, prec, rnd)
            vals = []
            for coeffs in polys_raw:
                v = fzero
                for coeff in reversed(coeffs):
                    v = mpf_add(mpf_mul(v, z, prec, rnd), coeff, prec, rnd)
                vals.append(v)
            size = mpf_abs(z, prec, rnd)
            _accumulate((full, inner) if mpf_le(size, L_raw) else (full,), vals, w, prec, rnd)
            return size, mpf_mul(w, mpf_pow_int(size, 2 * n_max, prec, rnd), prec, rnd)

        threshold = min(tol / 10, mpf(10) ** (OFFDIAG_REL_EXPONENT - 1)) * abs(h0_val)
        prev = None
        for level in range(first, last + 1):
            h = mp.ldexp(mpf(1), -level)
            if level == first:
                # Walk out from t = 0 on each side to the first node past L
                # whose integrand bound is negligible; the rule ends there.
                # Passing L on both sides takes more than k = asinh(L/c)/h nodes
                # each, and no pass ends before the next level adds as many again.
                budget(1 + 4 * int(mp.floor(mp.asinh(L / c) / h)))
                add(mpf(0))
                ends = []
                for sign in (1, -1):
                    for j in itertools.count(1):
                        z, size = add(sign * j * h)
                        if mpf_gt(z, L_raw) and mpf_le(size, end_bound._mpf_):
                            ends.append(j)
                            break
            else:
                # The new nodes are the odd multiples of h.
                half = 2 ** (level - first - 1)
                budget((ends[0] + ends[1]) * half)
                for j in range(-ends[1] * half, ends[0] * half):
                    add(mp.ldexp(mpf(2 * j + 1), -level))
            current = [h * mp.make_mpf(v) for row in full for v in row]
            if prev is not None and max(abs(a - b) for a, b in zip(current, prev)) <= threshold:
                break
            prev = current
        else:
            raise QuadratureNotConverged(
                f"Gram matrix did not stabilize after {last - first} halvings of the step"
            )

        gram, gram_l = ([[h * mp.make_mpf(acc[min(n, m)][max(n, m)]) / (4 * pi) for m in range(k)]
                         for n in range(k)] for acc in (full, inner))

        scale = abs(gram[0][0])
        max_off = max([abs(gram[n][m]) / scale for n in range(k) for m in range(k) if n != m],
                      default=mpf(0))
        max_diag = max(abs(gram[n][n] - expected[n]) / abs(expected[n]) for n in range(k))
        max_ratio = max([abs(gram[n][n] / gram[n - 1][n - 1] - u[n]) / u[n] for n in range(1, k)],
                        default=mpf(0))
        l_stab = max(abs(gram[n][m] - gram_l[n][m]) / scale for n in range(k) for m in range(k))
        if l_stab > tol / 10:
            raise QuadratureNotConverged(
                f"cutting the Gram to [-L, L], L = {L}, changes it by {mp.nstr(l_stab, 6)} "
                f"relative to its (0, 0) entry: W rises again past L"
            )

        gram = [[Approx(+v, precision) for v in row] for row in gram]
        expected = [Approx(+v, precision) for v in expected]
        max_off, max_diag, max_ratio, l_stab, tol = (
            Approx(+v, SUMMARY_DIGITS) for v in (max_off, max_diag, max_ratio, l_stab, tol))
    return OrthogonalityReport(
        n_max=n_max, gram=gram, expected_diag=expected, max_offdiag_rel=max_off,
        max_diag_rel_err=max_diag, max_ratio_err=max_ratio, truncation_L=L, panels=evaluations,
        l_stability=l_stab, precision_digits=precision, tol=tol,
        passed=bool(max_off.value <= mpf(10) ** OFFDIAG_REL_EXPONENT
                    and max_diag.value <= tol.value and max_ratio.value <= tol.value))
