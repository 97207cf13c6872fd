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

The weight takes its numerator from the distinct Gamma factors (at a = b the four
are two), each through _log_abs_gamma, a real-part Stirling kernel that also returns a
proved error radius (DLMF 5.11(ii)), and its denominator from the identity
|Gamma(1/2 + iz)|^2 = pi / cosh(pi z).  The node loop runs on mpmath's raw values at
the context's precision and rounding, through the libmp calls of the object operators,
so every value rounds as object arithmetic would; _weight is its one call per node.
h0 is a ratio of seven Gamma values at sums of the parameters, taken through log_gamma
(mpmath.loggamma), so the diagonal certificate compares a quadrature of W with
h0 * prod(u_k) at other Gamma arguments, by another log-Gamma.

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

import functools
import itertools
import math as _math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from mpmath import bernfrac, loggamma, mp, mpc, mpf, pi
from mpmath.libmp import (MPZ_ONE, from_int, from_man_exp, fzero, mpc_add, mpf_abs, mpf_add,
                          mpf_atan2, mpf_cosh, mpf_cosh_sinh, mpf_div, mpf_exp, mpf_gt, mpf_le,
                          mpf_log, mpf_mul, mpf_pi, mpf_pow_int, mpf_shift, to_fixed, to_float)

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
    """Principal-branch log-Gamma at ``precision`` digits: mpmath.loggamma with five guard
    digits; raises PoleError at the nonpositive integers."""
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
    """Raise InvalidParameters unless ``orthogonality_gram`` accepts these inputs; each message
    names the command-line flag that sets the value.  A truncation of None selects the default."""
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
    """The numerator Gamma factors |Gamma(kappa + iz/2)|^2 of W, kappa = a + 1, b + 1, c + 1/2,
    d + 1/2, as data at the working precision: the distinct kappa, merged by their mpc value
    (the value _log_abs_gamma receives), and the index of each factor, in the order a, b, c, d."""
    half = mpf(1) / 2
    kappas: List[mpc] = []
    index = []
    for name, shift in (("a", 1), ("b", 1), ("c", half), ("d", half)):
        kappa = _param_to_mpc(getattr(p, name)) + shift
        if kappa not in kappas:
            kappas.append(kappa)
        index.append(kappas.index(kappa))
    return tuple(kappas), tuple(index)


@functools.lru_cache(maxsize=8)
def _stirling_constants(fp, wp, n):
    """log(2 pi)/2, and c_k = B_2k / (2k (2k - 1)) with log2 |c_k| for k up to the first K with
    2^K |c_K| (n - 1)^(1-2K) < 2^-(wp+1), where _log_abs_gamma stops at any |W| >= n - 1; the
    fixed-point values, at fp fractional bits, are low by less than one unit."""
    fixed, logs, lw = [], [], _math.log2(n - 1)
    while len(logs) < 2 or logs[-1] + len(logs) * (1 - 2 * lw) + lw > -wp - 1:
        k = len(logs) + 1
        p, den = bernfrac(2 * k)
        fixed.append((p << fp) // (den * 2 * k * (2 * k - 1)))
        logs.append(_math.log2(abs(p)) - _math.log2(den * 2 * k * (2 * k - 1)))
    return to_fixed(mpf_log(mpf_shift(mpf_pi(fp + 10), 1), fp + 10), fp - 1), fixed, logs


def _log_abs_gamma(w, wp):
    """``(y, P, r)``, raw mpf with |log|Gamma(w)| - y + log(P)/2| <= r, for a raw mpc w, Re w > 0.

    Fixed point at fp >= wp fractional bits, with |w| 2^fp >= 2^(wp-1) and every bit of w kept.
    w = a + ib is shifted right by d, as mpmath's mpc_gamma shifts it, to W = A + ib, |W| >= 6
    and about wp/5 or more, and P = |w|^2 ... |w+d-1|^2.  log|Gamma(W)| = (A - 1/2) log|W| -
    b atan(b/A) - A + log(2 pi)/2 + Re sum c_k W^(1-2k), k < K (DLMF 5.11.1), by Horner's rule
    in 1/W^2.  r adds DLMF 5.11(ii)'s bound, sec^2K(ph(W)/2) <= 2^K times the first omitted
    term, K the first index that puts it below 2^-wp; each fixed-point truncation; and one ulp
    at wp, assumed, for each mpf_log and mpf_atan2 (rounded to nearest).  Margins of 1e-9 on
    its logarithms cover r's float rounding.
    """
    a, b = w
    fp = max(wp, -a[2], -b[2]) - min(0, max(a[2] + a[3], b[2] + b[3] if b[1] else a[2]))
    one, afix, bfix = MPZ_ONE << fp, to_fixed(a, fp), to_fixed(b, fp)
    an, bn, n = afix >> fp, abs(bfix) >> fp, max(7, int(0.2 * wp))  # n >= 7: a K exists
    P, d, q = one * one, 0, afix * afix + bfix * bfix  # q = |w + j|^2, at 2 fp bits as P
    if max(an, bn) < n:
        d = max(0, int((1 + n * n - bn * bn) ** 0.5 - an))
        step, two = ((afix << 1) + one) << fp, one * one << 1
        for _ in range(d):
            P, q, step = (P * q) >> (2 * fp), q + step, step + two
        afix += d * one
    lq = _math.log2(q) / 2 - fp  # log2 |W|; ls2 is log2 sec^2(ph(W)/2)
    lw, ls2 = lq - 1e-9, 1e-9 - _math.log2((1 + afix / one * 2 ** -lq) / 2)
    half_log_2pi, fixed, logs = _stirling_constants(fp, wp, n)
    # log2 of sec^2K(ph(W)/2) |c_K| |W|^(1-2K) is convex in K, as log|c_K| is (DLMF 24.8.1 and
    # log-convex Gamma and zeta), so it decreases up to K and, with it, |c_k| |W|^(2-2k).
    K, g = 2, ls2 - 2 * lw
    while logs[K - 1] + K * g + lw > -wp:
        K += 1
    tre, tim = (afix << (2 * fp)) // q, -((bfix << (2 * fp)) // q)  # 1/W
    ure, uim, hre, him = (tre * tre - tim * tim) >> fp, (tre * tim) >> (fp - 1), fixed[K - 2], 0
    for c in reversed(fixed[:K - 2]):  # Horner's rule in 1/W^2 = ure + i uim
        hre, him = c + ((ure * hre - uim * him) >> fp), (ure * him + uim * hre) >> fp
    log_w2 = mpf_log(from_man_exp(q, -2 * fp), wp, "n")
    y = (((((afix << 1) - one) * to_fixed(log_w2, fp)) >> (fp + 2)) - afix + half_log_2pi
         + ((tre * hre - tim * him) >> fp)
         - ((bfix * to_fixed(mpf_atan2(b, from_man_exp(afix, -fp), wp, "n"), fp)) >> fp))
    # r in units of 2^-fp, ulp = 2^(1-wp).  The remainder is < ulp/2, mpf_log's error <= |log|W|^2|
    # ulp and mpf_atan2's <= 2 ulp.  1/W is off by < sqrt(2) units and 1/W^2 by < 2, and
    # |c_k| |W|^(2-2k) <= 1/12, so Horner's rule is off by < 4 + K + K^2/1800.  P_j >= 2^(2wp-2).
    ulp, hb, ha = 2.0 ** (fp + 1 - wp), abs(bfix / one), abs(afix / one - 0.5) / 2
    r = (ulp * (1 + 2 * hb + ha * abs(to_float(log_w2))) + hb + ha + 8 + K * (1 + K / 1800)
         + _math.ldexp(d, fp + 2 - 2 * wp))
    return from_man_exp(y, -fp), from_man_exp(P, -2 * fp), from_man_exp(int(r) + 1, -fp)


def _weight(z, factors):
    """W(z) for real z from ``_gamma_factors``, with 1/|Gamma(1/2+iz)|^2 = cosh(pi z)/pi: one
    _log_abs_gamma per distinct kappa, W = exp(2 sum y) cosh(pi z) / (pi prod P), the sum and
    product taken exactly over the factors a, b, c, d, so merged factors change no bit."""
    prec, rnd = mp._prec_rounding
    izh = (fzero, mpf_shift(z._mpf_, -1))
    terms = [_log_abs_gamma(mpc_add(k._mpc_, izh, prec, rnd), prec + 20) for k in factors[0]]
    s = functools.reduce(mpf_add, [terms[i][0] for i in factors[1]])
    p = functools.reduce(mpf_mul, [terms[i][1] for i in factors[1]])
    w = mpf_mul(mpf_exp(mpf_shift(s, 1), prec, rnd),
                mpf_cosh(mpf_mul(mpf_pi(prec, rnd), z._mpf_, prec, rnd), prec, rnd), prec, rnd)
    return mp.make_mpf(mpf_div(w, mpf_mul(mpf_pi(prec, rnd), p, prec, rnd), prec, rnd))


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


def orthogonality_gram(n_max: int, p: ParameterSet, tol=DEFAULT_TOL,
                       precision: int = DEFAULT_PRECISION,
                       truncation: Optional[int] = None) -> OrthogonalityReport:
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
                f"Gram matrix did not stabilize after {last - first} halvings of the step")

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
                f"relative to its (0, 0) entry: W rises again past L")

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
