"""High-precision certification of the continuous orthogonality relation.

The weight W(z) is a ratio of Gamma-function moduli; the Gram matrix of
the (real-coefficient) modified polynomials against W dz / (4*pi) on the
real line is computed by composite Gauss-Legendre quadrature with panel
doubling, and compared with the exact norms h0 * prod(u_k).

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
from functools import lru_cache
from typing import List, Optional

from mpmath import bernoulli, mp, mpc, mpf, pi

from .errors import InvalidParameters, PoleError, QuadratureNotConverged
from .exact import ComplexRational
from .polyfam import ParameterSet, bi_coefficients, q_polynomials

DEFAULT_PRECISION = 50
DEFAULT_TOL = Fraction(1, 10**8)
DEFAULT_TRUNCATION = 40
NODES_PER_UNIT_PANEL = 50
MAX_DOUBLINGS = 12
_GUARD_DPS = 10

# Shift threshold and term budget for the Stirling series, in units of the
# current working precision.
_SHIFT_SLOPE = 0.4
_SHIFT_OFFSET = 8


def _is_nonpositive_integer(z) -> bool:
    if mp.im(z) != 0:
        return False
    x = mp.re(z)
    return x <= 0 and x == mp.floor(x)


@lru_cache(maxsize=8)
def _stirling_coefficients(dps: int, count: int = 120):
    """B_{2k} / (2k (2k-1)) rounded at dps, for the asymptotic series."""
    with mp.workdps(dps):
        return tuple(+(bernoulli(2 * k) / (2 * k * (2 * k - 1))) for k in range(1, count + 1))


def _stirling_log_gamma(z):
    """Stirling series; caller guarantees |z| is above the shift threshold."""
    eps = mpf(10) ** (-(mp.dps + 2))
    result = (z - mpf(1) / 2) * mp.log(z) - z + mp.log(2 * pi) / 2
    coeffs = _stirling_coefficients(mp.dps)
    zinv2 = 1 / (z * z)
    zpow = 1 / z
    for c in coeffs:
        term = c * zpow
        result += term
        if abs(term) < eps:
            break
        zpow *= zinv2
    else:
        raise ArithmeticError("Stirling series did not reach the requested precision")
    return result


@lru_cache(maxsize=256)
def _series_term_count(abs_z_floor: int, dps: int) -> int:
    """Stirling terms needed at |z| >= abs_z_floor, estimated in float math."""
    target = -(dps + 2) * _math.log(10)
    lz = _math.log(max(abs_z_floor, 2))
    l2pi = _math.log(2 * _math.pi)
    for k in range(1, 400):
        log_term = _math.log(2) + _math.lgamma(2 * k - 1) - 2 * k * l2pi - (2 * k - 1) * lz
        if log_term < target:
            return k + 2
    raise ArithmeticError("Stirling series cannot reach the requested precision")


def _log_abs_gamma(z):
    """log |Gamma(z)| at the current working precision.

    Branch-free fast path for weight evaluation: the argument recursion
    accumulates a single product instead of one complex log per step, and
    shift/term counts come from cheap float estimates.  Assumes z is not
    at a pole.
    """
    threshold = _SHIFT_SLOPE * mp.dps + _SHIFT_OFFSET
    zre, zim = float(mp.re(z)), float(mp.im(z))
    im2 = zim * zim
    t2 = threshold * threshold
    shifts = 0
    if im2 < t2:
        shifts = max(0, int(_math.ceil(_math.sqrt(t2 - im2) - zre)))
    prod = None
    for _ in range(shifts):
        prod = z if prod is None else prod * z
        z += 1
    abs_z = _math.hypot(zre + shifts, zim)
    nterms = _series_term_count(int(abs_z), mp.dps)

    result = (z - mpf(1) / 2) * mp.log(z) - z
    zinv2 = 1 / (z * z)
    zpow = 1 / z
    coeffs = _stirling_coefficients(mp.dps)
    for c in coeffs[:nterms]:
        result += c * zpow
        zpow *= zinv2
    out = mp.re(result) + mp.log(2 * pi) / 2
    if prod is not None:
        out -= mp.log(abs(prod))
    return out


def log_gamma(z, precision: Optional[int] = None):
    """Principal-branch log-Gamma at the requested decimal precision.

    Implemented as upward argument recursion into the Stirling regime;
    the reflection formula handles the remaining real z < 1/2.  Raises
    PoleError at nonpositive integers.
    """
    prec = precision if precision is not None else mp.dps
    with mp.workdps(prec + 5):
        z = mpc(z)
        if _is_nonpositive_integer(z):
            raise PoleError(f"log_gamma pole at z = {z}")
        if mp.im(z) < 0:
            return mp.conj(log_gamma(mp.conj(z), mp.dps))
        if mp.im(z) == 0 and mp.re(z) < 0:
            # Reflection in real arithmetic; complex log supplies the
            # i*pi contributions when Gamma(z) < 0.
            val = mp.log(pi) - mp.log(mp.sin(pi * mp.re(z)) + mpc(0)) - log_gamma(1 - z, mp.dps)
            return +val
        threshold = _SHIFT_SLOPE * mp.dps + _SHIFT_OFFSET
        acc = mpc(0)
        while abs(z) < threshold:
            acc += mp.log(z)
            z += 1
        return +( _stirling_log_gamma(z) - acc )


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
            raise InvalidParameters(f"parameter {name} must have positive real and imaginary parts")


def _log_weight(z, pa, pb, pc, pd):
    """log W(z) for real z; W is a squared Gamma-product modulus."""
    izh = mpc(0, z / 2)
    s = (
        _log_abs_gamma(pa + izh + 1)
        + _log_abs_gamma(pb + izh + 1)
        + _log_abs_gamma(pc + izh + mpf(1) / 2)
        + _log_abs_gamma(pd + izh + mpf(1) / 2)
        - _log_abs_gamma(mpf(1) / 2 + mpc(0, z))
    )
    return 2 * s


def weight_W(z, p: ParameterSet, precision: int = DEFAULT_PRECISION):
    """The positive weight W(z) at real z."""
    _check_weight_hypotheses(p)
    with mp.workdps(precision + _GUARD_DPS):
        val = mp.exp(_log_weight(_to_mpf(z), *(_param_to_mpc(getattr(p, n)) for n in "abcd")))
        val = +val
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


@lru_cache(maxsize=8)
def _gauss_legendre_nodes(n: int, dps: int):
    """Nodes and weights of the n-point rule on [-1, 1] via Newton iteration."""
    with mp.workdps(dps):
        nodes, weights = [], []
        for i in range(1, n // 2 + 1):
            x = mp.cos(pi * (i - mpf(1) / 4) / (n + mpf(1) / 2))
            for _ in range(100):
                p0, p1 = mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mpf(10) ** (-dps):
                    break
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append(x)
            weights.append(w)
        full_nodes = [-x for x in nodes] + ([mpf(0)] if n % 2 else []) + list(reversed(nodes))
        if n % 2:
            # Central weight from the symmetry of the rule.
            wc = 2 - 2 * mp.fsum(weights)
            full_weights = list(weights) + [wc] + list(reversed(weights))
        else:
            full_weights = list(weights) + list(reversed(weights))
    return tuple(full_nodes), tuple(full_weights)


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
            and self.l_stability <= self.tol / 10
        )

    def to_json(self) -> dict:
        d = self.precision_digits
        return {
            "n_max": self.n_max,
            "gram": [[mp.nstr(v, d) for v in row] for row in self.gram],
            "expected_diag": [mp.nstr(v, d) for v in self.expected_diag],
            "max_offdiag_rel": mp.nstr(self.max_offdiag_rel, 6),
            "max_diag_rel_err": mp.nstr(self.max_diag_rel_err, 6),
            "max_ratio_err": mp.nstr(self.max_ratio_err, 6),
            "truncation_L": self.truncation_L,
            "panels": self.panels,
            "l_stability": mp.nstr(self.l_stability, 6),
            "precision_digits": d,
            "tol": mp.nstr(self.tol, 6),
            "pass": self.passed,
        }


def _panel_grams(polys_mpf, pa, pb, pc, pd, lo, hi, n_subpanels, nodes, weights):
    """Integrals of W * P_n * P_m over [lo, hi] split into n_subpanels."""
    k = len(polys_mpf)
    acc = [[mpf(0)] * k for _ in range(k)]
    width = (mpf(hi) - mpf(lo)) / n_subpanels
    for s in range(n_subpanels):
        a = mpf(lo) + s * width
        mid = a + width / 2
        half = width / 2
        for x, w in zip(nodes, weights):
            z = mid + half * x
            wv = mp.exp(_log_weight(z, pa, pb, pc, pd))
            vals = []
            for coeffs in polys_mpf:
                acc_v = mpf(0)
                for c in reversed(coeffs):
                    acc_v = acc_v * z + c
                vals.append(acc_v)
            scale = w * half * wv
            for n in range(k):
                vn = vals[n] * scale
                for m in range(n, k):
                    acc[n][m] += vn * vals[m]
    return acc


def _sum_panels(panel_list, k):
    out = [[mpf(0)] * k for _ in range(k)]
    for pm in panel_list:
        for n in range(k):
            for m in range(n, k):
                out[n][m] += pm[n][m]
    for n in range(k):
        for m in range(n):
            out[n][m] = out[m][n]
    return out


def orthogonality_gram(
    n_max: int,
    p: ParameterSet,
    tol=DEFAULT_TOL,
    precision: int = DEFAULT_PRECISION,
    truncation: Optional[int] = None,
) -> OrthogonalityReport:
    """Gram matrix of the modified family against W dz / (4*pi).

    Composite Gauss-Legendre on [-L, L] with unit panels, the panel count
    doubled until the matrix is stable to tol/10.  The report also carries
    the change when the truncation is reduced from L+5 to L (computed from
    the shared panel decomposition), which certifies tail convergence.
    """
    _check_weight_hypotheses(p)
    if not isinstance(tol, mpf):
        tol_frac = Fraction(tol)
        tol = mpf(tol_frac.numerator) / mpf(tol_frac.denominator)

    polys = q_polynomials(n_max, p)
    for n, poly in enumerate(polys):
        if not poly.has_real_coefficients():
            raise InvalidParameters(f"polynomial {n} has non-real coefficients")

    data = bi_coefficients(n_max, p)
    for n in range(1, n_max + 1):
        if not data.u_mod[n].is_real():
            raise InvalidParameters(f"u_{n} is not real")

    with mp.workdps(precision + _GUARD_DPS):
        pa, pb, pc, pd = (_param_to_mpc(getattr(p, n)) for n in "abcd")
        h0_val = h0(p, mp.dps)
        expected = [h0_val]
        for n in range(1, n_max + 1):
            u = data.u_mod[n].re
            expected.append(expected[-1] * mpf(u.numerator) / mpf(u.denominator))

        polys_mpf = [
            [mpf(c.re.numerator) / mpf(c.re.denominator) for c in poly.coeffs]
            for poly in polys
        ]

        # Truncation: W decays like exp(-pi |z|) times polynomial growth.
        L = int(truncation) if truncation is not None else DEFAULT_TRUNCATION
        target = tol * mpf(10) ** (-3) * abs(h0_val)
        for _ in range(MAX_DOUBLINGS):
            tail = mp.exp(_log_weight(mpf(L), pa, pb, pc, pd)) * mpf(L) ** (2 * n_max)
            if tail <= target:
                break
            L += 5
        Lx = L + 5  # extended interval for the tail-stability figure

        nodes, weights = _gauss_legendre_nodes(NODES_PER_UNIT_PANEL, mp.dps)
        k = n_max + 1
        subdiv = 1
        prev_gram = None
        final = None
        for attempt in range(MAX_DOUBLINGS):
            panels = []  # one per unit interval [j, j+1)
            for j in range(-Lx, Lx):
                panels.append(
                    _panel_grams(polys_mpf, pa, pb, pc, pd, j, j + 1, subdiv, nodes, weights)
                )
            gram_full = _sum_panels(panels, k)
            if prev_gram is not None:
                delta = max(
                    abs(gram_full[n][m] - prev_gram[n][m])
                    for n in range(k) for m in range(k)
                )
                if delta <= tol / 10 * abs(h0_val):
                    inner = _sum_panels(panels[5:-5], k)  # [-L, L] only
                    final = (gram_full, inner, subdiv)
                    break
            prev_gram = gram_full
            subdiv *= 2
        if final is None:
            raise QuadratureNotConverged(
                f"Gram matrix did not stabilize after {MAX_DOUBLINGS} panel doublings"
            )
        gram_full, gram_inner, subdiv = final

        four_pi = 4 * pi
        gram = [[v / four_pi for v in row] for row in gram_full]
        gram_l = [[v / four_pi for v in row] for row in gram_inner]

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
            u = data.u_mod[n].re
            u_val = mpf(u.numerator) / mpf(u.denominator)
            max_ratio = max(max_ratio, abs(gram[n][n] / gram[n - 1][n - 1] - u_val) / u_val)
        l_stab = max(
            abs(gram[n][m] - gram_l[n][m]) / scale for n in range(k) for m in range(k)
        )

        report = OrthogonalityReport(
            n_max=n_max,
            gram=[[+v for v in row] for row in gram],
            expected_diag=[+v for v in expected],
            max_offdiag_rel=+max_off,
            max_diag_rel_err=+max_diag,
            max_ratio_err=+max_ratio,
            truncation_L=L,
            panels=2 * Lx * subdiv,
            l_stability=+l_stab,
            precision_digits=precision,
            tol=+tol,
        )
    return report
