"""Finite truncations of the infinite-dimensional tridiagonal representation.

The generator A1 acts diagonally with entries lambda_n = (-1)^n (n +
2*alpha + 2*gamma + 3/2); A2 is the symmetric tridiagonal matrix with
diagonal c_n and off-diagonal sqrt(u_n).  Conjugating by D = diag(sqrt(u_1
... u_n)) turns A2 into the monic Jacobi matrix A2 e_n = e_{n+1} + c_n e_n +
u_n e_{n-1} of the modified recurrence and keeps A1; the algebra relations
are polynomials in A1, A2 and so are unchanged by the similarity, which
needs u_n > 0 and c_n real.  The relations are therefore decided on the
monic form in exact arithmetic, on sparse ``ComplexRational`` vectors
built from the recurrence's own values.  Truncation contaminates the last
rows and columns (A2^2 and {A2, A3} reach index N), so the relations are
certified on the interior index block 0..N-4, where every residual must be
exactly zero.  The representation is held as this exact band only: no
square root sqrt(u_n) is ever taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from mpmath import mpf

from .errors import InvalidParameters
from .exact import ONE, ZERO, ComplexRational
from .measure import SUMMARY_DIGITS, Approx, _to_mpf
from .polyfam import (ParameterSet, RealParameterQuad, StructureConstants, bi_eigenvalue,
                      casimir_scalar, check_denominators, document_key, prove_closed_forms,
                      q_modified_coefficients, structure_constants)

# The least (double) and the default precision_digits: they set only rep_tolerance.
MIN_PRECISION = 16
PRINTED_PRECISION = 30
# The least truncation size: the interior block 0..N-4 then has three rows.
MIN_SIZE = 6


@dataclass
class TridiagonalRep:
    """Exact band data of A1 and the monic A2.

    ``lam[n]``, ``c[n]`` and ``u[n]`` are lambda_n, c_n and u_n for n =
    0..size-1 (``u[0] = 0``): the real ``ComplexRational`` values of
    ``bi_eigenvalue`` and of the modified recurrence.
    """

    size: int
    precision_digits: int
    params: RealParameterQuad
    lam: List[ComplexRational]
    c: List[ComplexRational]
    u: List[ComplexRational]


def build_rep(N: int, q: RealParameterQuad,
              precision_digits: int = PRINTED_PRECISION) -> TridiagonalRep:
    """Truncated representation: the recurrence's exact band lambda_n, c_n, u_n, n < N.

    It shares nothing with the closed forms.  ``precision_digits`` is carried to
    the report's printed tolerance.  Raises InvalidParameters naming n if some
    u_n <= 0 or c_n is not real: A2 is then not similar to the monic Jacobi matrix.
    """
    if N < MIN_SIZE:
        raise InvalidParameters(f"truncation size must be at least {MIN_SIZE}, got {N}")
    if precision_digits < MIN_PRECISION:
        raise InvalidParameters(
            f"precision must be >= {MIN_PRECISION} digits, got {precision_digits}")
    if not q.all_positive():
        raise InvalidParameters(
            "alpha, beta, gamma, delta must all be positive (u_n > 0 is not guaranteed otherwise)"
        )
    data = q_modified_coefficients(N - 1, q)
    for n in range(N):
        if not data.c_mod[n].is_real():
            raise InvalidParameters(f"c_{n} is not real",
                                    {"coefficient": f"c_{n}", "expected": "real"})
        if n >= 1 and not (data.u_mod[n].is_real() and data.u_mod[n].re > 0):
            raise InvalidParameters(f"u_{n} is not positive",
                                    {"coefficient": f"u_{n}", "expected": "positive"})
    p = ParameterSet.from_quad(q)
    return TridiagonalRep(
        size=N,
        precision_digits=precision_digits,
        params=q,
        lam=[bi_eigenvalue(n, p) for n in range(N)],
        c=data.c_mod,
        u=data.u_mod,
    )


Vector = Dict[int, ComplexRational]


def _band_columns(rep: TridiagonalRep, alpha3: ComplexRational):
    """The columns A2 e_n and A3 e_n, n < N, of the monic A2 and of A3 = {A1, A2} - alpha3.

    (A3)_mn = (lambda_m + lambda_n) (A2)_mn - alpha3 delta_mn on the rows n-1, n, n+1
    of A2 that lie in 0..N-1: nothing wraps to n = -1 and nothing is kept at n = N.
    """
    lam, size = rep.lam, rep.size
    a2 = [{m: s for m, s in ((n - 1, rep.u[n]), (n, rep.c[n]), (n + 1, ONE)) if 0 <= m < size}
          for n in range(size)]
    a3 = [{m: (lam[m] + lam[n]) * s - (alpha3 if m == n else ZERO) for m, s in col.items()}
          for n, col in enumerate(a2)]
    return a2, a3


def _apply(columns, v: Vector) -> Vector:
    """The band with these columns applied to v: the sum of x * columns[n] over v's entries."""
    return _lincomb(*((x, columns[n]) for n, x in v.items()))


def _lincomb(*terms) -> Vector:
    """The sparse vector sum of s*v over the (s, v) pairs in ``terms``."""
    out: Vector = {}
    for s, v in terms:
        for n, x in v.items():
            out[n] = out.get(n, ZERO) + s * x
    return out


@dataclass
class RepReport:
    """``residuals`` maps rel2, rel3 and casimir to the largest residual of each relation."""

    size: int = document_key("N")
    precision_digits: int
    interior_block: int
    residuals: Dict[str, Approx]
    tolerance: Approx
    passed: bool = document_key("pass")


def rep_tolerance(precision_digits: int) -> mpf:
    """The printed ``tolerance``: 1e-25 at 30 digits, 1e-12 at double precision.

    It is kept in the ``biwkit/2`` document only; ``passed`` asks for exact
    zeros and does not read it.
    """
    if precision_digits <= MIN_PRECISION:
        return mpf(10) ** (-12)
    return mpf(10) ** (-(precision_digits - 5))


def verify_rep_relations(rep: TridiagonalRep,
                         constants: Optional[StructureConstants] = None) -> RepReport:
    """Exact residuals of the two non-compact relations and the Casimir identity.

    A3 := {A1, A2} - alpha3*I is the band with (lambda_{n-1} + lambda_n) u_n,
    2 lambda_n c_n - alpha3 and lambda_n + lambda_{n+1} in rows n-1, n, n+1 of
    column n.  The columns j = 0..N-4 of {A2,A3} + A1 - alpha1, {A3,A1} - A2 -
    alpha2 and A1^2 - A2^2 - A3^2 - casimir are built on sparse
    ``ComplexRational`` vectors from the columns of the monic A2 and of A3 and
    compared with zero on the interior rows 0..N-4; every entry is real, a
    residual is the largest |re|, and ``passed`` means every entry is exactly
    zero.  ``constants`` overrides the structure constants (the supported
    negative control).
    """
    p = ParameterSet.from_quad(rep.params)
    sc = constants if constants is not None else structure_constants(p)
    cas = casimir_scalar(p)
    for val, name in ((sc.alpha1, "alpha1"), (sc.alpha2, "alpha2"),
                      (sc.alpha3, "alpha3"), (cas, "casimir")):
        if not val.is_real():
            raise InvalidParameters(f"{name} is not real for these parameters")
    size, lam = rep.size, rep.lam
    a2, a3 = _band_columns(rep, sc.alpha3)
    top = size - 4
    worst = [Fraction(0)] * 3
    for j in range(top + 1):
        # A1 e_j = lambda_j e_j: {A3,A1} e_j = (A1 + lambda_j) A3 e_j, A1^2 e_j = lambda_j^2 e_j.
        e, lj, a2e, a3e = {j: ONE}, lam[j], a2[j], a3[j]
        a31e = {n: (lam[n] + lj) * x for n, x in a3e.items()}
        columns = (
            _lincomb((1, _apply(a2, a3e)), (1, _apply(a3, a2e)), (lj - sc.alpha1, e)),
            _lincomb((1, a31e), (-1, a2e), (-sc.alpha2, e)),
            _lincomb((lj * lj - cas, e), (-1, _apply(a2, a2e)), (-1, _apply(a3, a3e))),
        )
        for k, col in enumerate(columns):
            worst[k] = max([worst[k]] + [abs(x.re) for n, x in col.items() if n <= top])

    return RepReport(size=size, precision_digits=rep.precision_digits, interior_block=top,
                     residuals={name: Approx(_to_mpf(x), SUMMARY_DIGITS)
                                for name, x in zip(("rel2", "rel3", "casimir"), worst)},
                     tolerance=Approx(rep_tolerance(rep.precision_digits), SUMMARY_DIGITS),
                     passed=not any(worst))


@dataclass
class PositivityReport:
    n_max: int
    all_positive: bool = document_key("u_all_positive")
    all_real: bool = document_key("c_all_real")
    first_nonpositive: Optional[int] = document_key("first_nonpositive_n")
    passed: bool = document_key("pass", init=False)

    def __post_init__(self):
        self.passed = self.all_positive and self.all_real


def positivity_scan(q: RealParameterQuad, n_max: int) -> PositivityReport:
    """Exact sign check of u_n (1 <= n <= n_max) and realness of c_n, at a cost free of n_max.

    The recurrence is never run to n_max:

    1. ``check_denominators`` raises DegenerateParameters at the n where
       ``bi_coefficients`` would, read from s = 2(alpha+gamma).
    2. ``prove_closed_forms`` cites the proof, run once per process, that the
       closed forms of c_n and u_n equal the recurrence's as rational
       functions of n and alpha..delta on each parity, and builds the quad's
       roots; only if that proof fails does it take the differences at q.
    3. u_n = (n-r1)(n-r2)*mod2/(4*d1^2) with mod2 = d1^2 + (real)^2 > 0,
       since d1 = n+s+1 does not vanish for n <= n_max.  So u_n has the sign
       of (n-r1)(n-r2), which is <= 0 exactly for n between the real roots.
       c_n is real because alpha2, alpha3 and lambda_n are.

    A sign violation is reported, not raised: scanning hypotheses-violating
    parameter sets is a supported use.  A negative n_max raises
    InvalidParameters: there is nothing to scan.
    """
    if n_max < 0:
        raise InvalidParameters(f"n_max must be >= 0, got {n_max}")
    check_denominators(n_max, ComplexRational(2 * (q.alpha + q.gamma)))
    closed = prove_closed_forms(q)
    firsts = [_first_between(roots, parity, n_max) for parity, roots in enumerate(closed.roots)]
    first_bad = min((n for n in firsts if n is not None), default=None)
    return PositivityReport(n_max=n_max, all_positive=first_bad is None, all_real=True,
                            first_nonpositive=first_bad)


def _first_between(roots, parity: int, n_max: int) -> Optional[int]:
    """The least n in 1..n_max of the given parity with min(roots) <= n <= max(roots), if any."""
    low, high = sorted(r.re for r in roots)
    n = max(1, math.ceil(low))
    n += (n - parity) % 2
    return n if n <= min(high, n_max) else None
