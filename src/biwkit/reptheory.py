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

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from mpmath import mpf

from .errors import InvalidParameters
from .exact import ONE, ZERO, ComplexRational
from .measure import SUMMARY_DIGITS, Approx, _to_mpf
from .polyfam import ParameterSet, RealParameterQuad, bi_eigenvalue, q_modified_coefficients
from .operators import StructureConstants, casimir_scalar, structure_constants

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
    """Truncated representation: the exact band lambda_n, c_n, u_n, n < N.

    ``precision_digits`` is carried to the report's printed tolerance.
    Raises InvalidParameters naming n if some u_n <= 0 or c_n is not real,
    since then A2 is not similar to the monic Jacobi matrix.
    """
    return _build(N, q, precision_digits, N - 1)[0]


def build_rep_and_scan(N: int, q: RealParameterQuad) -> Tuple[TridiagonalRep, "PositivityReport"]:
    """``(build_rep(N, q), positivity_scan(q, N))`` from one run of the exact recurrence."""
    rep, data = _build(N, q, PRINTED_PRECISION, N)
    return rep, _scan(data, N)


def _build(N: int, q: RealParameterQuad, precision_digits: int, n_max: int):
    """``build_rep``'s band and the recurrence data up to n_max >= N - 1 it is read from."""
    if N < MIN_SIZE:
        raise InvalidParameters(f"truncation size must be at least {MIN_SIZE}, got {N}")
    if precision_digits < MIN_PRECISION:
        raise InvalidParameters(
            f"precision must be >= {MIN_PRECISION} digits, got {precision_digits}")
    if not q.all_positive():
        raise InvalidParameters(
            "alpha, beta, gamma, delta must all be positive (u_n > 0 is not guaranteed otherwise)"
        )
    data = q_modified_coefficients(n_max, q)
    for n in range(N):
        if not data.c_mod[n].is_real():
            raise InvalidParameters(f"c_{n} is not real")
        if n >= 1 and not (data.u_mod[n].is_real() and data.u_mod[n].re > 0):
            raise InvalidParameters(f"u_{n} is not positive")
    p = ParameterSet.from_quad(q)
    return TridiagonalRep(
        size=N,
        precision_digits=precision_digits,
        params=q,
        lam=[bi_eigenvalue(n, p) for n in range(N)],
        c=data.c_mod[:N],
        u=data.u_mod[:N],
    ), data


Vector = Dict[int, ComplexRational]


def _lincomb(*terms) -> Vector:
    """The sparse vector sum of s*v over the (s, v) pairs in ``terms``."""
    out: Vector = {}
    for s, v in terms:
        for n, x in v.items():
            out[n] = out.get(n, ZERO) + s * x
    return out


@dataclass
class RepReport:
    size: int
    precision_digits: int
    interior_block: int
    residual_rel2: mpf
    residual_rel3: mpf
    residual_casimir: mpf
    tolerance: mpf
    passed: bool

    def to_json(self) -> dict:
        s = SUMMARY_DIGITS
        return {
            "N": self.size,
            "precision_digits": self.precision_digits,
            "interior_block": self.interior_block,
            "residuals": {
                "rel2": Approx(self.residual_rel2, s),
                "rel3": Approx(self.residual_rel3, s),
                "casimir": Approx(self.residual_casimir, s),
            },
            "tolerance": Approx(self.tolerance, s),
            "pass": self.passed,
        }


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

    With A3 := {A1, A2} - alpha3*I, the columns j = 0..N-4 of {A2,A3} + A1
    - alpha1, {A3,A1} - A2 - alpha2 and A1^2 - A2^2 - A3^2 - casimir are
    built on sparse ``ComplexRational`` vectors from the monic A2 and
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
    size, lam, c, u = rep.size, rep.lam, rep.c, rep.u

    def a1(v: Vector) -> Vector:
        return {n: lam[n] * x for n, x in v.items()}

    def a2(v: Vector) -> Vector:
        out: Vector = {}
        for n, x in v.items():
            for m, s in ((n - 1, u[n]), (n, c[n]), (n + 1, ONE)):
                if 0 <= m < size:
                    out[m] = out.get(m, ZERO) + s * x
        return out

    def a3(v: Vector) -> Vector:
        return _lincomb((1, a1(a2(v))), (1, a2(a1(v))), (-sc.alpha3, v))

    top = size - 4
    worst = [Fraction(0)] * 3
    for j in range(top + 1):
        e = {j: ONE}
        a1e, a2e, a3e = a1(e), a2(e), a3(e)
        columns = (
            _lincomb((1, a2(a3e)), (1, a3(a2e)), (1, a1e), (-sc.alpha1, e)),
            _lincomb((1, a3(a1e)), (1, a1(a3e)), (-1, a2e), (-sc.alpha2, e)),
            _lincomb((1, a1(a1e)), (-1, a2(a2e)), (-1, a3(a3e)), (-cas, e)),
        )
        for k, col in enumerate(columns):
            worst[k] = max([worst[k]] + [abs(x.re) for n, x in col.items() if n <= top])

    r2, r3, rc = (_to_mpf(x) for x in worst)
    return RepReport(
        size=size,
        precision_digits=rep.precision_digits,
        interior_block=top,
        residual_rel2=r2,
        residual_rel3=r3,
        residual_casimir=rc,
        tolerance=rep_tolerance(rep.precision_digits),
        passed=not any(worst),
    )


@dataclass
class PositivityReport:
    n_max: int
    all_positive: bool
    all_real: bool
    first_nonpositive: Optional[int]

    @property
    def passed(self) -> bool:
        return self.all_positive and self.all_real

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "u_all_positive": self.all_positive,
            "c_all_real": self.all_real,
            "first_nonpositive_n": self.first_nonpositive,
            "pass": self.passed,
        }


def positivity_scan(q: RealParameterQuad, n_max: int) -> PositivityReport:
    """Exact rational sign check of u_n (1 <= n <= n_max) and realness of c_n.

    A sign violation is reported, not raised: scanning hypotheses-violating
    parameter sets is a supported use.
    """
    return _scan(q_modified_coefficients(n_max, q), n_max)


def _scan(data, n_max: int) -> PositivityReport:
    first_bad = None
    all_real = all(c.is_real() for c in data.c_mod)
    for n in range(1, n_max + 1):
        u = data.u_mod[n]
        if not u.is_real() or u.re <= 0:
            first_bad = n
            break
    return PositivityReport(
        n_max=n_max,
        all_positive=first_bad is None,
        all_real=all_real,
        first_nonpositive=first_bad,
    )
