"""Finite truncations of the infinite-dimensional tridiagonal representation.

The generator A1 acts diagonally with entries (-1)^n (n + 2*alpha + 2*gamma
+ 3/2); A2 is the symmetric tridiagonal matrix with diagonal c_n and
off-diagonal sqrt(u_n).  Truncation contaminates the last rows and columns
(A2^2 and {A2, A3} reach index N), so the algebra relations are certified
on the interior index block 0..N-4 only, where the residual is pure
rounding noise at the working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from mpmath import mp, mpf

from .errors import InvalidParameters
from .exact import ComplexRational
from .polyfam import ParameterSet, RealParameterQuad, q_modified_coefficients
from .operators import StructureConstants, casimir_scalar, structure_constants

# Guard digits for matrix products so the reported residual reflects the
# rounding of the stored entries, not of the products.
_PRODUCT_GUARD_DPS = 10
# Double precision, the least working precision a representation is built at.
MIN_PRECISION = 16


@dataclass
class TridiagonalRep:
    size: int
    precision_digits: int
    params: RealParameterQuad
    diag_a1: List[mpf]
    diag_a2: List[mpf]
    offdiag_a2: List[mpf]  # offdiag_a2[k] = sqrt(u_{k+1}), k = 0..size-2

    def a1_matrix(self) -> list:
        n = self.size
        m = [[mpf(0)] * n for _ in range(n)]
        for k in range(n):
            m[k][k] = self.diag_a1[k]
        return m

    def a2_matrix(self) -> list:
        n = self.size
        m = [[mpf(0)] * n for _ in range(n)]
        for k in range(n):
            m[k][k] = self.diag_a2[k]
        for k in range(n - 1):
            m[k][k + 1] = self.offdiag_a2[k]
            m[k + 1][k] = self.offdiag_a2[k]
        return m


def build_rep(N: int, q: RealParameterQuad, precision_digits: int = 30) -> TridiagonalRep:
    """Truncated representation matrices at the requested precision.

    The recurrence data c_n, u_n are computed exactly and only then
    rounded; square roots are taken at the working precision.
    """
    if N < 4:
        raise InvalidParameters("truncation size must be at least 4")
    if precision_digits < MIN_PRECISION:
        raise InvalidParameters(
            f"precision must be >= {MIN_PRECISION} digits, got {precision_digits}")
    if not q.all_positive():
        raise InvalidParameters(
            "alpha, beta, gamma, delta must all be positive (u_n > 0 is not guaranteed otherwise)"
        )
    data = q_modified_coefficients(N, q)
    with mp.workdps(precision_digits):
        two_ag = 2 * (q.alpha + q.gamma)
        diag_a1 = [
            mpf(-1) ** n * _frac_to_mpf(Fraction(n) + two_ag + Fraction(3, 2))
            for n in range(N)
        ]
        diag_a2 = [_frac_to_mpf(data.c_mod[n].re) for n in range(N)]
        offdiag = [mp.sqrt(_frac_to_mpf(data.u_mod[n].re)) for n in range(1, N)]
    return TridiagonalRep(
        size=N,
        precision_digits=precision_digits,
        params=q,
        diag_a1=diag_a1,
        diag_a2=diag_a2,
        offdiag_a2=offdiag,
    )


def _frac_to_mpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / mpf(x.denominator)


def _matmul(a, b):
    """Dense product with zero-skipping; matrices here are banded."""
    n = len(a)
    out = [[mpf(0)] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            v = ai[k]
            if v == 0:
                continue
            bk = b[k]
            for j in range(n):
                if bk[j] != 0:
                    oi[j] += v * bk[j]
    return out


def _mat_lincomb(*pairs):
    n = len(pairs[0][1])
    out = [[mpf(0)] * n for _ in range(n)]
    for coeff, m in pairs:
        for i in range(n):
            for j in range(n):
                if m[i][j] != 0:
                    out[i][j] += coeff * m[i][j]
    return out


def _add_scalar_diag(m, s):
    for i in range(len(m)):
        m[i][i] += s
    return m


def _interior_max_abs(m, top: int) -> mpf:
    """Max |entry| over rows and columns 0..top inclusive."""
    best = mpf(0)
    for i in range(top + 1):
        for j in range(top + 1):
            v = abs(m[i][j])
            if v > best:
                best = v
    return best


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
        digits = self.precision_digits
        return {
            "N": self.size,
            "precision_digits": digits,
            "interior_block": self.interior_block,
            "residuals": {
                "rel2": mp.nstr(self.residual_rel2, 6),
                "rel3": mp.nstr(self.residual_rel3, 6),
                "casimir": mp.nstr(self.residual_casimir, 6),
            },
            "tolerance": mp.nstr(self.tolerance, 6),
            "pass": self.passed,
        }


def rep_tolerance(precision_digits: int) -> mpf:
    """Acceptance threshold: 1e-25 at 30 digits, 1e-12 at double precision."""
    if precision_digits <= MIN_PRECISION:
        return mpf(10) ** (-12)
    return mpf(10) ** (-(precision_digits - 5))


def verify_rep_relations(rep: TridiagonalRep,
                         constants: Optional[StructureConstants] = None) -> RepReport:
    """Residuals of the two non-compact relations and the Casimir identity.

    A3 := {A1, A2} - alpha3*I; residuals are measured on the interior
    block 0..N-4.  ``constants`` overrides the structure constants (the
    supported negative control).
    """
    if rep.size < 6:
        raise InvalidParameters("need N >= 6 for a nonempty interior block")
    p = ParameterSet.from_quad(rep.params)
    sc = constants if constants is not None else structure_constants(p)
    cas = casimir_scalar(p)
    for val, name in ((sc.alpha1, "alpha1"), (sc.alpha2, "alpha2"),
                      (sc.alpha3, "alpha3"), (cas, "casimir")):
        if not val.is_real():
            raise InvalidParameters(f"{name} is not real for these parameters")

    with mp.workdps(rep.precision_digits + _PRODUCT_GUARD_DPS):
        a1 = rep.a1_matrix()
        a2 = rep.a2_matrix()
        alpha1 = _frac_to_mpf(sc.alpha1.re)
        alpha2 = _frac_to_mpf(sc.alpha2.re)
        alpha3 = _frac_to_mpf(sc.alpha3.re)
        cas_val = _frac_to_mpf(cas.re)

        a1a2 = _matmul(a1, a2)
        a2a1 = _matmul(a2, a1)
        a3 = _add_scalar_diag(_mat_lincomb((mpf(1), a1a2), (mpf(1), a2a1)), -alpha3)

        rel2 = _add_scalar_diag(
            _mat_lincomb((mpf(1), _matmul(a2, a3)), (mpf(1), _matmul(a3, a2)), (mpf(1), a1)),
            -alpha1,
        )
        rel3 = _add_scalar_diag(
            _mat_lincomb((mpf(1), _matmul(a3, a1)), (mpf(1), _matmul(a1, a3)), (mpf(-1), a2)),
            -alpha2,
        )
        casm = _add_scalar_diag(
            _mat_lincomb((mpf(1), _matmul(a1, a1)), (mpf(-1), _matmul(a2, a2)),
                         (mpf(-1), _matmul(a3, a3))),
            -cas_val,
        )

        top = rep.size - 4
        r2 = _interior_max_abs(rel2, top)
        r3 = _interior_max_abs(rel3, top)
        rc = _interior_max_abs(casm, top)

    tol = rep_tolerance(rep.precision_digits)
    return RepReport(
        size=rep.size,
        precision_digits=rep.precision_digits,
        interior_block=top,
        residual_rel2=r2,
        residual_rel3=r3,
        residual_casimir=rc,
        tolerance=tol,
        passed=bool(max(r2, r3, rc) <= tol),
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
    data = q_modified_coefficients(n_max, q)
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
