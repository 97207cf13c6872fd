"""The three polynomial families and their exact recurrence data.

Builds the monic Bannai-Ito polynomials B_n, the modified family
Q_n(x) = (-i)^n B_n(ix), and the non-symmetric Wilson polynomials p_n,
together with recurrence coefficients, eigenvalues, the parameter
bijection between the Bannai-Ito and Hecke-algebra parametrizations,
and the coefficient-level symmetry checks of the modified family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from .errors import BiwkitError, DegenerateParameters
from .exact import I, ONE, ComplexRational, Polynomial


@dataclass(frozen=True)
class RealParameterQuad:
    """Real parameters (alpha, beta, gamma, delta) for the conjugate pairing."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def all_positive(self) -> bool:
        return min(self.alpha, self.beta, self.gamma, self.delta) > 0

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in ("alpha", "beta", "gamma", "delta")}


@dataclass(frozen=True)
class ParameterSet:
    """The Bannai-Ito parameter quadruple (a, b, c, d)."""

    a: ComplexRational
    b: ComplexRational
    c: ComplexRational
    d: ComplexRational

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, ComplexRational.coerce(getattr(self, name)))

    @staticmethod
    def from_quad(q: RealParameterQuad) -> "ParameterSet":
        """Conjugate pairing a = alpha+i*beta, b = gamma+i*delta, c = conj(a), d = conj(b)."""
        a = ComplexRational(q.alpha, q.beta)
        b = ComplexRational(q.gamma, q.delta)
        return ParameterSet(a, b, a.conjugate(), b.conjugate())

    @property
    def total(self) -> ComplexRational:
        return self.a + self.b + self.c + self.d

    def is_conjugate_paired(self) -> bool:
        """True when {c, d} = {conj(a), conj(b)} in some order."""
        ca, cb = self.a.conjugate(), self.b.conjugate()
        return (self.c == ca and self.d == cb) or (self.c == cb and self.d == ca)

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in "abcd"}


@dataclass(frozen=True)
class DAHAParameterSet:
    """The Hecke-algebra parameter quadruple (t0, t1, u0, u1)."""

    t0: ComplexRational
    t1: ComplexRational
    u0: ComplexRational
    u1: ComplexRational

    def __post_init__(self):
        for name in ("t0", "t1", "u0", "u1"):
            object.__setattr__(self, name, ComplexRational.coerce(getattr(self, name)))

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in ("t0", "t1", "u0", "u1")}


@dataclass
class RecurrenceData:
    """Exact recurrence coefficients for B_n and Q_n, index-aligned by n.

    ``A`` and ``C`` are the parity-branching coefficients of the B_n
    recurrence; ``b_coeff[n]`` is the diagonal term 2a+1-A_n-C_n;
    ``c_mod[n] = -i*b_coeff[n]`` and ``u_mod[n] = -A_{n-1}*C_n`` are the
    recurrence coefficients of the modified family (u_mod[0] = 0 by
    convention; it enters no relation).
    """

    A: List[ComplexRational] = field(default_factory=list)
    C: List[ComplexRational] = field(default_factory=list)
    b_coeff: List[ComplexRational] = field(default_factory=list)
    c_mod: List[ComplexRational] = field(default_factory=list)
    u_mod: List[ComplexRational] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"A": self.A, "C": self.C, "c": self.c_mod, "u": self.u_mod}


def bi_coefficients(n_max: int, p: ParameterSet) -> RecurrenceData:
    """Exact A_n, C_n for 0 <= n <= n_max, plus the modified c_n, u_n.

    Raises DegenerateParameters if a recurrence denominator vanishes,
    reporting the offending n.
    """
    s = p.total
    data = RecurrenceData()
    two = ComplexRational(2)
    for n in range(n_max + 1):
        cn = ComplexRational(n)
        den_a = two * (cn + s + 2)
        den_c = two * (cn + s + 1)
        if den_a.is_zero():
            raise DegenerateParameters(f"denominator n+a+b+c+d+2 vanishes at n={n}", n=n)
        if den_c.is_zero():
            raise DegenerateParameters(f"denominator n+a+b+c+d+1 vanishes at n={n}", n=n)
        if n % 2 == 0:
            A = (cn + 2 * p.a + 2 * p.c + 2) * (cn + 2 * p.a + 2 * p.d + 2) / den_a
            C = -(cn * (cn + 2 * p.c + 2 * p.d + 1)) / den_c
        else:
            A = (cn + 2 * p.a + 2 * p.b + 2) * (cn + 2 * (p.a + p.b + p.c + p.d) + 3) / den_a
            C = -((cn + 2 * p.b + 2 * p.c + 1) * (cn + 2 * p.b + 2 * p.d + 1)) / den_c
        diag = 2 * p.a + 1 - A - C
        data.A.append(A)
        data.C.append(C)
        data.b_coeff.append(diag)
        data.c_mod.append(-I * diag)
        data.u_mod.append(ComplexRational(0) if n == 0 else -(data.A[n - 1] * C))
    return data


def bi_polynomials(n_max: int, p: ParameterSet) -> List[Polynomial]:
    """Monic B_0..B_{n_max} from the three-term recurrence."""
    data = bi_coefficients(n_max, p)
    polys = [Polynomial.one()]
    if n_max == 0:
        return polys
    x = Polynomial.x()
    prev, cur = Polynomial.zero(), polys[0]
    for n in range(n_max):
        nxt = (x - data.b_coeff[n]) * cur - (data.A[n - 1] * data.C[n] if n >= 1 else ComplexRational(0)) * prev
        polys.append(nxt)
        prev, cur = cur, nxt
    return polys


def bi_eigenvalue(n: int, p: ParameterSet) -> ComplexRational:
    """Eigenvalue lambda_n = (-1)^n (n + a+b+c+d + 3/2)."""
    sign = 1 if n % 2 == 0 else -1
    return ComplexRational(sign) * (ComplexRational(n) + p.total + ComplexRational(Fraction(3, 2)))


def q_polynomials(n_max: int, p: ParameterSet) -> List[Polynomial]:
    """Modified polynomials Q_n(x) = (-i)^n B_n(ix), monic of degree n <= n_max."""
    out = []
    for n, bn in enumerate(bi_polynomials(n_max, p)):
        out.append(((-I) ** n) * bn.affine_substitute(I, ComplexRational(0)))
    return out


def q_modified_coefficients(n_max: int, q: RealParameterQuad) -> RecurrenceData:
    """Exact c_n and u_n of the modified recurrence from the real quad.

    Computed from the closed parity-branch formulas in (alpha, beta,
    gamma, delta) and cross-checked, term by term, against
    c_n = -i(2a+1-A_n-C_n) and u_n = -A_{n-1}C_n under the conjugate
    pairing; any mismatch means a transcription bug and raises.
    """
    al, be, ga, de = (ComplexRational.coerce(v) for v in (q.alpha, q.beta, q.gamma, q.delta))
    data = bi_coefficients(n_max, ParameterSet.from_quad(q))
    for n in range(n_max + 1):
        # d1 = n+a+b+c+d+1 and d2 = n+a+b+c+d+2: bi_coefficients has rejected their zeros.
        d1 = n + 2 * (al + ga) + 1
        d2 = d1 + 1
        if n % 2 == 0:
            c_n = 2 * be - (n + 4 * al + 2) * (be - de) / d2 - n * (be + de) / d1
            mod2 = d1 * d1 + (2 * (be + de)) ** 2
            u_n = n * (n + 4 * al + 4 * ga + 2) * mod2 / (4 * d1 * d1)
        else:
            c_n = 2 * be - (n + 4 * al + 4 * ga + 3) * (be + de) / d2 - (n + 4 * ga + 1) * (be - de) / d1
            mod2 = d1 * d1 + (2 * (be - de)) ** 2
            u_n = (n + 4 * al + 1) * (n + 4 * ga + 1) * mod2 / (4 * d1 * d1)
        if c_n != data.c_mod[n]:
            raise BiwkitError(f"c_{n} closed form disagrees with recurrence route")
        if n >= 1 and u_n != data.u_mod[n]:
            raise BiwkitError(f"u_{n} closed form disagrees with recurrence route")
    return data


def param_map_bi_to_daha(p: ParameterSet) -> DAHAParameterSet:
    """(a,b,c,d) -> (t0,t1,u0,u1) = ((c+d)/2+1/4, (a+b)/2+1/4, (c-d)/2, (a-b)/2)."""
    quarter = ComplexRational(Fraction(1, 4))
    half = ComplexRational(Fraction(1, 2))
    return DAHAParameterSet(
        t0=(p.c + p.d) * half + quarter,
        t1=(p.a + p.b) * half + quarter,
        u0=(p.c - p.d) * half,
        u1=(p.a - p.b) * half,
    )


def param_map_daha_to_bi(t: DAHAParameterSet) -> ParameterSet:
    """Inverse of param_map_bi_to_daha; exact round-trip both ways."""
    quarter = ComplexRational(Fraction(1, 4))
    return ParameterSet(
        a=t.t1 + t.u1 - quarter,
        b=t.t1 - t.u1 - quarter,
        c=t.t0 + t.u0 - quarter,
        d=t.t0 - t.u0 - quarter,
    )


def nonsym_wilson_family(n_max: int, t: DAHAParameterSet) -> List[Polynomial]:
    """Non-symmetric Wilson p_n(z) = (-2)^{-n} B_n(1/2 - 2z), monic in z, n <= n_max."""
    p = param_map_daha_to_bi(t)
    scale = ComplexRational(Fraction(-1, 2))
    out = []
    for n, bn in enumerate(bi_polynomials(n_max, p)):
        out.append((scale ** n) * bn.affine_substitute(ComplexRational(-2), ComplexRational(Fraction(1, 2))))
    return out


def wilson_eigenvalue(n: int, t: DAHAParameterSet) -> ComplexRational:
    """gamma_{2m} = t0+t1+m, gamma_{2m-1} = -(t0+t1+m)."""
    if n % 2 == 0:
        return t.t0 + t.t1 + ComplexRational(n // 2)
    return -(t.t0 + t.t1 + ComplexRational((n + 1) // 2))


@dataclass
class SymmetryCheck:
    identity: str
    results: List[bool]

    @property
    def passed(self) -> bool:
        return all(self.results)


@dataclass
class SymmetryReport:
    n_max: int
    checks: List[SymmetryCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "checks": [
                {"identity": c.identity, "pass": c.passed, "per_n": c.results}
                for c in self.checks
            ],
            "pass": self.passed,
        }


def q_symmetry_check(n_max: int, p: ParameterSet) -> SymmetryReport:
    """Coefficient-exact check of the three Q_n parameter symmetries."""
    base = q_polynomials(n_max, p)
    swap_ab = q_polynomials(n_max, ParameterSet(p.b, p.a, p.c, p.d))
    swap_cd = q_polynomials(n_max, ParameterSet(p.a, p.b, p.d, p.c))
    swapped = q_polynomials(n_max, ParameterSet(p.c, p.d, p.a, p.b))
    minus_one = ComplexRational(-1)
    checks = [
        SymmetryCheck("Q_n(x;a,b,c,d) = Q_n(x;b,a,c,d)",
                      [base[n] == swap_ab[n] for n in range(n_max + 1)]),
        SymmetryCheck("Q_n(x;a,b,c,d) = Q_n(x;a,b,d,c)",
                      [base[n] == swap_cd[n] for n in range(n_max + 1)]),
        SymmetryCheck("Q_n(x;a,b,c,d) = (-1)^n Q_n(-x;c,d,a,b)",
                      [base[n] == (minus_one ** n) * swapped[n].affine_substitute(minus_one, ComplexRational(0))
                       for n in range(n_max + 1)]),
    ]
    return SymmetryReport(n_max=n_max, checks=checks)


def family_to_json(n_max: int, p: ParameterSet, kind: str = "bi") -> dict:
    """Document tree for a constructed family: polynomials, eigenvalues, recurrence."""
    if kind == "bi":
        polys = bi_polynomials(n_max, p)
    elif kind == "q":
        polys = q_polynomials(n_max, p)
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    data = bi_coefficients(n_max, p)
    return {
        "params": p.to_json(),
        "n_max": n_max,
        "polynomials": polys,
        "lambda": [bi_eigenvalue(n, p) for n in range(n_max + 1)],
        "recurrence": data.to_json(),
    }
