"""The three polynomial families and their exact recurrence data.

Builds the monic Bannai-Ito polynomials B_n, the modified family
Q_n(x) = (-i)^n B_n(ix), and the non-symmetric Wilson polynomials p_n,
from one record per parameter set that keeps its recurrence data and B_n
for the life of the process; also eigenvalues, the structure constants
of both algebras and their Casimir value, the parameter bijection
between the Bannai-Ito and Hecke-algebra parametrizations, the symmetry
checks of the modified family, decided on its c_n and u_n, and the
proof that the closed forms of its c_n and u_n equal the recurrence's
for every n, run once per process for every real quad at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Callable, List, NamedTuple, Tuple

from .errors import BiwkitError, DegenerateParameters
from .exact import HALF, I, ONE, QUARTER, ZERO, ComplexRational, Polynomial, RationalFunction

THREE_HALVES = ComplexRational(Fraction(3, 2))
# How many parameter sets' records (recurrence data and B_n) and operators a
# process keeps.  ``biwkit all`` meets seven: its own, three random ones and
# the three permutations of ``q_symmetry_check``, whose records hold only
# recurrence data while the symmetries hold.
SHARED_SETS = 8


def document_key(key: str, **kwargs):
    """A report field that its ``biwkit/2`` document writes under ``key``, not its name."""
    return field(metadata={"key": key}, **kwargs)


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

    @cached_property
    def total(self) -> ComplexRational:
        return self.a + self.b + self.c + self.d

    def is_conjugate_paired(self) -> bool:
        """True when {c, d} = {conj(a), conj(b)} in some order."""
        ca, cb = self.a.conjugate(), self.b.conjugate()
        return (self.c == ca and self.d == cb) or (self.c == cb and self.d == ca)


@dataclass(frozen=True)
class StructureConstants:
    """Structure constants of the compact (omega) and non-compact (alpha) algebras."""

    omega1: ComplexRational
    omega2: ComplexRational
    omega3: ComplexRational
    alpha1: ComplexRational
    alpha2: ComplexRational
    alpha3: ComplexRational


def structure_constants(p: ParameterSet) -> StructureConstants:
    """The constants of ``p``: a ParameterSet, or a ``_Pairing`` of numbers or symbols."""
    a, b, c, d = p.a, p.b, p.c, p.d
    omega1 = 4 * (a * b + c * d) + p.total + HALF
    omega2 = 2 * (a * a + b * b - c * c - d * d) + (a + b - c - d)
    omega3 = 4 * (a * b - c * d) + (a + b - c - d)
    return StructureConstants(
        omega1=omega1,
        omega2=omega2,
        omega3=omega3,
        alpha1=-omega1,
        alpha2=-I * omega2,
        alpha3=-I * omega3,
    )


def casimir_scalar(p: ParameterSet) -> ComplexRational:
    """Value taken by the Casimir element in both polynomial realizations."""
    a, b, c, d = p.a, p.b, p.c, p.d
    return 2 * (a * a + b * b + c * c + d * d) + p.total + QUARTER


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


@dataclass
class RecurrenceData:
    """Exact recurrence coefficients for B_n and Q_n, index-aligned by n.

    ``A`` and ``C`` are the parity-branching coefficients of the B_n
    recurrence; ``b_coeff[n]`` is the diagonal term 2a+1-A_n-C_n;
    ``c_mod[n] = -i*b_coeff[n]`` and ``u_mod[n] = -A_{n-1}*C_n`` are the
    recurrence coefficients of the modified family (u_mod[0] = 0 by
    convention; it multiplies only B_{-1} = 0).
    """

    A: List[ComplexRational] = field(default_factory=list)
    C: List[ComplexRational] = field(default_factory=list)
    b_coeff: List[ComplexRational] = field(default_factory=list)
    c_mod: List[ComplexRational] = field(default_factory=list)
    u_mod: List[ComplexRational] = field(default_factory=list)


def check_denominators(n_max: int, s: ComplexRational) -> None:
    """Raise DegenerateParameters at the least n <= n_max where the recurrence divides by zero.

    A_n divides by 2(n+s+2) and C_n by 2(n+s+1), s = a+b+c+d; at each n the
    first is checked before the second.  Both vanish only for s a real
    integer, so the answer is read from s alone.
    """
    if s.im or s.re.denominator != 1:
        return
    for n, shift in ((-s.re.numerator - 2, 2), (-s.re.numerator - 1, 1)):
        if 0 <= n <= n_max:
            raise DegenerateParameters(f"denominator n+a+b+c+d+{shift} vanishes at n={n}", n=n)


def _shifts(p: ParameterSet):
    """The shifts (e1, e2, e3, e4) of ``_branch`` for even n, then for odd n."""
    return ((2 * (p.a + p.c + 1), 2 * (p.a + p.d + 1), ZERO, 2 * (p.c + p.d) + 1),
            (2 * (p.a + p.b + 1), 2 * p.total + 3, 2 * (p.b + p.c) + 1, 2 * (p.b + p.d) + 1))


def _branch(n, shifts, s: ComplexRational):
    """``(A_n, C_n)`` for a number n or the variable n, given the ``_shifts`` of its parity
    and s = a+b+c+d, numbers or symbols: A_n = (n+e1)(n+e2)/(2(n+s+2)),
    C_n = -(n+e3)(n+e4)/(2(n+s+1))."""
    e1, e2, e3, e4 = shifts
    return (n + e1) * (n + e2) / (2 * (n + s + 2)), -((n + e3) * (n + e4)) / (2 * (n + s + 1))


@lru_cache(maxsize=SHARED_SETS)
def _record(p: ParameterSet) -> Tuple[RecurrenceData, List[Polynomial]]:
    """The recurrence data and the B_n of ``p`` computed so far, as ``(data, [B_0, ...])``;
    ``bi_coefficients`` and ``bi_polynomials`` extend them."""
    return RecurrenceData(), [Polynomial.one()]


def bi_coefficients(n_max: int, p: ParameterSet) -> RecurrenceData:
    """Exact A_n, C_n for 0 <= n <= n_max, plus the modified c_n, u_n, as new lists.

    Each parameter set's data are computed once per process and extended when
    a longer run is asked for.  Raises DegenerateParameters if a recurrence
    denominator vanishes, reporting the offending n.
    """
    check_denominators(n_max, p.total)
    data = _record(p)[0]
    if len(data.A) <= n_max:
        shifts, diag0 = _shifts(p), 2 * p.a + 1
        for n in range(len(data.A), n_max + 1):
            A, C = _branch(n, shifts[n % 2], p.total)
            diag = diag0 - A - C
            data.A.append(A)
            data.C.append(C)
            data.b_coeff.append(diag)
            data.c_mod.append(-I * diag)
            data.u_mod.append(-(data.A[n - 1] * C) if n else ZERO)
    return RecurrenceData(*(values[:n_max + 1] for values in vars(data).values()))


def bi_polynomials(n_max: int, p: ParameterSet) -> List[Polynomial]:
    """Monic B_0..B_{n_max} from the three-term recurrence, as a new list.

    Each parameter set's family is built once per process and extended when
    a longer one is asked for.
    """
    polys = _record(p)[1]
    if len(polys) <= n_max:
        data = bi_coefficients(n_max, p)
        for n in range(len(polys) - 1, n_max):
            # B_{n+1} = x B_n - b_n B_n + u_n B_{n-1}; u_0 = 0 multiplies B_{-1} = 0.
            prev = polys[n - 1] if n else Polynomial.zero()
            polys.append(Polynomial.combination(
                [(ONE, 1, polys[n]), (-data.b_coeff[n], 0, polys[n]), (data.u_mod[n], 0, prev)]))
    return polys[:n_max + 1]


def bi_eigenvalue(n: int, p: ParameterSet) -> ComplexRational:
    """Eigenvalue lambda_n = (-1)^n (n + a+b+c+d + 3/2)."""
    lam = n + p.total + THREE_HALVES
    return -lam if n % 2 else lam


def affine_family(polys: List[Polynomial], scale, s, t) -> List[Polynomial]:
    """The family scale^n * P_n(s*x + t) of ``polys`` = [P_0, P_1, ...], exactly."""
    return [poly.affine_substitute(s, t, scale ** n) for n, poly in enumerate(polys)]


def q_polynomials(n_max: int, p: ParameterSet) -> List[Polynomial]:
    """Modified polynomials Q_n(x) = (-i)^n B_n(ix), monic of degree n <= n_max."""
    return affine_family(bi_polynomials(n_max, p), -I, I, 0)


class _Pairing(NamedTuple):
    """a = alpha+i*beta, b = gamma+i*delta, c = alpha-i*beta, d = gamma-i*delta and their sum,
    for numbers or symbols: what ``_shifts`` and ``structure_constants`` read of a ParameterSet."""

    a: object
    b: object
    c: object
    d: object
    total: object

    @staticmethod
    def of(al, be, ga, de) -> "_Pairing":
        a, b, c, d = al + I * be, ga + I * de, al - I * be, ga - I * de
        return _Pairing(a, b, c, d, a + b + c + d)


class ModifiedClosedForm:
    """The closed formulas of the modified c_n and u_n for one real quad, or for every one.

    c_n = (2*alpha3*lambda_n + alpha2)/(4*lambda_n^2 - 1), from {A3, A1} =
    A2 + alpha2 on the eigenvectors of M, has denominator 4*d1*(d1+1), d1 =
    n+2(alpha+gamma)+1.  u_n = (n-r1)(n-r2)*(d1^2 + sq)/(4*d1^2) with (r1,
    r2) = ``roots[parity]`` and sq = ``squares[parity]``, 4(beta+delta)^2
    (even n) or 4(beta-delta)^2 (odd n).  All of these are real.

    ``q`` is a RealParameterQuad, or the symbols (alpha, beta, gamma, delta) of
    ``RationalFunction.symbols()``: the same code then writes every formula as
    a rational function of the parameters.  Only ``roots`` is built with the
    object; the pairing ``p``, ``sc`` and ``squares`` are built on first read.
    """

    def __init__(self, q):
        if isinstance(q, RealParameterQuad):
            q = (ComplexRational(v) for v in (q.alpha, q.beta, q.gamma, q.delta))
        self.q = al, _, ga, _ = tuple(q)
        # Even n: n(n+4alpha+4gamma+2); odd n: (n+4alpha+1)(n+4gamma+1).
        self.roots = ((ZERO, -4 * al - 4 * ga - 2), (-4 * al - 1, -4 * ga - 1))

    @cached_property
    def p(self) -> _Pairing:
        return _Pairing.of(*self.q)

    @cached_property
    def sc(self) -> StructureConstants:
        return structure_constants(self.p)

    @cached_property
    def squares(self):
        _, be, _, de = self.q
        return (2 * (be + de)) ** 2, (2 * (be - de)) ** 2

    def at(self, n, parity: int):
        """``(c_n, u_n)`` for a number n of the given parity, or for the variable n."""
        lam = (n + self.p.total + THREE_HALVES) * (1 - 2 * parity)
        c_n = (2 * self.sc.alpha3 * lam + self.sc.alpha2) / (4 * lam * lam - 1)
        d1 = n + self.p.total + 1
        r1, r2 = self.roots[parity]
        return c_n, (n - r1) * (n - r2) * (d1 * d1 + self.squares[parity]) / (4 * d1 * d1)


def q_modified_coefficients(n_max: int, q: RealParameterQuad) -> RecurrenceData:
    """The modified recurrence's exact c_n, u_n: ``bi_coefficients`` under the conjugate pairing."""
    return bi_coefficients(n_max, ParameterSet.from_quad(q))


def _disagrees(coefficient: str, parity: int) -> BiwkitError:
    """The error naming ``coefficient`` on the parity class, also as its ``first_failure``."""
    cls = ("even", "odd")[parity]
    return BiwkitError(f"{coefficient} closed form disagrees with recurrence on {cls} n",
                       {"coefficient": coefficient, "parity": cls})


def _closed_form_differences(closed: ModifiedClosedForm):
    """``(name, parity, closed form minus recurrence)`` for c and u on each parity class, odd n
    first, as rational functions of n and of the symbols ``closed`` was built on, if any.

    A_{n-1} is the other class's A_n shifted by -1.  A zero numerator means that the two
    agree at every n of the class where neither divides by zero.
    """
    p, n = closed.p, RationalFunction(Polynomial.x())
    branches = [_branch(n, shifts, p.total) for shifts in _shifts(p)]
    for parity in (1, 0):
        (A, C), (c_n, u_n) = branches[parity], closed.at(n, parity)
        c_rec, u_rec = -I * (2 * p.a + 1 - A - C), -(branches[1 - parity][0].shift(-1) * C)
        yield "c", parity, c_n - c_rec
        yield "u", parity, u_n - u_rec


@cache
def _disagreement_for_every_quad():
    """``(name, parity)`` of the first difference of ``_closed_form_differences`` on the symbols
    alpha..delta with a nonzero numerator, or None.  It takes no input, so it runs at most once
    per process, on first use."""
    closed = ModifiedClosedForm(RationalFunction.symbols())
    return next(((name, parity) for name, parity, diff in _closed_form_differences(closed)
                 if not diff.num.is_zero()), None)


def prove_closed_forms_for_every_quad() -> None:
    """Prove that the closed forms of c_n and u_n equal the recurrence for every real quad.

    Closed form minus recurrence has the zero numerator as a rational function of n,
    alpha, beta, gamma and delta on each parity class, so at any real quad the two agree
    at every n where neither divides by zero.  Otherwise raises BiwkitError naming the
    class and c_n or u_n, also as its ``first_failure``.
    """
    failure = _disagreement_for_every_quad()
    if failure is not None:
        name, parity = failure
        raise _disagrees(f"{name}_n", parity)


def prove_closed_forms(q: RealParameterQuad) -> ModifiedClosedForm:
    """Prove that ``ModifiedClosedForm(q)`` equals the recurrence for every n, and return it.

    Once ``prove_closed_forms_for_every_quad`` holds, only the closed form of ``q`` is
    built.  Otherwise the same differences are taken at ``q``: on each parity class (odd n
    first) closed form minus recurrence must have the zero numerator as a rational function
    of n, or this raises BiwkitError naming the class and c_k or u_k at the least k >= 1 of
    it where the difference is defined and nonzero, also as its ``first_failure``.
    """
    closed = ModifiedClosedForm(q)
    if _disagreement_for_every_quad() is None:
        return closed
    for name, parity, diff in _closed_form_differences(closed):
        if not diff.num.is_zero():
            k = 2 - parity
            while diff.num(k).is_zero() or diff.den(k).is_zero():
                k += 2
            raise _disagrees(f"{name}_{k}", parity)
    return closed


def param_map_bi_to_daha(p: ParameterSet) -> DAHAParameterSet:
    """(a,b,c,d) -> (t0,t1,u0,u1) = ((c+d)/2+1/4, (a+b)/2+1/4, (c-d)/2, (a-b)/2)."""
    return DAHAParameterSet(
        t0=(p.c + p.d) * HALF + QUARTER,
        t1=(p.a + p.b) * HALF + QUARTER,
        u0=(p.c - p.d) * HALF,
        u1=(p.a - p.b) * HALF,
    )


def param_map_daha_to_bi(t: DAHAParameterSet) -> ParameterSet:
    """Inverse of param_map_bi_to_daha; exact round-trip both ways."""
    return ParameterSet(
        a=t.t1 + t.u1 - QUARTER,
        b=t.t1 - t.u1 - QUARTER,
        c=t.t0 + t.u0 - QUARTER,
        d=t.t0 - t.u0 - QUARTER,
    )


def nonsym_wilson_family(n_max: int, t: DAHAParameterSet) -> List[Polynomial]:
    """Non-symmetric Wilson p_n(z) = (-2)^{-n} B_n(1/2 - 2z), monic in z, n <= n_max."""
    return affine_family(bi_polynomials(n_max, param_map_daha_to_bi(t)), Fraction(-1, 2), -2, HALF)


def wilson_eigenvalue(n: int, t: DAHAParameterSet) -> ComplexRational:
    """gamma_{2m} = t0+t1+m, gamma_{2m-1} = -(t0+t1+m)."""
    if n % 2 == 0:
        return t.t0 + t.t1 + ComplexRational(n // 2)
    return -(t.t0 + t.t1 + ComplexRational((n + 1) // 2))


@dataclass
class SymmetryCheck:
    identity: str
    passed: bool = document_key("pass", init=False)
    per_n: List[bool]

    def __post_init__(self):
        self.passed = all(self.per_n)


@dataclass
class SymmetryReport:
    n_max: int
    checks: List[SymmetryCheck]
    passed: bool = document_key("pass", init=False)

    def __post_init__(self):
        self.passed = all(c.passed for c in self.checks)


def q_symmetry_check(n_max: int, p: ParameterSet) -> SymmetryReport:
    """Coefficient-exact check of the three Q_n parameter symmetries, decided on the data.

    As Q_{k+1} - xQ_k = -c_k Q_k - u_k Q_{k-1} fixes c_k and u_k, two monic families agree at
    every n <= N iff their c_k (k < N) and u_k (1 <= k < N) do; (-1)^n Q_n(-x) has c_k negated.
    Only where the data differ are the families built and compared n by n.  The data run to
    n_max, so a set degenerate at n = n_max raises as building Q_{n_max} does.
    """
    base = bi_coefficients(n_max, p)
    checks = []
    for identity, other, sign in (
            ("Q_n(x;a,b,c,d) = Q_n(x;b,a,c,d)", ParameterSet(p.b, p.a, p.c, p.d), 1),
            ("Q_n(x;a,b,c,d) = Q_n(x;a,b,d,c)", ParameterSet(p.a, p.b, p.d, p.c), 1),
            ("Q_n(x;a,b,c,d) = (-1)^n Q_n(-x;c,d,a,b)", ParameterSet(p.c, p.d, p.a, p.b), -1)):
        data = bi_coefficients(n_max, other)
        if (data.u_mod[1:n_max] == base.u_mod[1:n_max]
                and [sign * c for c in data.c_mod[:n_max]] == base.c_mod[:n_max]):
            per_n = [True] * (n_max + 1)
        else:
            family = affine_family(q_polynomials(n_max, other), sign, sign, 0)
            per_n = [q == r for q, r in zip(q_polynomials(n_max, p), family)]
        checks.append(SymmetryCheck(identity, per_n))
    return SymmetryReport(n_max, checks)


def family_to_json(n_max: int, p: ParameterSet,
                   family: Callable[[int, ParameterSet], List[Polynomial]]) -> dict:
    """Document tree for ``family`` (``bi_polynomials`` or ``q_polynomials``):
    its polynomials, the eigenvalues and the recurrence data."""
    polys = family(n_max, p)
    data = bi_coefficients(n_max, p)
    return {
        "params": p,
        "n_max": n_max,
        "polynomials": polys,
        "lambda": [bi_eigenvalue(n, p) for n in range(n_max + 1)],
        "recurrence": {"A": data.A, "C": data.C, "c": data.c_mod, "u": data.u_mod},
    }
