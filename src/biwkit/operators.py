"""Difference-reflection operators and exact verification of their algebras.

An operator is a linear map on exact polynomials, given by its image of
each monomial x^k and memoizing that image per object: its column list in
the monomial basis.  Every operator of the paper is built from polynomial
multiples, affine substitutions and divided-difference blocks
num/den * (f o sigma - f), where sigma is an affine map s*x + t and den
the linear factor vanishing at its fixed point (2x+1, 2x-1, 1-2ix, 1+2ix,
1-2z or 2z).  Such a block is exactly divisible on its own, so each block
divides where it occurs and every image is a polynomial.

Applying an operator to f is a linear combination of its images.  Sums,
differences, negations and scalar multiples make one flat node: a list of
(scalar, operator) terms, like operators merged, whose image of x^k is one
exact combination of the terms' memoized images.  A product applies its
left factor to the image of its right factor.  Every
relation is checked on the images of x^0..x^degree, column by column of
its matrix.  A block is checked once, when it is built: with r the root
of den, it preserves every polynomial iff num(r) * (sigma(r) - r) is zero.
Otherwise it was transcribed incorrectly, and building it raises
OperatorNotPolynomialPreserving naming the block.

Each relation set (the involution relations of four generators, the
Bannai-Ito anticommutator relations, the Casimir in both forms) is stated
once, as a function from generators to residual operators.  The algebra,
Casimir and isomorphism checks share that statement and the operators:
L, M, the four generators and each realization triple are built once per
parameter set and process, keyed by the frozen parameter set (equal by
value), so every certificate reuses their images.  Each certificate
builds only its own residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional

from .errors import InvalidParameters, OperatorNotPolynomialPreserving
from .exact import HALF, I, ONE, QUARTER, ComplexRational, Polynomial
from .polyfam import (
    SHARED_SETS,
    DAHAParameterSet,
    ParameterSet,
    StructureConstants,
    affine_family,
    bi_eigenvalue,
    bi_polynomials,
    casimir_scalar,
    document_key,
    nonsym_wilson_family,
    param_map_bi_to_daha,
    q_polynomials,
    structure_constants,
    wilson_eigenvalue,
)


class DifferenceOperator:
    """A linear operator on polynomials, given by ``image_of(k)``, its image of x^k.

    A flat node (see ``_flat``) also holds its ``terms``; any other operator has none.
    """

    def __init__(self, image_of: Callable[[int], Polynomial], terms: tuple = ()):
        self._image_of = image_of
        self._images: Dict[int, Polynomial] = {}
        self.terms = terms

    def image(self, k: int) -> Polynomial:
        """The image of x^k, computed once per operator object."""
        img = self._images.get(k)
        if img is None:
            img = self._images[k] = self._image_of(k)
        return img

    def apply(self, p: Polynomial) -> Polynomial:
        """The sum of p_k times the image of x^k."""
        return p.linear_map(self.image)

    def __add__(self, other):
        return _flat((1, self), (1, other))

    __radd__ = __add__

    def __sub__(self, other):
        return _flat((1, self), (-1, other))

    def __rsub__(self, other):
        return _flat((1, other), (-1, self))

    def __neg__(self):
        return _flat((-1, self))

    def __mul__(self, other):
        if isinstance(other, DifferenceOperator):
            return DifferenceOperator(lambda k: self.apply(other.image(k)))
        return _flat((ComplexRational.coerce(other), self))

    __rmul__ = __mul__  # reached only with a scalar on the left


_IDENTITY = DifferenceOperator(Polynomial.monomial)
_ONE_POLY = Polynomial.one()


def _flat(*operands) -> DifferenceOperator:
    """The sum of c * v over the (scalar c, v) operands, v an operator or a plain scalar, as
    one node of terms: a flat v gives its terms, a scalar v the term (v, identity).  Terms
    of one operator object merge, and zero terms drop out."""
    merged = {}
    for c, v in operands:
        terms = ((v.terms or ((ONE, v),)) if isinstance(v, DifferenceOperator)
                 else ((ComplexRational.coerce(v), _IDENTITY),))
        for e, op in terms:
            e = e if c == 1 else c * e
            merged[op] = merged[op] + e if op in merged else e
    terms = tuple((c, op) for op, c in merged.items() if not c.is_zero())
    return DifferenceOperator(lambda k: Polynomial.combination(
        [(c, k, _ONE_POLY) if op is _IDENTITY else (c, 0, op.image(k)) for c, op in terms]), terms)


def Substitution(s, t) -> DifferenceOperator:
    """Composition with an affine map: (Op f)(x) = f(s*x + t)."""
    s, t = ComplexRational.coerce(s), ComplexRational.coerce(t)
    return DifferenceOperator(lambda k: Polynomial.monomial(k).affine_substitute(s, t))


def PolynomialMultiple(poly: Polynomial) -> DifferenceOperator:
    """Multiplication by ``poly``."""
    return DifferenceOperator(lambda k: poly * Polynomial.monomial(k))


def DividedDifference(num: Polynomial, den: Polynomial, s, t) -> DifferenceOperator:
    """The block f -> num * (f o sigma - f) / den, sigma(x) = s*x + t, divided exactly.

    ``den`` must be linear, with root r.  Unless w = num(r) * (sigma(r) - r)
    is zero, the block leaves the remainder w on x, and building it raises
    OperatorNotPolynomialPreserving.  The paper's sigma are -x + (0, -+1, -+i).
    """
    if den.degree != 1:
        raise ValueError(f"divided difference needs a linear denominator, not degree {den.degree}")
    s, t = ComplexRational.coerce(s), ComplexRational.coerce(t)
    d0, d1 = den.coefficient(0), den.coefficient(1)
    if t * d1 != (s - 1) * d0:  # sigma moves r = -d0/d1, as no block of the paper does
        r = -d0 / d1
        w = num(r) * (s * r + t - r)
        if not w.is_zero():
            raise OperatorNotPolynomialPreserving(
                f"block DivDiff({num!r} / {den!r} * (Subst(x -> {s}*x + {t}) - 1)) "
                "leaves a remainder on x", remainder=Polynomial.monomial(0, w))
        num, den = num.exact_div(den), Polynomial.one()  # num(r) = 0: den divides num
    return DifferenceOperator(lambda k: num * (Polynomial.monomial(k).affine_substitute(s, t)
                                               - Polynomial.monomial(k)).exact_div(den))


def anticommutator(a: DifferenceOperator, b: DifferenceOperator) -> DifferenceOperator:
    """{a, b} = ab + ba."""
    return a * b + b * a


@lru_cache(maxsize=SHARED_SETS)
def build_L(p: ParameterSet) -> DifferenceOperator:
    """Dunkl shift operator with B_n as eigenfunctions."""
    x = Polynomial.x()
    term1 = DividedDifference((x + 2 * p.c + 1) * (x + 2 * p.d + 1), 2 * x + 1, -1, -1)
    term2 = DividedDifference((x - 2 * p.a - 1) * (x - 2 * p.b - 1), 2 * x - 1, -1, 1)
    return term1 - term2 + (p.total + ComplexRational(Fraction(3, 2)))


@lru_cache(maxsize=SHARED_SETS)
def build_M(p: ParameterSet) -> DifferenceOperator:
    """Imaginary-shift analog of L with Q_n as eigenfunctions."""
    ix = I * Polynomial.x()
    term1 = DividedDifference((2 * p.a + 1 - ix) * (2 * p.b + 1 - ix), 1 - 2 * ix, -1, -I)
    term2 = DividedDifference((2 * p.c + 1 + ix) * (2 * p.d + 1 + ix), 1 + 2 * ix, -1, I)
    return term1 + term2 + (p.total + ComplexRational(Fraction(3, 2)))


@lru_cache(maxsize=SHARED_SETS)
def build_daha_generators(t: DAHAParameterSet):
    """The four involutive generators (T0, T1, U0, U1) in the variable z."""
    z = Polynomial.x()
    T0 = DividedDifference((t.t0 + t.u0 - z + HALF) * (t.t0 - t.u0 - z + HALF), 1 - 2 * z,
                           -1, 1) + t.t0
    T1 = DividedDifference((t.t1 + t.u1 + z) * (t.t1 - t.u1 + z), 2 * z, -1, 0) + t.t1
    Z = PolynomialMultiple(z)
    U0 = -T0 + Z - HALF
    U1 = -T1 - Z
    return T0, T1, U0, U1


def _realization(p: ParameterSet, sc: StructureConstants, which: str):
    """(X1, X2, X3): X1 = L (compact) or M (noncompact), X2 = x, {X1,X2} = X3 + w3."""
    if which not in ("compact", "noncompact"):
        raise ValueError(f"unknown Casimir form {which!r}")
    return _shared_realization(p, which, sc.omega3 if which == "compact" else sc.alpha3)


@lru_cache(maxsize=SHARED_SETS)
def _shared_realization(p: ParameterSet, which: str, w3: ComplexRational):
    """The triple of ``_realization``, built once per (p, which, w3)."""
    X1 = build_L(p) if which == "compact" else build_M(p)
    X2 = PolynomialMultiple(Polynomial.x())
    return X1, X2, anticommutator(X1, X2) - w3


def _bannai_ito_residuals(X1, X2, X3, w1, w2, w3, sign=1):
    """Residuals of {X2,X3} = sign*X1 + w1, {X3,X1} = X2 + w2, {X1,X2} = X3 + w3."""
    return (anticommutator(X2, X3) - sign * X1 - w1,
            anticommutator(X3, X1) - X2 - w2,
            anticommutator(X1, X2) - X3 - w3)


def _casimir(X1, X2, X3, which: str = "compact") -> DifferenceOperator:
    """X1^2 + X2^2 + X3^2, or X1^2 - X2^2 - X3^2 for the non-compact form."""
    if which == "compact":
        return X1 * X1 + X2 * X2 + X3 * X3
    return X1 * X1 - X2 * X2 - X3 * X3


def _involution_residuals(gens, squares) -> List[DifferenceOperator]:
    """Residuals of g_i^2 = s_i for the four generators and g0+g1+g2+g3 = -1/2."""
    g0, g1, g2, g3 = gens
    return [g * g - s for g, s in zip(gens, squares)] + [g0 + g1 + g2 + g3 + HALF]


@dataclass
class RelationCheck:
    relation: str
    degree_checked: int
    passed: bool = document_key("pass")
    first_failure: Optional[dict] = None


@dataclass
class VerificationReport:
    checks: List[RelationCheck]
    passed: bool = document_key("pass", init=False)

    def __post_init__(self):
        self.passed = all(c.passed for c in self.checks)


def _relation_check(relation: str, degree: int, residuals: Iterable[Polynomial]) -> RelationCheck:
    """Pass iff every residual (indexed 0..degree) is zero; else report the first."""
    if degree < 0:
        raise InvalidParameters(f"{relation}: degree {degree} < 0 checks nothing")
    for k, residual in enumerate(residuals):
        if not residual.is_zero():
            return RelationCheck(
                relation, degree, False,
                first_failure={"monomial_degree": k, "residual_poly": residual},
            )
    return RelationCheck(relation, degree, True)


def _report(degree: int, relations: Iterable[str], residuals) -> VerificationReport:
    """Exact check that each residual operator kills every monomial x^k, k <= degree:
    one RelationCheck per (relation, residual) pair, in order."""
    return VerificationReport([_relation_check(relation, degree,
                                               (op.image(k) for k in range(degree + 1)))
                               for relation, op in zip(relations, residuals)])


def _check_eigen_pairs(op, polys, eigenvalues, relation, degree) -> RelationCheck:
    return _relation_check(relation, degree,
                          (op.apply(poly) - lam * poly for poly, lam in zip(polys, eigenvalues)))


def verify_eigen_bi(n_max: int, p: ParameterSet) -> VerificationReport:
    """L B_n = lambda_n B_n, exactly, for 0 <= n <= n_max."""
    polys = bi_polynomials(n_max, p)
    lams = [bi_eigenvalue(n, p) for n in range(n_max + 1)]
    return VerificationReport(
        [_check_eigen_pairs(build_L(p), polys, lams, "L B_n = lambda_n B_n", n_max)])


def verify_eigen_q(n_max: int, p: ParameterSet) -> VerificationReport:
    """M Q_n = lambda_n Q_n, exactly, for 0 <= n <= n_max."""
    polys = q_polynomials(n_max, p)
    lams = [bi_eigenvalue(n, p) for n in range(n_max + 1)]
    return VerificationReport(
        [_check_eigen_pairs(build_M(p), polys, lams, "M Q_n = lambda_n Q_n", n_max)])


def verify_nonsym_wilson_eigen(n_max: int, t: DAHAParameterSet) -> VerificationReport:
    """(T0 + T1) p_n = gamma_n p_n, exactly, for 0 <= n <= n_max."""
    T0, T1, _, _ = build_daha_generators(t)
    polys = nonsym_wilson_family(n_max, t)
    gammas = [wilson_eigenvalue(n, t) for n in range(n_max + 1)]
    return VerificationReport(
        [_check_eigen_pairs(T0 + T1, polys, gammas, "(T0+T1) p_n = gamma_n p_n", n_max)]
    )


def bi_realization(p: ParameterSet):
    """(K1, K2, K3, constants) with K3 defined by the first algebra relation."""
    sc = structure_constants(p)
    return (*_realization(p, sc, "compact"), sc)


def verify_bi_algebra(p: ParameterSet, degree: int,
                      constants: Optional[StructureConstants] = None) -> VerificationReport:
    """Check the two compact-algebra relations not used to define K3.

    ``constants`` overrides the computed structure constants; passing a
    perturbed set is the supported negative control.
    """
    sc = constants if constants is not None else structure_constants(p)
    residuals = _bannai_ito_residuals(*_realization(p, sc, "compact"),
                                      sc.omega1, sc.omega2, sc.omega3)
    return _report(degree, ["{K2,K3} = K1 + omega1", "{K3,K1} = K2 + omega2"], residuals[:2])


def verify_nc_algebra(p: ParameterSet, degree: int,
                      flip_first_sign: bool = False) -> VerificationReport:
    """Check the two non-compact relations; note the -A1 sign.

    ``flip_first_sign=True`` tests the (wrong) compact-style sign
    {A2,A3} = +A1 + alpha1 and must fail; it exists as a negative control
    distinguishing the two algebras.
    """
    sc = structure_constants(p)
    sign = ComplexRational(1 if flip_first_sign else -1)
    label = "+A1" if flip_first_sign else "-A1"
    residuals = _bannai_ito_residuals(*_realization(p, sc, "noncompact"),
                                      sc.alpha1, sc.alpha2, sc.alpha3, sign)
    return _report(degree, ["{A2,A3} = %s + alpha1" % label, "{A3,A1} = A2 + alpha2"],
                   residuals[:2])


@dataclass
class CasimirReport:
    which: str
    expected: ComplexRational
    realized_ok: bool
    max_degree_checked: int

    @property
    def passed(self) -> bool:
        """``realized_ok``; a property, so the document has no ``pass`` of its own."""
        return self.realized_ok


def verify_casimir(p: ParameterSet, degree: int, which: str = "compact") -> CasimirReport:
    """Check the Casimir element acts as the predicted scalar on monomials."""
    expected = casimir_scalar(p)
    cas = _casimir(*_realization(p, structure_constants(p), which), which)
    check = _report(degree, [f"Casimir ({which})"], [cas - expected])
    return CasimirReport(which=which, expected=expected, realized_ok=check.passed,
                         max_degree_checked=degree)


@dataclass
class IsoForwardReport:
    """``central_values`` maps t0_sq, t1_sq, u0_sq and u1_sq to the predicted squares."""

    central_values: Dict[str, ComplexRational]
    checks: List[RelationCheck]
    passed: bool = document_key("pass", init=False)

    def __post_init__(self):
        self.passed = all(c.passed for c in self.checks)


def iso_forward(K1, K2, K3, sc: StructureConstants, degree: int) -> IsoForwardReport:
    """Map a compact-algebra triple to the four involutive generators.

    Builds Ttilde_i, Utilde_i from (K1, K2, K3), computes the realized
    Casimir scalar, and verifies each square equals its predicted central
    value and that the four generators sum to -1/2 on monomials.
    """
    q_scalar = _casimir(K1, K2, K3).image(0).coefficient(0)
    gens = (QUARTER * (K1 - K2 - K3 - HALF), QUARTER * (K1 + K2 + K3 - HALF),
            QUARTER * (-K1 - K2 + K3 - HALF), QUARTER * (-K1 + K2 - K3 - HALF))
    sixteenth = ComplexRational(Fraction(1, 16))
    squares = [sixteenth * (q_scalar + sc.omega1 - sc.omega2 - sc.omega3 + QUARTER),
               sixteenth * (q_scalar + sc.omega1 + sc.omega2 + sc.omega3 + QUARTER),
               sixteenth * (q_scalar - sc.omega1 - sc.omega2 + sc.omega3 + QUARTER),
               sixteenth * (q_scalar - sc.omega1 + sc.omega2 - sc.omega3 + QUARTER)]
    report = _report(degree, ["Ttilde0^2 = t0~", "Ttilde1^2 = t1~", "Utilde0^2 = u0~",
                              "Utilde1^2 = u1~", "Ttilde0+Ttilde1+Utilde0+Utilde1 = -1/2"],
                     _involution_residuals(gens, squares))
    return IsoForwardReport(dict(zip(("t0_sq", "t1_sq", "u0_sq", "u1_sq"), squares)),
                            report.checks)


def iso_inverse(t: DAHAParameterSet, degree: int) -> VerificationReport:
    """Map the involutive generators back to a compact-algebra triple.

    Verifies the three anticommutator relations with structure constants
    4(t1^2 -+ t0^2 +- u0^2 -+ u1^2) and the Casimir identity
    A1^2+A2^2+A3^2 = 4(t0^2+t1^2+u0^2+u1^2) - 1/4, on monomials.
    """
    T0, T1, U0, _ = build_daha_generators(t)
    A1 = 2 * T0 + 2 * T1 + HALF
    A2 = -(2 * T0) - 2 * U0 - HALF
    A3 = 2 * T1 + 2 * U0 + HALF

    t0s, t1s, u0s, u1s = (v * v for v in (t.t0, t.t1, t.u0, t.u1))
    w3 = 4 * (t1s - t0s + u0s - u1s)
    w1 = 4 * (t1s + t0s - u0s - u1s)
    w2 = 4 * (t1s - t0s - u0s + u1s)
    cas_value = 4 * (t0s + t1s + u0s + u1s) - QUARTER

    r1, r2, r3 = _bannai_ito_residuals(A1, A2, A3, w1, w2, w3)
    return _report(degree, ["{A1,A2} = A3 + 4(t1^2-t0^2+u0^2-u1^2)",
                            "{A2,A3} = A1 + 4(t1^2+t0^2-u0^2-u1^2)",
                            "{A3,A1} = A2 + 4(t1^2-t0^2-u0^2+u1^2)",
                            "A1^2+A2^2+A3^2 = 4(t0^2+t1^2+u0^2+u1^2) - 1/4"],
                   [r3, r1, r2, _casimir(A1, A2, A3) - cas_value])


def verify_daha_relations(t: DAHAParameterSet, degree: int) -> VerificationReport:
    """T_i^2 = t_i^2, U_i^2 = u_i^2, T0+T1+U0+U1 = -1/2, on monomials."""
    squares = [v * v for v in (t.t0, t.t1, t.u0, t.u1)]
    return _report(degree, ["T0^2 = t0^2", "T1^2 = t1^2", "U0^2 = u0^2", "U1^2 = u1^2",
                            "T0+T1+U0+U1 = -1/2"],
                   _involution_residuals(build_daha_generators(t), squares))


def verify_prop1_coefficients(n_max: int, p: ParameterSet) -> VerificationReport:
    """Coefficient identity (-2)^n p_n(-x/2 + 1/4) = B_n, exactly."""
    wilson = nonsym_wilson_family(n_max, param_map_bi_to_daha(p))
    lhs = affine_family(wilson, -2, Fraction(-1, 2), QUARTER)
    residuals = (w - b for w, b in zip(lhs, bi_polynomials(n_max, p)))
    return VerificationReport([_relation_check("(-2)^n p_n(-x/2+1/4) = B_n", n_max, residuals)])


def verify_prop1_operator_transform(p: ParameterSet, degree: int,
                                    t: Optional[DAHAParameterSet] = None) -> VerificationReport:
    """Check that 2(T0+T1) + 1/2, conjugated by z = -x/2 + 1/4, acts as L.

    The conjugation takes a test polynomial q(x) to q(1/2 - 2z), applies the operator
    in the z variable, and substitutes back.  ``t`` is p's DAHA set, mapped here if not given.
    """
    T0, T1, _, _ = build_daha_generators(t or param_map_bi_to_daha(p))
    op_z = 2 * T0 + 2 * T1 + HALF
    conj = Substitution(Fraction(-1, 2), QUARTER) * op_z * Substitution(-2, HALF)
    return _report(degree, ["conjugated 2(T0+T1)+1/2 = L"], [conj - build_L(p)])
