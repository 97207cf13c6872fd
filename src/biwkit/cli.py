"""Batch command-line driver: every construction and verification as a
subcommand with deterministic JSON output.

Exit codes: 0 all verifications pass; 2 a verification failed; 3 invalid
or degenerate parameters or a usage error; 4 numerical non-convergence.
Degenerate parameters, where the polynomial family is undefined, are
rejected before any work, even where operator relations would hold.
Errors are reported as JSON documents too.

A verifying command's document is its header fields (parameters and
sizes), then one entry per report it ran, then ``pass``: true only if
every report passed.  Each stage of ``all`` is ``{report, pass}``.
Reports are records: ``_write`` alone writes them and the numbers they hold,
in ``json.dumps(indent=2)``'s layout, tagging each number by its type: a
``Fraction`` is ``{"exact": "p/q"}``, a ``ComplexRational`` ``{"exact": {"re",
"im"}}``, a ``Polynomial`` the list of its coefficients, an ``Approx``
``{"approx": decimal string, "precision_digits": the digits printed}``.  Any
other dataclass, a parameter record or a report, is the object of its fields
in declaration order, each under its ``metadata["key"]`` if it has one (a
report's ``passed`` is written ``pass``) and under its name otherwise.  A
property, such as ``CasimirReport.passed``, is not a field and is not written.
"""

from __future__ import annotations

import argparse
import functools
import random
import re
import sys
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import Optional

from mpmath import mp

from .errors import (
    BiwkitError,
    DegenerateParameters,
    InvalidParameters,
    QuadratureNotConverged,
)
from .exact import ComplexRational, Polynomial, parse_complex_rational
from .polyfam import (
    DAHAParameterSet,
    ParameterSet,
    RealParameterQuad,
    bi_polynomials,
    check_denominators,
    family_to_json,
    nonsym_wilson_family,
    param_map_bi_to_daha,
    q_polynomials,
    q_symmetry_check,
    structure_constants,
    wilson_eigenvalue,
)
from .operators import (
    bi_realization,
    iso_forward,
    iso_inverse,
    verify_bi_algebra,
    verify_casimir,
    verify_daha_relations,
    verify_eigen_bi,
    verify_eigen_q,
    verify_nc_algebra,
    verify_nonsym_wilson_eigen,
    verify_prop1_coefficients,
    verify_prop1_operator_transform,
)
from .reptheory import MIN_SIZE, build_rep, positivity_scan, verify_rep_relations
from .measure import (
    DEFAULT_PRECISION,
    DEFAULT_TOL,
    Approx,
    check_gram_inputs,
    orthogonality_gram,
)

SCHEMA = "biwkit/2"

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 2
EXIT_INVALID_PARAMETERS = 3
EXIT_NOT_CONVERGED = 4


def _rational(x: int, d: int) -> str:
    """``str(Fraction(x, d))`` for d > 0, without building the Fraction."""
    g = gcd(x, d)
    return str(x // g) if d == g else f"{x // g}/{d // g}"


def _write(node, out: list, nl: str) -> list:
    """Append ``node``'s text to ``out``; ``nl`` is a newline and the indent of its first line.
    Besides the tagged types, str, int, bool and None are leaves; a dict is its items and a
    dataclass its fields in declaration order, keyed by ``metadata["key"]`` or else by name.
    Any other type, such as a bare mpf, or a key that is not a str raises TypeError."""
    kind, inner = type(node), nl + "  "
    if kind is str:
        out.append(_quote(node))
    elif kind is ComplexRational:
        out.append(f'{{{inner}"exact": {{{inner}  "re": "{_rational(node._x, node._d)}",'
                   f'{inner}  "im": "{_rational(node._y, node._d)}"{inner}}}{nl}}}')
    elif kind is Fraction:
        out.append(f'{{{inner}"exact": "{node}"{nl}}}')
    elif kind is Approx:
        out.append(f'{{{inner}"approx": "{mp.nstr(node.value, node.digits)}",'
                   f'{inner}"precision_digits": {node.digits}{nl}}}')
    elif kind is int or kind is bool or node is None:
        out.append("null" if node is None else str(node).lower())
    elif kind is list or kind is Polynomial:
        sep = "["
        for value in node if kind is list else node.coeffs:
            out.append(sep + inner)
            _write(value, out, inner)
            sep = ","
        out.append("[]" if sep == "[" else nl + "]")
    elif kind is dict or is_dataclass(node):
        sep = "{"
        for key, value in node.items() if kind is dict else (
                (f.metadata.get("key", f.name), getattr(node, f.name)) for f in fields(node)):
            if type(key) is not str:
                raise TypeError(f"document key of type {type(key).__name__}")
            out.append(f"{sep}{inner}{_quote(key)}: ")
            _write(value, out, inner)
            sep = ","
        out.append("{}" if sep == "{" else nl + "}")
    else:
        raise TypeError(f"unserializable leaf of type {kind.__name__}")
    return out


def document_text(doc) -> str:
    """``doc`` as the command line writes it, less the final newline."""
    return "".join(_write(doc, [], "\n"))


def _parse_four(text: Optional[str], flag: str, parse, cls):
    """``flag``'s four comma-separated values, each read by ``parse``, as a ``cls``."""
    parts = text.split(",") if text is not None else []
    if len(parts) != 4:
        names = ",".join(f.name for f in fields(cls))
        raise InvalidParameters(f"{flag} requires four comma-separated values {names}")
    try:
        return cls(*(parse(s) for s in parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameters(
            f"{flag}: cannot read {text!r}: {type(exc).__name__}: {exc}") from exc


def _parse_tol(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameters(f"--tol: {exc}") from exc


def _parameter_style(args) -> str:
    """The one parameter flag given, among those the command offers."""
    offered = [s for s in ("params", "quad", "daha") if hasattr(args, s)]
    given = [s for s in offered if getattr(args, s)]
    if len(given) != 1:
        raise InvalidParameters("give exactly one of " + " or ".join(f"--{s}" for s in offered))
    return given[0]


def _resolve_bi_params(args) -> ParameterSet:
    if _parameter_style(args) == "params":
        return _parse_four(args.params, "--params", parse_complex_rational, ParameterSet)
    return ParameterSet.from_quad(_parse_quad(args.quad))


def _parse_quad(text: Optional[str]) -> RealParameterQuad:
    return _parse_four(text, "--quad", Fraction, RealParameterQuad)


# The accepted range of --n-max, --degree and --size.  Exact work grows
# polynomially in each: at the caps the slowest commands end in seconds,
# while a value such as 100000 runs until it is killed.  At 1/3,2/5,3/4,1/7
# (2-core x86-64, Python 3.11, median of three in-process runs) the caps
# take 0.34 s for verify-algebra, 0.30 s and 0.51 s for verify-daha and
# verify-prop1, 0.92 s for verify-iso, 0.07-0.25 s for poly, q-poly, wilson
# and verify-eigen, and 0.43 s for rep --size 1000; CI runs the eight exact
# commands at their caps under a 60 s timeout.
_SIZE_RANGES = {"n_max": (0, 100), "degree": (0, 100), "size": (MIN_SIZE, 1000)}


def _require_bounded_sizes(args) -> None:
    """Each size flag in its range: a negative one would check nothing and pass."""
    for name, (low, cap) in _SIZE_RANGES.items():
        value = getattr(args, name, None)
        if name == "n_max" and hasattr(args, "precision"):
            continue  # a Gram's --n-max: its narrower range is in measure.check_gram_inputs
        if value is not None and not low <= value <= cap:
            flag = "--" + name.replace("_", "-")
            raise InvalidParameters(f"{flag} must be in {low}..{cap}, got {value}")


def random_parameter_set(rng: random.Random, n_max: int) -> ParameterSet:
    """A random nondegenerate rational parameter quadruple.

    Nondegeneracy (no recurrence denominator vanishing up to n_max) is
    decided exactly by ``check_denominators`` from a+b+c+d.
    """
    while True:
        vals = [
            ComplexRational(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            )
            for _ in range(4)
        ]
        p = ParameterSet(*vals)
        try:
            check_denominators(n_max, p.total)
        except DegenerateParameters:
            continue
        return p


def _open_output(path: Optional[str]):
    """The --output file, opened before any work runs; stdout without a path."""
    if not path:
        return sys.stdout
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InvalidParameters(f"--output: cannot write {path!r}: {exc.strerror}") from None


def _emit(doc: dict, out) -> None:
    out.write(document_text(doc) + "\n")
    if out is not sys.stdout:
        out.close()


def _cmd_poly(args, family, label: str) -> tuple:
    doc = family_to_json(args.n_max, _resolve_bi_params(args), family)
    return {"family": label, **doc}, True


def _cmd_wilson(args) -> tuple:
    if _parameter_style(args) == "daha":
        t = _parse_four(args.daha, "--daha", parse_complex_rational, DAHAParameterSet)
    else:
        t = param_map_bi_to_daha(_resolve_bi_params(args))
    polys = nonsym_wilson_family(args.n_max, t)
    return {
        "family": "nonsym-wilson",
        "params": t,
        "n_max": args.n_max,
        "polynomials": polys,
        "gamma": [wilson_eigenvalue(n, t) for n in range(args.n_max + 1)],
    }, True


def _document(header: dict, reports: dict) -> tuple:
    """``(document, passed)``: the header's fields, then each named report in the order
    given, written by its fields; it passes only if every report passed."""
    return {**header, **reports}, all(r.passed for r in reports.values())


def _cmd_verify_eigen(args) -> tuple:
    p = _resolve_bi_params(args)
    check_denominators(args.n_max, p.total)
    return _document({"params": p, "n_max": args.n_max}, {
        "bi_eigen": verify_eigen_bi(args.n_max, p),
        "q_eigen": verify_eigen_q(args.n_max, p),
    })


def _cmd_verify_algebra(args) -> tuple:
    p = _resolve_bi_params(args)
    check_denominators(args.degree, p.total)
    compact = verify_bi_algebra(p, args.degree)
    noncompact = verify_nc_algebra(p, args.degree)
    header = {"params": p, "degree": args.degree,
              "structure_constants": structure_constants(p)}
    return _document(header, {"compact": compact, "noncompact": noncompact})


def _cmd_verify_daha(args) -> tuple:
    t = _parse_four(args.daha, "--daha", parse_complex_rational, DAHAParameterSet)
    wilson = verify_nonsym_wilson_eigen(args.n_max, t)
    return _document({"params": t, "degree": args.degree}, {
        "relations": verify_daha_relations(t, args.degree),
        "wilson_eigen": wilson,
    })


def _cmd_verify_iso(args) -> tuple:
    p = _resolve_bi_params(args)
    check_denominators(args.degree, p.total)
    t = param_map_bi_to_daha(p)
    header = {"params": p, "daha_params": t, "degree": args.degree}
    return _document(header, {
        "forward": iso_forward(*bi_realization(p), args.degree),
        "inverse": iso_inverse(t, args.degree),
    })


def _cmd_verify_prop1(args) -> tuple:
    p = _resolve_bi_params(args)
    check_denominators(max(args.n_max, args.degree), p.total)
    header = {"params": p, "n_max": args.n_max, "degree": args.degree}
    return _document(header, {
        "coefficient_identity": verify_prop1_coefficients(args.n_max, p),
        "operator_transform": verify_prop1_operator_transform(p, args.degree),
    })


def _cmd_rep(args) -> tuple:
    q = _parse_quad(args.quad)
    return _document({"params": q}, {
        "relations": verify_rep_relations(build_rep(args.size, q)),
        "positivity": positivity_scan(q, args.size),
    })


def _cmd_ortho(args) -> tuple:
    q = _parse_quad(args.quad)
    report = orthogonality_gram(args.n_max, ParameterSet.from_quad(q), tol=_parse_tol(args.tol),
                                precision=args.precision, truncation=args.truncation)
    return _document({"params": q}, {"orthogonality": report})


def _random_eigen_stage(rng: random.Random) -> dict:
    """Eigenvalue equations at three random parameter sets, as one ``all`` stage."""
    checks = []
    for _ in range(3):
        rp = random_parameter_set(rng, 10)
        report = verify_eigen_bi(10, rp)
        checks.append({"params": rp, "checks": report.checks, "pass": report.passed})
    return {"report": {"checks": checks}, "pass": all(c["pass"] for c in checks)}


def _stage(report) -> dict:
    return {"report": report, "pass": report.passed}


def _checked_stage(run) -> dict:
    """``run()``'s report as a stage; an error that names its ``first_failure`` fails the stage."""
    try:
        return _stage(run())
    except BiwkitError as exc:
        if exc.first_failure is None:
            raise
        return {"report": {"first_failure": exc.first_failure, "pass": False}, "pass": False}


def _cmd_all(args) -> tuple:
    tol = _parse_tol(args.tol)
    quad = _parse_quad(args.quad) if args.quad else RealParameterQuad(
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
    )
    p = ParameterSet.from_quad(quad)
    check_gram_inputs(p, args.n_max, args.precision, args.truncation, tol)
    t = param_map_bi_to_daha(p)
    sc = structure_constants(p)
    if args.tamper:
        sc = replace(sc, omega1=sc.omega1 + 1)
    stages = {
        "bi_eigen": _stage(verify_eigen_bi(10, p)),
        "q_eigen": _stage(verify_eigen_q(10, p)),
        "wilson_eigen": _stage(verify_nonsym_wilson_eigen(10, t)),
        "random_eigen": _random_eigen_stage(random.Random(args.seed)),
        "compact_algebra": _stage(verify_bi_algebra(p, 10, constants=sc)),
        "noncompact_algebra": _stage(verify_nc_algebra(p, 10)),
        "casimir_compact": _stage(verify_casimir(p, 8, "compact")),
        "casimir_noncompact": _stage(verify_casimir(p, 8, "noncompact")),
        "daha_relations": _stage(verify_daha_relations(t, 10)),
        "iso_forward": _stage(iso_forward(*bi_realization(p), 8)),
        "iso_inverse": _stage(iso_inverse(t, 8)),
        "prop1_coefficients": _stage(verify_prop1_coefficients(10, p)),
        "prop1_operator": _stage(verify_prop1_operator_transform(p, 8, t)),
        "q_symmetries": _stage(q_symmetry_check(8, p)),
        "positivity": _checked_stage(lambda: positivity_scan(quad, 100)),
        "representation": _checked_stage(lambda: verify_rep_relations(build_rep(20, quad))),
        "orthogonality": _checked_stage(lambda: orthogonality_gram(
            args.n_max, p, tol=tol, precision=args.precision, truncation=args.truncation)),
    }
    passed = all(s["pass"] for s in stages.values())
    doc = {"params": quad, "seed": args.seed, "tamper": bool(args.tamper),
           "stages": stages, "pass": passed}
    return doc, passed


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise InvalidParameters, reported like any other bad input."""

    def error(self, message):
        raise InvalidParameters(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, cached because argparse links each action back
    to its parser: a new parser per ``main`` call is cyclic garbage until the
    collector runs."""
    parser = _ArgumentParser(
        prog="biwkit",
        description="Exact construction and certification of Bannai-Ito type "
                    "polynomial families and their operator algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, params=False, quad=False, daha=False, n_max=None,
                degree=None, gram=False):
        """Declare subcommand ``name``, its flags and ``run``, the handler ``main`` calls."""
        sp = sub.add_parser(name, help=summary)
        sp._negative_number_matcher = re.compile(r"-[\di]")  # "-1/4,..." is a value, not a flag
        sp.set_defaults(run=run)
        if params:
            sp.add_argument("--params", help="a,b,c,d as exact rationals, e.g. '0,0,0,0' or '1/2+1/2i,...'")
        if quad:
            sp.add_argument("--quad", help="alpha,beta,gamma,delta as exact real rationals")
        if daha:
            sp.add_argument("--daha", help="t0,t1,u0,u1 as exact rationals")
        if n_max is not None:
            sp.add_argument("--n-max", type=int, default=n_max, dest="n_max")
        if degree is not None:
            sp.add_argument("--degree", type=int, default=degree)
        if gram:  # the Gram's flags, bounded by measure.check_gram_inputs
            sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                            help="working precision in decimal digits")
            sp.add_argument("--tol", default=DEFAULT_TOL, help="relative tolerance (exact decimal)")
            sp.add_argument("--truncation", type=int, default=None,
                            help="initial half-width L of the integration interval")
        sp.add_argument("--output", dest="output", default=None,
                        help="write the JSON document to this path instead of stdout")
        return sp

    command("poly", functools.partial(_cmd_poly, family=bi_polynomials, label="bi"),
            "construct the base family", params=True, quad=True, n_max=6)
    command("q-poly", functools.partial(_cmd_poly, family=q_polynomials, label="q-modified"),
            "construct the modified family", params=True, quad=True, n_max=6)
    command("wilson", _cmd_wilson, "construct the non-symmetric Wilson family",
            params=True, quad=True, daha=True, n_max=6)

    command("verify-eigen", _cmd_verify_eigen, "eigenvalue equations for both families",
            params=True, quad=True, n_max=20)
    command("verify-algebra", _cmd_verify_algebra, "compact and non-compact algebra relations",
            params=True, quad=True, degree=20)
    command("verify-daha", _cmd_verify_daha, "involutive-generator relations and Wilson eigen",
            daha=True, n_max=12, degree=12)
    command("verify-iso", _cmd_verify_iso, "algebra isomorphism, both directions",
            params=True, quad=True, degree=12)
    command("verify-prop1", _cmd_verify_prop1, "polynomial coincidence and operator transform",
            params=True, quad=True, n_max=12, degree=8)

    sp = command("rep", _cmd_rep, "tridiagonal representation residuals and positivity",
                 quad=True)
    sp.add_argument("--size", type=int, default=50, help="truncation size N")

    command("ortho", _cmd_ortho, "Gram matrix of the modified family", quad=True, n_max=6,
            gram=True)

    sp = command("all", _cmd_all, "run the full certification suite", quad=True, n_max=4,
                 gram=True)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized property stage")
    sp.add_argument("--tamper", action="store_true",
                    help="negative control: perturb a structure constant; must fail")

    return parser


# Exit code of each error kind; any other BiwkitError is a failed verification.
_EXIT_CODES = {
    DegenerateParameters: EXIT_INVALID_PARAMETERS,
    InvalidParameters: EXIT_INVALID_PARAMETERS,
    QuadratureNotConverged: EXIT_NOT_CONVERGED,
}


def main(argv=None) -> int:
    out, command = sys.stdout, None
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        out = _open_output(args.output)
        _require_bounded_sizes(args)
        doc, passed = args.run(args)
    except BiwkitError as exc:
        _emit({"schema": SCHEMA, "command": command,
               "error": {"kind": type(exc).__name__, "detail": str(exc)}}, out)
        return _EXIT_CODES.get(type(exc), EXIT_VERIFICATION_FAILED)
    _emit({"schema": SCHEMA, "command": command, **doc, "pass": bool(passed)}, out)
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
