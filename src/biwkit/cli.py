"""Batch command-line driver: every construction and verification as a
subcommand with deterministic JSON output.

Exit codes: 0 all verifications pass; 2 a verification failed; 3 invalid
or degenerate parameters; 4 numerical non-convergence.  Every JSON leaf
carrying a numeric value is tagged ``exact`` (rational string or
``{re, im}`` pair) or ``approx`` (decimal string plus the working
precision in digits).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction
from typing import Optional

from .errors import (
    BiwkitError,
    DegenerateParameters,
    InvalidParameters,
    QuadratureNotConverged,
)
from .exact import ComplexRational, parse_complex_rational
from .polyfam import (
    DAHAParameterSet,
    ParameterSet,
    RealParameterQuad,
    bi_coefficients,
    family_to_json,
    nonsym_wilson_family,
    param_map_bi_to_daha,
    q_symmetry_check,
    wilson_eigenvalue,
)
from .operators import (
    StructureConstants,
    bi_realization,
    iso_forward,
    iso_inverse,
    structure_constants,
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
from .reptheory import build_rep, positivity_scan, verify_rep_relations
from .measure import DEFAULT_PRECISION, orthogonality_gram

SCHEMA = "biwkit/1"

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 2
EXIT_INVALID_PARAMETERS = 3
EXIT_NOT_CONVERGED = 4

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")
# Keys whose string values are labels, not numbers; never tagged.
_LABEL_KEYS = {
    "schema", "command", "relation", "identity", "kind", "detail",
    "which", "stage", "error", "family",
}


def _tag_leaves(node, digits: int, key: Optional[str] = None):
    """Tag every numeric leaf as exact or approx (see module docstring)."""
    if isinstance(node, dict):
        if set(node) == {"re", "im"}:
            return {"exact": dict(node)}
        return {k: _tag_leaves(v, digits, k) for k, v in node.items()}
    if isinstance(node, list):
        return [_tag_leaves(v, digits, key) for v in node]
    if isinstance(node, bool) or node is None or isinstance(node, int):
        return node
    if isinstance(node, str):
        if key in _LABEL_KEYS:
            return node
        if _RATIONAL_RE.match(node):
            return {"exact": node}
        return {"approx": node, "precision_digits": digits}
    raise TypeError(f"unserializable leaf of type {type(node).__name__}")


def _parse_params(text: str) -> ParameterSet:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidParameters("--params requires four comma-separated values a,b,c,d")
    try:
        vals = [parse_complex_rational(s) for s in parts]
    except ValueError as exc:
        raise InvalidParameters(str(exc)) from exc
    return ParameterSet(*vals)


def _parse_quad(text: str) -> RealParameterQuad:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidParameters(
            "--quad requires four comma-separated rationals alpha,beta,gamma,delta"
        )
    try:
        vals = [Fraction(s.strip()) for s in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameters(str(exc)) from exc
    return RealParameterQuad(*vals)


def _parse_daha(text: str) -> DAHAParameterSet:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidParameters("--daha requires four comma-separated values t0,t1,u0,u1")
    try:
        vals = [parse_complex_rational(s) for s in parts]
    except ValueError as exc:
        raise InvalidParameters(str(exc)) from exc
    return DAHAParameterSet(*vals)


def _parse_tol(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameters(f"--tol: {exc}") from exc


def _resolve_bi_params(args) -> ParameterSet:
    """One parameter style per invocation: --params or --quad."""
    given = [s for s in ("params", "quad") if getattr(args, s, None)]
    if len(given) != 1:
        raise InvalidParameters("give exactly one of --params or --quad")
    if given[0] == "params":
        return _parse_params(args.params)
    return ParameterSet.from_quad(_parse_quad(args.quad))


def _require_nondegenerate(p: ParameterSet, n_max: int) -> None:
    """Raise DegenerateParameters if any recurrence denominator vanishes.

    Operator-relation checks would succeed formally at degenerate
    parameters, but the polynomial family itself is undefined there, so
    every command rejects them up front.
    """
    bi_coefficients(n_max, p)


def _require_nonnegative_sizes(args) -> None:
    """A negative --n-max, --degree or --size would check nothing and pass."""
    for name in ("n_max", "degree", "size"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            raise InvalidParameters(f"{flag} must be >= 0, got {value}")


def random_parameter_set(rng: random.Random, n_max: int) -> ParameterSet:
    """A random nondegenerate rational parameter quadruple.

    Nondegeneracy (no recurrence denominator vanishing up to n_max) is
    certified by running the exact recurrence, not by heuristics.
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
            bi_coefficients(n_max, p)
        except DegenerateParameters:
            continue
        return p


def _emit(doc: dict, digits: int, output_path: Optional[str]) -> None:
    tagged = _tag_leaves(doc, digits)
    text = json.dumps(tagged, indent=2, sort_keys=False) + "\n"
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_poly(args, kind: str) -> tuple:
    p = _resolve_bi_params(args)
    doc = family_to_json(args.n_max, p, kind=kind)
    return {"family": "bi" if kind == "bi" else "q-modified", **doc}, True


def _cmd_wilson(args) -> tuple:
    if getattr(args, "daha", None):
        t = _parse_daha(args.daha)
    else:
        t = param_map_bi_to_daha(_resolve_bi_params(args))
    polys = nonsym_wilson_family(args.n_max, t)
    return {
        "family": "nonsym-wilson",
        "params": t.to_json(),
        "n_max": args.n_max,
        "polynomials": [poly.to_json() for poly in polys],
        "gamma": [wilson_eigenvalue(n, t).to_json() for n in range(args.n_max + 1)],
    }, True


def _cmd_verify_eigen(args) -> tuple:
    p = _resolve_bi_params(args)
    _require_nondegenerate(p, args.n_max)
    bi = verify_eigen_bi(args.n_max, p)
    q = verify_eigen_q(args.n_max, p)
    doc = {
        "params": p.to_json(),
        "n_max": args.n_max,
        "bi_eigen": bi.to_json(),
        "q_eigen": q.to_json(),
    }
    return doc, bi.passed and q.passed


def _cmd_verify_algebra(args) -> tuple:
    p = _resolve_bi_params(args)
    _require_nondegenerate(p, args.degree)
    compact = verify_bi_algebra(p, args.degree)
    noncompact = verify_nc_algebra(p, args.degree)
    doc = {
        "params": p.to_json(),
        "degree": args.degree,
        "structure_constants": structure_constants(p).to_json(),
        "compact": compact.to_json(),
        "noncompact": noncompact.to_json(),
    }
    return doc, compact.passed and noncompact.passed


def _cmd_verify_daha(args) -> tuple:
    t = _parse_daha(args.daha)
    wilson = verify_nonsym_wilson_eigen(args.n_max, t)
    relations = verify_daha_relations(t, args.degree)
    doc = {
        "params": t.to_json(),
        "degree": args.degree,
        "relations": relations.to_json(),
        "wilson_eigen": wilson.to_json(),
    }
    return doc, relations.passed and wilson.passed


def _cmd_verify_iso(args) -> tuple:
    p = _resolve_bi_params(args)
    _require_nondegenerate(p, args.degree)
    t = param_map_bi_to_daha(p)
    k1, k2, k3, sc = bi_realization(p)
    forward = iso_forward(k1, k2, k3, sc, args.degree)
    inverse = iso_inverse(t, args.degree)
    doc = {
        "params": p.to_json(),
        "daha_params": t.to_json(),
        "degree": args.degree,
        "forward": forward.to_json(),
        "inverse": inverse.to_json(),
    }
    return doc, forward.passed and inverse.passed


def _cmd_verify_prop1(args) -> tuple:
    p = _resolve_bi_params(args)
    _require_nondegenerate(p, max(args.n_max, args.degree))
    coeffs = verify_prop1_coefficients(args.n_max, p)
    operator = verify_prop1_operator_transform(p, args.degree)
    doc = {
        "params": p.to_json(),
        "n_max": args.n_max,
        "degree": args.degree,
        "coefficient_identity": coeffs.to_json(),
        "operator_transform": operator.to_json(),
    }
    return doc, coeffs.passed and operator.passed


def _cmd_rep(args) -> tuple:
    q = _parse_quad(args.quad)
    rep = build_rep(args.size, q, args.precision)
    report = verify_rep_relations(rep)
    positivity = positivity_scan(q, args.size)
    doc = {
        "params": q.to_json(),
        "relations": report.to_json(),
        "positivity": positivity.to_json(),
    }
    return doc, report.passed and positivity.passed


def _cmd_ortho(args) -> tuple:
    q = _parse_quad(args.quad)
    p = ParameterSet.from_quad(q)
    report = orthogonality_gram(
        args.n_max,
        p,
        tol=_parse_tol(args.tol),
        precision=args.precision,
        truncation=args.truncation,
    )
    doc = {"params": q.to_json(), "orthogonality": report.to_json()}
    return doc, report.passed


def _cmd_all(args) -> tuple:
    tol = _parse_tol(args.tol)
    quad = _parse_quad(args.quad) if args.quad else RealParameterQuad(
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
    )
    p = ParameterSet.from_quad(quad)
    t = param_map_bi_to_daha(p)
    rng = random.Random(args.seed)

    stages = {}

    def add(name, report, passed=None):
        stages[name] = {
            "report": report,
            "pass": bool(passed if passed is not None else report.get("pass")),
        }

    bi = verify_eigen_bi(10, p)
    add("bi_eigen", bi.to_json())
    qe = verify_eigen_q(10, p)
    add("q_eigen", qe.to_json())
    we = verify_nonsym_wilson_eigen(10, t)
    add("wilson_eigen", we.to_json())

    random_checks = []
    for _ in range(3):
        rp = random_parameter_set(rng, 10)
        rep_r = verify_eigen_bi(10, rp)
        random_checks.append({"params": rp.to_json(), **rep_r.to_json()})
    add("random_eigen", {"checks": random_checks},
        all(c["pass"] for c in random_checks))

    sc = structure_constants(p)
    if args.tamper:
        sc = StructureConstants(
            sc.omega1 + 1, sc.omega2, sc.omega3,
            sc.alpha1, sc.alpha2, sc.alpha3,
        )
    compact = verify_bi_algebra(p, 10, constants=sc)
    add("compact_algebra", compact.to_json())
    noncompact = verify_nc_algebra(p, 10)
    add("noncompact_algebra", noncompact.to_json())
    cas_c = verify_casimir(p, 8, "compact")
    add("casimir_compact", cas_c.to_json(), cas_c.realized_ok)
    cas_nc = verify_casimir(p, 8, "noncompact")
    add("casimir_noncompact", cas_nc.to_json(), cas_nc.realized_ok)
    add("daha_relations", verify_daha_relations(t, 10).to_json())

    k1, k2, k3, sc_true = bi_realization(p)
    add("iso_forward", iso_forward(k1, k2, k3, sc_true, 8).to_json())
    add("iso_inverse", iso_inverse(t, 8).to_json())
    add("prop1_coefficients", verify_prop1_coefficients(10, p).to_json())
    add("prop1_operator", verify_prop1_operator_transform(p, 8).to_json())
    add("q_symmetries", q_symmetry_check(8, p).to_json())
    add("positivity", positivity_scan(quad, 100).to_json())

    rep = build_rep(20, quad, 30)
    add("representation", verify_rep_relations(rep).to_json())

    ortho = orthogonality_gram(
        args.n_max, p,
        tol=tol,
        precision=args.precision,
        truncation=args.truncation,
    )
    add("orthogonality", ortho.to_json())

    passed = all(s["pass"] for s in stages.values())
    doc = {
        "params": quad.to_json(),
        "seed": args.seed,
        "tamper": bool(args.tamper),
        "stages": stages,
        "pass": passed,
    }
    return doc, passed


def build_parser() -> argparse.ArgumentParser:
    default_precision = int(os.environ.get("BIWKIT_PRECISION", DEFAULT_PRECISION))
    parser = argparse.ArgumentParser(
        prog="biwkit",
        description="Exact construction and certification of Bannai-Ito type "
                    "polynomial families and their operator algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, params=False, quad=False, daha=False, n_max=None,
               degree=None, precision=False):
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
        if precision:
            sp.add_argument("--precision", type=int, default=default_precision,
                            help="working precision in decimal digits")
        sp.add_argument("--output", dest="output", default=None,
                        help="write the JSON document to this path instead of stdout")

    sp = sub.add_parser("poly", help="construct the base family")
    common(sp, params=True, quad=True, n_max=6)
    sp = sub.add_parser("q-poly", help="construct the modified family")
    common(sp, params=True, quad=True, n_max=6)
    sp = sub.add_parser("wilson", help="construct the non-symmetric Wilson family")
    common(sp, params=True, quad=True, daha=True, n_max=6)

    sp = sub.add_parser("verify-eigen", help="eigenvalue equations for both families")
    common(sp, params=True, quad=True, n_max=20)
    sp = sub.add_parser("verify-algebra", help="compact and non-compact algebra relations")
    common(sp, params=True, quad=True, degree=20)
    sp = sub.add_parser("verify-daha", help="involutive-generator relations and Wilson eigen")
    common(sp, daha=True, n_max=12, degree=12)
    sp = sub.add_parser("verify-iso", help="algebra isomorphism, both directions")
    common(sp, params=True, quad=True, degree=12)
    sp = sub.add_parser("verify-prop1", help="polynomial coincidence and operator transform")
    common(sp, params=True, quad=True, n_max=12, degree=8)

    sp = sub.add_parser("rep", help="tridiagonal representation residuals and positivity")
    common(sp, quad=True, precision=True)
    sp.set_defaults(precision=30 if "BIWKIT_PRECISION" not in os.environ
                    else int(os.environ["BIWKIT_PRECISION"]))
    sp.add_argument("--size", type=int, default=50, help="truncation size N")

    sp = sub.add_parser("ortho", help="Gram matrix of the modified family")
    common(sp, quad=True, n_max=6, precision=True)
    sp.add_argument("--tol", default="1e-8", help="relative tolerance (exact decimal)")
    sp.add_argument("--truncation", type=int, default=None,
                    help="initial half-width L of the integration interval")

    sp = sub.add_parser("all", help="run the full certification suite")
    common(sp, quad=True, n_max=4, precision=True)
    sp.add_argument("--tol", default="1e-8")
    sp.add_argument("--truncation", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized property stage")
    sp.add_argument("--tamper", action="store_true",
                    help="negative control: perturb a structure constant; must fail")

    return parser


_DISPATCH = {
    "poly": lambda a: _cmd_poly(a, "bi"),
    "q-poly": lambda a: _cmd_poly(a, "q"),
    "wilson": _cmd_wilson,
    "verify-eigen": _cmd_verify_eigen,
    "verify-algebra": _cmd_verify_algebra,
    "verify-daha": _cmd_verify_daha,
    "verify-iso": _cmd_verify_iso,
    "verify-prop1": _cmd_verify_prop1,
    "rep": _cmd_rep,
    "ortho": _cmd_ortho,
    "all": _cmd_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    digits = getattr(args, "precision", DEFAULT_PRECISION)
    output = getattr(args, "output", None)
    base = {"schema": SCHEMA, "command": args.command}
    try:
        _require_nonnegative_sizes(args)
        doc, passed = _DISPATCH[args.command](args)
    except (DegenerateParameters, InvalidParameters) as exc:
        _emit({**base, "error": {"kind": type(exc).__name__, "detail": str(exc)}},
              digits, output)
        return EXIT_INVALID_PARAMETERS
    except QuadratureNotConverged as exc:
        _emit({**base, "error": {"kind": type(exc).__name__, "detail": str(exc)}},
              digits, output)
        return EXIT_NOT_CONVERGED
    except BiwkitError as exc:
        _emit({**base, "error": {"kind": type(exc).__name__, "detail": str(exc)}},
              digits, output)
        return EXIT_VERIFICATION_FAILED
    _emit({**base, **doc, "pass": bool(passed)}, digits, output)
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
