"""End-to-end tests of the command-line driver: exit codes, JSON schema,
determinism, the exactness tagging of leaves and the document writer."""

import dataclasses
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import mutate_polyfam
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from biwkit import measure, operators, polyfam, reptheory
from biwkit.cli import (
    EXIT_INVALID_PARAMETERS,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    SCHEMA,
    build_parser,
    document_text,
    main,
    random_parameter_set,
)
from biwkit.errors import BiwkitError, DegenerateParameters
from biwkit.exact import ComplexRational, Polynomial

# Reduced settings for the full-suite runs.
FAST_ALL = [
    "--quad", "1/2,1/2,1/2,1/2",
    "--n-max", "1", "--precision", "30", "--truncation", "20", "--tol", "1e-6",
]
ORTHO = ["ortho", "--quad", "1/2,1/2,1/2,1/2", "--n-max", "1"]


def run(argv, tmp_path, name="out.json"):
    path = tmp_path / name
    code = main(argv + ["--output", str(path)])
    return code, json.loads(path.read_text())


def written(value):
    """``value`` as the command line writes it into a document, read back as JSON."""
    return json.loads(document_text(value))


def run_stdout(argv):
    """Run main() and read its document from stdout (where usage errors go)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


class TestConstruction:
    def test_poly_b2(self, tmp_path):
        code, doc = run(["poly", "--params", "0,0,0,0", "--n-max", "2"], tmp_path)
        assert code == EXIT_OK
        assert doc["schema"] == SCHEMA
        b2 = doc["polynomials"][2]
        coeffs = [c["exact"]["re"] for c in b2]
        assert coeffs == ["1", "0", "1"]  # B_2 = x^2 + 1

    def test_q_poly_real(self, tmp_path):
        code, doc = run(["q-poly", "--quad", "1/2,1/2,1/2,1/2", "--n-max", "3"], tmp_path)
        assert code == EXIT_OK
        for poly in doc["polynomials"]:
            assert all(c["exact"]["im"] == "0" for c in poly)

    def test_wilson(self, tmp_path):
        code, doc = run(["wilson", "--daha", "1/4,1/4,0,0", "--n-max", "2"], tmp_path)
        assert code == EXIT_OK
        assert doc["gamma"][0]["exact"]["re"] == "1/2"

    def test_determinism(self, tmp_path):
        argv = ["q-poly", "--quad", "1/3,2/5,1/2,1/7", "--n-max", "5"]
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert main(argv + ["--output", str(p1)]) == EXIT_OK
        assert main(argv + ["--output", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()


class TestVerifyCommands:
    def test_verify_eigen(self, tmp_path):
        code, doc = run(["verify-eigen", "--params", "0,0,0,0", "--n-max", "6"], tmp_path)
        assert code == EXIT_OK and doc["pass"] is True

    def test_verify_algebra(self, tmp_path):
        code, doc = run(["verify-algebra", "--params", "0,0,0,0", "--degree", "6"], tmp_path)
        assert code == EXIT_OK and doc["pass"] is True

    def test_verify_daha(self, tmp_path):
        code, doc = run(
            ["verify-daha", "--daha", "1/4,1/4,0,0", "--n-max", "4", "--degree", "4"],
            tmp_path,
        )
        assert code == EXIT_OK and doc["pass"] is True

    def test_verify_iso(self, tmp_path):
        code, doc = run(
            ["verify-iso", "--quad", "1/2,1/2,1/2,1/2", "--degree", "4"], tmp_path
        )
        assert code == EXIT_OK and doc["pass"] is True

    def test_verify_prop1(self, tmp_path):
        code, doc = run(
            ["verify-prop1", "--params", "1/3,1/5,2,1", "--n-max", "6", "--degree", "4"],
            tmp_path,
        )
        assert code == EXIT_OK and doc["pass"] is True

    def test_rep(self, tmp_path):
        code, doc = run(
            ["rep", "--quad", "1/2,1/2,1/2,1/2", "--size", "10"], tmp_path
        )
        assert code == EXIT_OK and doc["pass"] is True
        assert doc["relations"]["pass"] is True
        assert doc["positivity"]["pass"] is True

    def test_rep_runs_the_recurrence_once(self, tmp_path, monkeypatch):
        # The band (n < N) runs it once; the positivity scan never does.
        calls = []
        recurrence = reptheory.q_modified_coefficients

        def counted(n_max, q):
            calls.append(n_max)
            return recurrence(n_max, q)

        monkeypatch.setattr(reptheory, "q_modified_coefficients", counted)
        code, _ = run(["rep", "--quad", "1/2,1/2,1/2,1/2", "--size", "200"], tmp_path)
        assert code == EXIT_OK
        assert calls == [199]


def _draw_by_recurrence(rng, n_max):
    """``(set, rejected)``: a draw as random_parameter_set made it when it
    ran bi_coefficients to n_max and rejected on DegenerateParameters."""
    rejected = 0
    while True:
        vals = [ComplexRational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                                Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                for _ in range(4)]
        p = polyfam.ParameterSet(*vals)
        try:
            polyfam.bi_coefficients(n_max, p)
        except DegenerateParameters:
            rejected += 1
            continue
        return p, rejected


# Seeds whose first draw has a+b+c+d = -3, -2, -10, -1, -8: about 0.15% of
# draws are degenerate, too few for seeds 0..199 to meet one.
REJECTING_SEEDS = (1243, 1285, 1545, 1934, 2037)


class TestRandomParameterSet:
    @pytest.mark.parametrize("n_max, least_rejected", [(0, 2), (10, 5), (30, 5)])
    def test_draws_the_sets_the_recurrence_rule_drew(self, n_max, least_rejected):
        rejected = 0
        for seed in list(range(200)) + list(REJECTING_SEEDS):
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            for _ in range(2):
                p, r = _draw_by_recurrence(old_rng, n_max)
                assert random_parameter_set(new_rng, n_max) == p, (seed, n_max)
                rejected += r
            assert new_rng.getstate() == old_rng.getstate()
        assert rejected >= least_rejected


class TestErrorPaths:
    def test_degenerate_exit_3(self, tmp_path):
        code, doc = run(
            ["verify-algebra", "--params", "0,0,-2,0", "--degree", "6"], tmp_path
        )
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "DegenerateParameters"

    def test_unparsable_params_exit_3(self, tmp_path):
        code, doc = run(["poly", "--params", "not,a,number,set"], tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"

    def test_two_parameter_styles_rejected(self, tmp_path):
        code, doc = run(
            ["poly", "--params", "0,0,0,0", "--quad", "1,1,1,1"], tmp_path
        )
        assert code == EXIT_INVALID_PARAMETERS

    def test_rep_nonpositive_quad_exit_3(self, tmp_path):
        code, doc = run(["rep", "--quad=-1,1,1,1", "--size", "10"], tmp_path)
        assert code == EXIT_INVALID_PARAMETERS

    @pytest.mark.parametrize("argv", [
        ["verify-daha", "--daha", "1,1,1,1", "--degree", "-1", "--n-max", "-1"],
        ["poly", "--params", "0,0,0,0", "--n-max", "-3"],
        ["rep", "--quad", "1/2,1/2,1/2,1/2", "--size", "-1"],
        ["rep", "--quad", "1/2,1/2,1/2,1/2", "--size", "5"],
        ["verify-algebra", "--degree", "100000"],
        ["poly", "--n-max", "100000"],
        ["rep", "--quad", "1/2,1/2,1/2,1/2", "--size", "100000"],
    ])
    def test_negative_size_exit_3(self, argv, tmp_path):
        code, doc = run(argv, tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"

    @pytest.mark.parametrize("argv, detail", [
        (["verify-prop1", "--n-max", "101"], "--n-max must be in 0..100, got 101"),
        (["verify-iso", "--degree", "101"], "--degree must be in 0..100, got 101"),
        (["rep", "--size", "1001"], "--size must be in 6..1000, got 1001"),
        (["rep", "--size", "5"], "--size must be in 6..1000, got 5"),
        (["ortho", "--quad", "1/2,1/2,1/2,1/2", "--n-max", "101"],
         "--n-max must be in 0..25, got 101"),
        (["all", "--n-max", "-1"], "--n-max must be in 0..25, got -1"),
    ])
    def test_size_over_cap_names_flag(self, argv, detail, tmp_path):
        code, doc = run(argv, tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["detail"] == detail

    def test_n_max_at_cap_exit_0(self, tmp_path):
        code, _ = run(["poly", "--params", "0,0,0,0", "--n-max", "100"], tmp_path)
        assert code == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["poly", "--params", "1/0,0,0,0"],
        ["wilson", "--daha", "1/0,0,0,0"],
        ["verify-daha", "--n-max", "1", "--degree", "1"],
    ])
    def test_unreadable_or_missing_values_exit_3(self, argv, tmp_path):
        code, doc = run(argv, tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"

    @pytest.mark.parametrize("argv", [
        ["poly", "--n-max", "abc"],
        ["poly", "--params", "0,0,0,0", "--bogus"],
        [],
        ["no-such-command"],
    ])
    def test_usage_error_exit_3(self, argv):
        code, doc = run_stdout(argv)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["schema"] == SCHEMA
        assert doc["error"]["kind"] == "InvalidParameters"

    @pytest.mark.parametrize("argv, expected", [
        (["verify-eigen", "--params", "-1/4,-1/4,-1/4,-1/5", "--n-max", "4"], EXIT_OK),
        # a+b+c+d = -1: degenerate, and said so, not a usage error.
        (["verify-eigen", "--params", "-1/4,-1/4,-1/4,-1/4"], EXIT_INVALID_PARAMETERS),
        (["q-poly", "--params", "-i,1/2,-1/3+i,2", "--n-max", "2"], EXIT_OK),
        (["verify-daha", "--daha", "-1/3,1/5,-2/7,1/2", "--n-max", "2", "--degree", "2"], EXIT_OK),
        (["rep", "--quad", "-1,1,1,1"], EXIT_INVALID_PARAMETERS),
    ])
    def test_a_leading_minus_is_read_as_the_value(self, argv, expected, tmp_path):
        # "--params -1/4,..." once read the value as a flag: exit 3, "expected one argument".
        glued = argv[:1] + [f"{argv[1]}={argv[2]}"] + argv[3:]
        code, doc = run(argv, tmp_path, "spaced.json")
        assert (code, doc) == run(glued, tmp_path, "glued.json")
        assert code == expected and doc["command"] == argv[0]

    def test_a_negative_quad_names_positivity(self, tmp_path):
        code, doc = run(["all", "--quad", "-1,1,1,1"], tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert "must be positive" in doc["error"]["detail"]

    def test_closed_form_mismatch_exit_2(self, tmp_path, monkeypatch):
        recurrence = polyfam.bi_coefficients

        def perturbed(n_max, p):
            data = recurrence(n_max, p)
            data.u_mod[3] = data.u_mod[3] + 1
            return data

        monkeypatch.setattr(polyfam, "bi_coefficients", perturbed)
        code, doc = run(["rep", "--quad", "1/2,1/2,1/2,1/2", "--size", "10"], tmp_path)
        # The band is checked by its relations, not against the closed forms.
        assert code == EXIT_VERIFICATION_FAILED
        assert doc["pass"] is False and doc["relations"]["pass"] is False
        residuals = doc["relations"]["residuals"]
        assert residuals["rel2"]["approx"] == residuals["casimir"]["approx"] == "2.0"
        assert doc["positivity"]["pass"] is True

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as info, redirect_stdout(io.StringIO()):
            main(["--help"])
        assert info.value.code == 0

    def test_all_checks_precision_before_any_stage(self, tmp_path, monkeypatch):
        def stage(*args):
            raise AssertionError("a stage ran before --precision was checked")

        monkeypatch.setattr("biwkit.cli.verify_eigen_bi", stage)
        code, doc = run(["all", "--precision", "5", "--n-max", "1", "--truncation", "20"],
                        tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"

    def test_all_checks_precision_cap_before_any_stage(self, tmp_path, monkeypatch):
        def stage(*args):
            raise AssertionError("a stage ran before --precision was checked")

        monkeypatch.setattr("biwkit.cli.verify_eigen_bi", stage)
        code, doc = run(["all", "--precision", "100000"], tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"
        assert "--precision" in doc["error"]["detail"]

    @pytest.mark.parametrize("truncation", ["-100", "0", "1000000000"])
    def test_all_checks_truncation_before_any_stage(self, truncation, tmp_path, monkeypatch):
        def stage(*args):
            raise AssertionError("a stage ran before --truncation was checked")

        monkeypatch.setattr("biwkit.cli.verify_eigen_bi", stage)
        code, doc = run(["all", "--n-max", "1", "--truncation", truncation], tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"
        assert "--truncation" in doc["error"]["detail"]

    def test_all_checks_quad_before_any_stage(self, tmp_path, monkeypatch):
        def stage(*args):
            raise AssertionError("a stage ran before --quad was checked")

        monkeypatch.setattr("biwkit.cli.verify_eigen_bi", stage)
        code, doc = run(["all", "--quad", "1/2,1/2,1/2,-1/2", "--n-max", "1",
                         "--truncation", "20"], tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"

    @pytest.mark.parametrize("argv", [
        ORTHO + ["--tol", "abc"],
        ORTHO + ["--tol", "0"],
        ORTHO + ["--precision", "0"],
        ORTHO + ["--precision", "20", "--truncation", "-100"],
        ORTHO + ["--precision", "20", "--truncation", "0"],
        ORTHO + ["--precision", "20", "--truncation", "1000000000"],
        ["all", "--tol", "abc"],
        ORTHO + ["--precision", "100000"],
    ])
    def test_ortho_invalid_input_exit_3(self, argv, tmp_path):
        code, doc = run(argv, tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"

    def test_rep_has_no_precision_flag(self):
        # rep's residuals are exact: no precision is settable.
        code, doc = run_stdout(["rep", "--quad", "1/2,1/2,1/2,1/2", "--precision", "30"])
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"
        assert "--precision" in doc["error"]["detail"]

    def assert_precision_environment_ignored(self, value, tmp_path, monkeypatch):
        # BIWKIT_PRECISION is not read: with it set, the documents are those of a run without it.
        unset, given = tmp_path / "unset.json", tmp_path / "set.json"
        for argv in (["poly", "--params", "0,0,0,0"], ORTHO):
            monkeypatch.delenv("BIWKIT_PRECISION", raising=False)
            assert main(argv + ["--output", str(unset)]) == EXIT_OK
            monkeypatch.setenv("BIWKIT_PRECISION", value)
            assert main(argv + ["--output", str(given)]) == EXIT_OK
            assert given.read_bytes() == unset.read_bytes()

    def test_malformed_precision_environment_is_ignored(self, tmp_path, monkeypatch):
        self.assert_precision_environment_ignored("abc", tmp_path, monkeypatch)

    def test_precision_environment_over_cap_is_ignored(self, tmp_path, monkeypatch):
        self.assert_precision_environment_ignored("100000", tmp_path, monkeypatch)

    def test_ortho_not_converged_exit_4(self, tmp_path):
        # 1e-40 is below what 30 working digits resolve: the halving cap is hit.
        argv = ORTHO + ["--precision", "20", "--truncation", "10", "--tol", "1e-40"]
        code, doc = run(argv, tmp_path)
        assert code == EXIT_NOT_CONVERGED
        assert doc["error"]["kind"] == "QuadratureNotConverged"

    def test_ortho_evaluation_budget_exit_4(self, tmp_path, monkeypatch):
        # With d = 100000 the first level alone takes minutes; the budget ends it.
        monkeypatch.setattr(measure, "MAX_EVALUATIONS", 50)
        argv = ["ortho", "--quad", "1/2,1/2,1/2,100000", "--n-max", "0", "--precision", "20"]
        code, doc = run(argv, tmp_path)
        assert code == EXIT_NOT_CONVERGED
        assert doc["error"]["kind"] == "QuadratureNotConverged"
        assert "within 50 evaluations of W" in doc["error"]["detail"]


# Random argv: a subcommand, its size flags with a value of at most 3 or a
# malformed one, a parameter flag with a good or malformed value, and maybe
# one more flag.  `all` and `ortho` are left out to keep every run short.
COMMANDS = {  # command: (size flags, parameter flags)
    "poly": (("--n-max",), ("--params", "--quad")),
    "q-poly": (("--n-max",), ("--params", "--quad")),
    "wilson": (("--n-max",), ("--params", "--quad", "--daha")),
    "verify-eigen": (("--n-max",), ("--params", "--quad")),
    "verify-algebra": (("--degree",), ("--params", "--quad")),
    "verify-daha": (("--n-max", "--degree"), ("--daha",)),
    "verify-iso": (("--degree",), ("--params", "--quad")),
    "verify-prop1": (("--n-max", "--degree"), ("--params", "--quad")),
    "rep": (("--size",), ("--quad",)),
    "no-such-command": ((), ("--params",)),
}


def mostly(good, bad):
    """Good tokens three times as likely as malformed ones."""
    return st.sampled_from(good * 3 + bad)


SIZES = mostly(("0", "1", "2", "3"), ("-1", "abc", "1.5", ""))
VALUES = mostly(("0,0,0,0", "1/2,1/2,1/2,1/2", "1/3,2/5,1/2,1/7", "1/3,1/5+1/2i,-1/4,2/7i"),
                ("0,0,-2,0", "-1,1,1,1", "1/0,0,0,0", "1,2,3", "a,b,c,d", ""))
EXTRA_FLAGS = ("--params", "--quad", "--daha", "--precision", "--tol", "--bogus")
EXTRA_VALUES = st.one_of(VALUES, st.sampled_from(("0", "16", "30", "1e-6", "abc")))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    size_flags, param_flags = COMMANDS[command]
    argv = [command]
    for flag in size_flags:
        argv += [flag, draw(SIZES)]
    argv += [draw(st.sampled_from(param_flags)), draw(VALUES)]
    for flag in draw(st.lists(st.sampled_from(EXTRA_FLAGS), max_size=1)):
        argv += [flag, draw(EXTRA_VALUES)]
    # Now and then drop the last token, leaving a flag without its value.
    return argv[:-1] if draw(st.integers(0, 7)) == 0 else argv


class TestRandomArgv:
    @settings(max_examples=80, deadline=None)
    @given(argvs())
    def test_always_a_documented_exit_and_a_json_document(self, argv):
        code, doc = run_stdout(argv)
        assert code in {EXIT_OK, EXIT_VERIFICATION_FAILED, EXIT_INVALID_PARAMETERS,
                        EXIT_NOT_CONVERGED}
        assert doc["schema"] == SCHEMA
        if "error" in doc:
            assert code != EXIT_OK
        else:
            assert code == (EXIT_OK if doc["pass"] else EXIT_VERIFICATION_FAILED)


GRAM_SUMMARIES = ("max_offdiag_rel", "max_diag_rel_err", "max_ratio_err", "l_stability", "tol")


class TestLeafTagging:
    """Every number is a tagged leaf, and an ``approx`` tag states the digits
    printed: 6 for the summaries, ``--precision`` for the Gram entries."""

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("tagging")
        argvs = {
            "rep": ["rep", "--quad", "1/2,1/2,1/2,1/2", "--size", "8"],
            "ortho": ["ortho"] + FAST_ALL,
            "all": ["all"] + FAST_ALL,
        }
        return {name: run(argv, tmp_path, f"{name}.json")[1] for name, argv in argvs.items()}

    def test_every_leaf_tagged_or_structural(self, documents):
        def walk(node, key=None):
            if isinstance(node, dict):
                if set(node) == {"exact"} or set(node) == {"approx", "precision_digits"}:
                    return
                for k, v in node.items():
                    walk(v, k)
            elif isinstance(node, list):
                for v in node:
                    walk(v, key)
            elif isinstance(node, str):
                # Bare strings are only allowed for labels.
                assert key in {"schema", "command", "relation", "identity",
                               "kind", "detail", "which", "family"}, (key, node)

        for doc in documents.values():
            walk(doc)

    def test_approx_digits_are_the_printed_digits(self, documents):
        stages = documents["all"]["stages"]
        for gram in (documents["ortho"]["orthogonality"], stages["orthogonality"]["report"]):
            for key in GRAM_SUMMARIES:
                assert gram[key]["precision_digits"] == 6, key
            entries = [v for row in gram["gram"] for v in row] + gram["expected_diag"]
            assert {v["precision_digits"] for v in entries} == {30}  # FAST_ALL's --precision
        for rep in (documents["rep"]["relations"], stages["representation"]["report"]):
            for leaf in [*rep["residuals"].values(), rep["tolerance"]]:
                assert leaf["precision_digits"] == 6

    def test_records_are_written_by_their_fields(self):
        p = polyfam.ParameterSet(1, ComplexRational(0, 1), Fraction(1, 2), 0)
        records = [
            (p, ("a", "b", "c", "d")),
            (polyfam.RealParameterQuad(1, 2, 3, 4), ("alpha", "beta", "gamma", "delta")),
            (polyfam.param_map_bi_to_daha(p), ("t0", "t1", "u0", "u1")),
            (polyfam.structure_constants(p),
             ("omega1", "omega2", "omega3", "alpha1", "alpha2", "alpha3")),
        ]
        for record, names in records:
            doc = written(record)
            assert tuple(doc) == names
            assert doc == {name: written(getattr(record, name)) for name in names}
        # total is a cached_property: reading it fills __dict__, not the fields.
        assert p.total == ComplexRational(Fraction(3, 2), 1)
        assert tuple(written(p)) == ("a", "b", "c", "d")
        # Reports: keys in declared order, passed as "pass", a metadata key as given.
        quad = polyfam.RealParameterQuad(*(Fraction(1, 2),) * 4)
        rep = reptheory.verify_rep_relations(reptheory.build_rep(8, quad))
        positivity = reptheory.positivity_scan(quad, 10)
        iso = operators.iso_forward(*operators.bi_realization(p), 1)
        reports = [
            (rep, ("N", "precision_digits", "interior_block", "residuals", "tolerance", "pass")),
            (positivity, ("n_max", "u_all_positive", "c_all_real", "first_nonpositive_n", "pass")),
            (iso, ("central_values", "checks", "pass")),
            (iso.checks[0], ("relation", "degree_checked", "pass", "first_failure")),
            (polyfam.q_symmetry_check(2, p), ("n_max", "checks", "pass")),
        ]
        for report, keys in reports:
            doc = written(report)
            assert tuple(doc) == keys
            assert list(doc.values()) == [written(getattr(report, f.name))
                                          for f in dataclasses.fields(report)]
            assert doc["pass"] is report.passed
        assert written(rep)["N"] == rep.size == 8
        # CasimirReport.passed is a property, not a field: its document has no "pass".
        casimir = operators.verify_casimir(p, 1)
        assert casimir.passed is casimir.realized_ok
        assert tuple(written(casimir)) == ("which", "expected", "realized_ok",
                                           "max_degree_checked")
        # A failed check writes its first failure's residual polynomial.
        failed = operators.verify_nc_algebra(p, 2, flip_first_sign=True).checks[0]
        residual = failed.first_failure["residual_poly"]
        assert not failed.passed and not residual.is_zero()
        assert written(failed)["first_failure"] == {
            "monomial_degree": failed.first_failure["monomial_degree"],
            "residual_poly": written(residual)}

    def test_encoder_rejects_a_bare_mpf(self):
        with pytest.raises(TypeError, match="mpf"):
            document_text({"gram": [[mpf(1)]]})
        # Also as a record's field: a report hands over Approx, never a bare mpf.
        quad = polyfam.RealParameterQuad(*(Fraction(1, 2),) * 4)
        report = reptheory.verify_rep_relations(reptheory.build_rep(8, quad))
        with pytest.raises(TypeError, match="mpf"):
            document_text(dataclasses.replace(report, tolerance=report.tolerance.value))

    def test_encoder_rejects_a_key_that_is_not_a_str(self):
        with pytest.raises(TypeError, match="document key of type int"):
            document_text({"gram": {0: "row"}})


def in_json_dumps_form(text: str) -> bool:
    """Whether ``text`` is what ``json.dumps(indent=2)`` writes for its own tree."""
    return text == json.dumps(json.loads(text), indent=2) + "\n"


def benchmark_module(monkeypatch, name):
    """The benchmark's ``perfbench/<name>.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def benchmark_workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    return benchmark_module(monkeypatch, "workloads")


def exact_wide_documents(tmp_path, monkeypatch, seed):
    """The documents of one pass of the benchmark's exact-wide workload."""
    workloads = benchmark_workloads(monkeypatch)
    documents = []  # each document's bytes, as the pass feeds them to its digest
    context = SimpleNamespace(scratch_dir=str(tmp_path), add=lambda name, value: None,
                              digest=SimpleNamespace(update=documents.append))
    certs = workloads.exact_wide(random.Random(seed))
    for cert in certs:
        assert cert.run(context) == cert.expected, cert.name
    assert len(documents) == len(certs)
    return [data.decode("utf-8") for data in documents]


@pytest.mark.parametrize("workload", ["exact-deep", "numeric"])
def test_benchmark_pass_meets_every_expected_outcome(workload, tmp_path, monkeypatch):
    """Pass 0 of the benchmark's library workloads at seed 1: each certificate, which
    reads report attributes such as ``passed`` and ``first_nonpositive``, has the outcome
    it expects.  The pass runs under the benchmark's own span tracer: it records a call
    of every name the workload expects, and none in the layers it bypasses."""
    workloads = benchmark_workloads(monkeypatch)
    spans = benchmark_module(monkeypatch, "spans")
    context = workloads.PassContext(str(tmp_path))
    certs = workloads.build(workload, seed=1, pass_index=0)
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
        for cert in certs:
            assert cert.run(context) == cert.expected, cert.name
    finally:
        tracer.uninstall()
    recorded = {tracer.labels[i] for i in set(tracer.name_of)}
    assert set(spans.EXPECTED_SPANS[workload]) <= recorded, \
        set(spans.EXPECTED_SPANS[workload]) - recorded
    assert not set(spans.BYPASSED_LAYERS[workload]) & set(tracer.layers_with_spans())


class TestWriter:
    """The writer's text is what ``json.dumps(indent=2)`` writes for the same tree."""

    GOLDEN = Path(__file__).parent / "data" / "golden"

    def test_goldens_are_in_json_dumps_form(self):
        names = sorted(self.GOLDEN.glob("*.json"))
        assert len(names) == 15
        for path in names:
            assert in_json_dumps_form(path.read_text(encoding="utf-8")), path.name

    def test_exact_wide_pass_documents_are_in_json_dumps_form(self, tmp_path, monkeypatch):
        documents = exact_wide_documents(tmp_path, monkeypatch, seed=1)
        for text in documents:
            assert in_json_dumps_form(text), text[:200]

    @pytest.mark.parametrize("argv, detail", [
        (["poly", "--params", 'é,0,0,"\\x'], 'é,0,0,"\\\\x'),
        (["poly", "--params", "0,0,0,0", 'é"\\\t\x01'], 'é"\\\t\x01'),
    ], ids=["params", "control-character"])
    def test_error_detail_is_escaped_as_json_dumps_escapes_it(self, argv, detail):
        # A usage error is reported before --output is read, so both go to stdout.
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == EXIT_INVALID_PARAMETERS
        text = out.getvalue()
        assert text.isascii() and in_json_dumps_form(text)
        assert detail in json.loads(text)["error"]["detail"]

    def test_every_leaf_type_as_json_dumps_writes_its_tag(self):
        p = polyfam.ParameterSet(1, ComplexRational(0, 1), Fraction(-1, 2), 0)
        value = {"p": p, "q": Fraction(3, -6), "poly": Polynomial([ComplexRational(1, -2), 0]),
                 "zero": Polynomial([]), "a": measure.Approx(mpf(2) / 3, 6), "empty": {},
                 "none": [], "flags": [True, False, None, 7, "\u00e9\"\\\n"]}
        tree = {"p": {"a": {"exact": {"re": "1", "im": "0"}},
                      "b": {"exact": {"re": "0", "im": "1"}},
                      "c": {"exact": {"re": "-1/2", "im": "0"}},
                      "d": {"exact": {"re": "0", "im": "0"}}},
                "q": {"exact": "-1/2"},
                "poly": [{"exact": {"re": "1", "im": "-2"}}],
                "zero": [], "a": {"approx": "0.666667", "precision_digits": 6}, "empty": {},
                "none": [], "flags": [True, False, None, 7, "\u00e9\"\\\n"]}
        assert document_text(value) == json.dumps(tree, indent=2)

    # Signs, zero, and integers over the other part's denominator (re = 5 is 20/4 below).
    @example(Fraction(0), Fraction(0))
    @example(Fraction(5), Fraction(-3, 4))
    @example(Fraction(-5), Fraction(0))
    @example(Fraction(-10 ** 30, 3), Fraction(7))
    @given(st.fractions(), st.fractions())
    def test_rational_text_is_str_of_the_fraction(self, re, im):
        leaf = written(ComplexRational(re, im))
        assert leaf == {"exact": {"re": str(re), "im": str(im)}}
        assert written(re) == {"exact": str(re)}


class TestRunAll:
    def test_all_passes(self, tmp_path):
        code, doc = run(["all"] + FAST_ALL, tmp_path)
        assert code == EXIT_OK
        assert doc["pass"] is True
        assert all(s["pass"] for s in doc["stages"].values())

    def test_tamper_negative_control(self, tmp_path):
        code, doc = run(["all", "--tamper"] + FAST_ALL, tmp_path)
        assert code == EXIT_VERIFICATION_FAILED
        assert doc["stages"]["compact_algebra"]["pass"] is False
        # Other stages still ran and passed: failures accumulate.
        assert doc["stages"]["noncompact_algebra"]["pass"] is True
        assert doc["stages"]["orthogonality"]["pass"] is True

    def test_all_passes_at_four_distinct_parameters(self, tmp_path):
        code, doc = run(["all", "--quad", "1/3,2/5,3/4,1/7", "--n-max", "1", "--precision", "20"],
                        tmp_path)
        assert code == EXIT_OK
        assert len(doc["stages"]) == 17 and all(s["pass"] for s in doc["stages"].values())
        assert "first_failure" not in doc["stages"]["positivity"]["report"]

    def test_closed_form_disagreement_fails_positivity_and_keeps_every_verdict(
            self, tmp_path, monkeypatch):
        # b for a in one factor of the odd C_n: the recurrence no longer meets its closed forms.
        mutate_polyfam(monkeypatch, polyfam, "_shifts", "2 * (p.b + p.c) + 1",
                       "2 * (p.a + p.c) + 1")
        quad = polyfam.RealParameterQuad(Fraction(1, 3), Fraction(2, 5), Fraction(3, 4),
                                         Fraction(1, 7))
        with pytest.raises(BiwkitError, match="^c_1 closed form disagrees .* on odd n$"):
            reptheory.positivity_scan(quad, 100)
        code, doc = run(["rep", "--quad", "1/3,2/5,3/4,1/7"], tmp_path, "rep.json")
        assert code != EXIT_OK and "error" in doc
        code, doc = run(["all", "--quad", "1/3,2/5,3/4,1/7", "--n-max", "1", "--precision", "20"],
                        tmp_path)
        assert code == EXIT_VERIFICATION_FAILED
        stages = doc["stages"]
        assert len(stages) == 17 and all(type(s["pass"]) is bool for s in stages.values())
        assert stages["positivity"] == {
            "report": {"first_failure": {"coefficient": "c_1", "parity": "odd"}, "pass": False},
            "pass": False}
        assert not stages["bi_eigen"]["pass"]
        assert stages["compact_algebra"]["pass"]

    def test_prop1_operator_checks_the_daha_set_that_all_maps(self, tmp_path, monkeypatch):
        # ``all`` maps p to its DAHA set once; the operator transform must check
        # that set, so a wrong map fails it even where the other DAHA stages,
        # which hold for any set, pass.
        def shifted(p):
            t = polyfam.param_map_bi_to_daha(p)
            return dataclasses.replace(t, t0=t.t0 + Fraction(1, 7))

        monkeypatch.setattr("biwkit.cli.param_map_bi_to_daha", shifted)
        code, doc = run(["all"] + FAST_ALL, tmp_path)
        assert code == EXIT_VERIFICATION_FAILED
        assert doc["stages"]["prop1_operator"]["pass"] is False
        assert doc["stages"]["daha_relations"]["pass"] is True


def run_python(argv):
    """A fresh interpreter, with this checkout's ``src`` first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


class TestProcessEntryPoint:
    """``python -m biwkit`` as the shell sees it: exit status and stdout."""

    @pytest.mark.parametrize("argv, expected", [
        (["verify-eigen", "--params", "0,0,0,0", "--n-max", "4"], EXIT_OK),
        (["all", "--tamper"] + FAST_ALL, EXIT_VERIFICATION_FAILED),
    ])
    def test_exit_status_matches_document(self, argv, expected):
        proc = run_python(["-m", "biwkit"] + argv)
        assert proc.returncode == expected
        doc = json.loads(proc.stdout)  # exactly one JSON document
        assert doc["schema"] == SCHEMA
        assert doc["pass"] is (proc.returncode == EXIT_OK)


def test_package_import_loads_no_submodule():
    # Each name is imported from its module; the package exports only __version__.
    proc = run_python(["-c", (
        "import sys, biwkit; "
        "print(sorted(m for m in sys.modules if m.startswith(('biwkit.', 'mpmath')))); "
        "print(sorted(n for n in vars(biwkit) if not n.startswith('_')))")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


class TestGramContract:
    """One input contract for the Gram: ``ortho`` and ``all`` word each
    rejection alike, and ``all`` rejects before its first stage."""

    def test_ortho_and_all_take_the_same_gram_flags(self):
        def gram_flags(argv):
            args = build_parser().parse_args(argv)
            return args.precision, args.tol, args.truncation

        assert gram_flags(["ortho"]) == gram_flags(["all"]) == (
            measure.DEFAULT_PRECISION, measure.DEFAULT_TOL, None)
        given = ["--precision", "20", "--tol", "1e-6", "--truncation", "7"]
        assert gram_flags(["ortho"] + given) == gram_flags(["all"] + given) == (20, "1e-6", 7)

    @pytest.mark.parametrize("flags", [
        ["--precision", "19"], ["--precision", "101"],
        ["--truncation", "0"], ["--truncation", "201"],
        ["--tol", "0"], ["--tol", "1"], ["--n-max", "26"],
    ])
    def test_ortho_and_all_reject_alike_before_any_stage(self, flags, tmp_path, monkeypatch):
        code, ortho = run(ORTHO + flags, tmp_path, "ortho.json")
        assert code == EXIT_INVALID_PARAMETERS

        def stage(*args):
            raise AssertionError(f"a stage ran before {flags[0]} was checked")

        monkeypatch.setattr("biwkit.cli.verify_eigen_bi", stage)
        code, doc = run(["all", "--n-max", "1"] + flags, tmp_path, "all.json")
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"] == ortho["error"]
        assert flags[0] in doc["error"]["detail"]

    @pytest.mark.parametrize("quad", ["1e400,1,1,1", "1,1e100,1,1"])
    def test_quads_past_the_float_range_exit_4_alike(self, quad, tmp_path):
        # The rule's strip in t is computed in floats: 1e400 overflows a float,
        # and pole lines at 2e100 overflow the squares in the strip's width.
        code, ortho = run(["ortho", "--quad", quad, "--n-max", "0", "--precision", "20"],
                          tmp_path, "ortho.json")
        assert code == EXIT_NOT_CONVERGED
        assert ortho["error"]["kind"] == "QuadratureNotConverged"
        code, doc = run(["all", "--quad", quad], tmp_path, "all.json")
        assert code == EXIT_NOT_CONVERGED
        assert doc["error"] == ortho["error"]

    def test_rounding_in_h0_is_not_a_pairing_fault(self, tmp_path):
        # h0's log-Gamma sum has imaginary part zero but for rounding; at beta = 1e12
        # that rounding once read as "h0 is not real" and exited 3.  The run ends
        # on the evaluation budget instead.
        argv = ["ortho", "--quad", "1,1e12,1,1", "--n-max", "0", "--precision", "50"]
        code, doc = run(argv, tmp_path)
        assert code == EXIT_NOT_CONVERGED
        assert "evaluations of W" in doc["error"]["detail"]

    def test_tolerance_of_one_or_more_exit_3(self, tmp_path):
        # At tol >= 1 the diagonal and ratio checks would pass any Gram.
        code, doc = run(ORTHO + ["--precision", "20", "--tol", "1e400"], tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["detail"] == "--tol must be in (0, 1), got 1.0e+400"

    def test_cut_past_the_last_rise_passes(self, tmp_path):
        # W / h0 is 1.8e-17 at z = 40 but rises to 0.78 near z = 85; the decay
        # scan starts past the Stirling estimate of that peak, 138.
        argv = ["ortho", "--quad", "30,30,30,30", "--n-max", "1", "--precision", "20"]
        code, doc = run(argv, tmp_path)
        assert code == EXIT_OK
        assert doc["orthogonality"]["truncation_L"] > 90

    def test_rise_past_the_cut_exit_4(self, tmp_path, monkeypatch):
        # W plus a bump at z = 88, 2e-22 at z = 40: the decay test at L = 40
        # holds, and only the [-L, L] cut certificate sees the mass past L.
        weight = measure._weight
        monkeypatch.setattr(measure, "_weight", lambda z, *params: (
            weight(z, *params) + mp.exp(-((z - 88) / 8) ** 2) / 10 ** 6))
        code, doc = run(ORTHO + ["--precision", "20"], tmp_path)
        assert code == EXIT_NOT_CONVERGED
        assert doc["error"]["kind"] == "QuadratureNotConverged"
        assert "L = 40" in doc["error"]["detail"]

    @pytest.mark.parametrize("quad, uniform_panels", [("1/2,20,1/2,20", 2080),
                                                       ("28,37,15,37/2", 540)])
    def test_large_imaginary_quads_stay_affordable(self, quad, uniform_panels, tmp_path):
        # Their mass lies out near the pole lines Re z = -+2 Im a, -+2 Im b, where
        # the sinh map spreads its nodes; uniform_panels is what the uniform
        # rule on [-X, X] took.
        code, doc = run(["ortho", "--quad", quad, "--n-max", "1", "--precision", "20"], tmp_path)
        assert code == EXIT_OK
        assert doc["orthogonality"]["panels"] <= 1.5 * uniform_panels

    def test_tail_past_one_hundred_passes(self, tmp_path):
        # The tail test first holds past L = 100, where a cap of twelve
        # steps from the default L = 40 used to stop it.
        argv = ["ortho", "--quad", "28,37,15,37/2", "--n-max", "1", "--precision", "20"]
        code, doc = run(argv, tmp_path)
        assert code == EXIT_OK
        assert doc["orthogonality"]["truncation_L"] > 100


class TestParameterStyle:
    @pytest.mark.parametrize("other", [["--quad", "1/2,1/2,1/2,1/2"], ["--params", "0,0,0,0"]])
    def test_wilson_rejects_daha_with_another_style(self, other, tmp_path):
        code, doc = run(["wilson", "--daha", "1/4,1/4,0,0"] + other, tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["detail"] == "give exactly one of --params or --quad or --daha"


class TestOutputPath:
    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_output_exit_3_before_any_work(self, target, tmp_path, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("the family was built before --output was checked")

        monkeypatch.setattr("biwkit.cli.family_to_json", work)
        path = os.path.normpath(tmp_path / target)
        code, doc = run_stdout(["poly", "--params", "0,0,0,0", "--output", path])
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"
        assert doc["error"]["detail"].startswith("--output: cannot write")
