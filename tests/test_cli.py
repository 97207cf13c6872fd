"""End-to-end tests of the command-line driver: exit codes, JSON schema,
determinism, and the exactness tagging of leaves."""

import json

import pytest

from biwkit.cli import (
    EXIT_INVALID_PARAMETERS,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    SCHEMA,
    main,
)

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
    ])
    def test_negative_size_exit_3(self, argv, tmp_path):
        code, doc = run(argv, tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"

    @pytest.mark.parametrize("argv", [
        ORTHO + ["--tol", "abc"],
        ORTHO + ["--tol", "0"],
        ORTHO + ["--precision", "0"],
        ["all", "--tol", "abc"],
    ])
    def test_ortho_invalid_input_exit_3(self, argv, tmp_path):
        code, doc = run(argv, tmp_path)
        assert code == EXIT_INVALID_PARAMETERS
        assert doc["error"]["kind"] == "InvalidParameters"

    def test_ortho_not_converged_exit_4(self, tmp_path):
        # 1e-40 is below what 30 working digits resolve: the halving cap is hit.
        argv = ORTHO + ["--precision", "20", "--truncation", "10", "--tol", "1e-40"]
        code, doc = run(argv, tmp_path)
        assert code == EXIT_NOT_CONVERGED
        assert doc["error"]["kind"] == "QuadratureNotConverged"


class TestLeafTagging:
    def test_every_leaf_tagged_or_structural(self, tmp_path):
        _, doc = run(
            ["rep", "--quad", "1/2,1/2,1/2,1/2", "--size", "8"], tmp_path
        )

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

        walk(doc)


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
