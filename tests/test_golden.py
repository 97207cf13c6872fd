"""Byte-identity of the exact certificates against stored documents.

The files under ``tests/data/golden/`` were written by the operator engine
that divided once at the root of each operator tree, and rewritten for the
``biwkit/2`` schema with every value string unchanged; any engine must
reproduce them byte for byte: the verdicts, the JSON and the
``first_failure`` residuals of the three negative controls.  ``ortho.json``
was written by the sinh-mapped nested trapezoid Gram; its approximate digits
pin the quadrature rule, so a change to ``measure`` shows here.  ``rep.json`` was
written by the exact banded representation check; its residuals are exact
zeros, so it does not depend on the mpmath backend.  ``all.json`` pins
every stage of the full suite at reduced settings, among them the
``expected_diag`` digits of the closed-form norm h0, and ``all-tamper.json``
pins the same run with its negative control, which exits 2.  ``poly.json``,
``q-poly.json`` and ``wilson.json`` pin the three construction commands.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

from biwkit.cli import EXIT_OK, EXIT_VERIFICATION_FAILED, _parse_four, document_text, main
from biwkit.exact import parse_complex_rational
from biwkit.operators import (
    StructureConstants,
    bi_realization,
    iso_forward,
    structure_constants,
    verify_bi_algebra,
    verify_nc_algebra,
)
from biwkit.polyfam import ParameterSet

GOLDEN = Path(__file__).parent / "data" / "golden"
PARAMS = "1/2+1/3i,-1/4+1/2i,2/3-1/5i,1/7-2i"
DAHA = "1/3,1/5+1/2i,-1/4,2/7i"
CONTROL_DEGREE = 3

ALL = ["all", "--quad", "1/2,1/2,1/2,1/2", "--n-max", "1", "--precision", "30",
       "--truncation", "20", "--tol", "1e-6"]

# name -> (expected exit code, argv)
CLI_CASES = {
    "poly": (EXIT_OK, ["poly", "--params", PARAMS, "--n-max", "4"]),
    "q-poly": (EXIT_OK, ["q-poly", "--params", PARAMS, "--n-max", "4"]),
    "wilson": (EXIT_OK, ["wilson", "--daha", DAHA, "--n-max", "4"]),
    "verify-eigen": (EXIT_OK, ["verify-eigen", "--params", PARAMS, "--n-max", "4"]),
    "verify-algebra": (EXIT_OK, ["verify-algebra", "--params", PARAMS, "--degree", "3"]),
    "verify-daha": (EXIT_OK, ["verify-daha", "--daha", DAHA, "--n-max", "4", "--degree", "4"]),
    "verify-iso": (EXIT_OK, ["verify-iso", "--params", PARAMS, "--degree", "1"]),
    "verify-prop1": (EXIT_OK, ["verify-prop1", "--params", PARAMS, "--n-max", "4",
                               "--degree", "3"]),
    "ortho": (EXIT_OK, ["ortho", "--quad", "1/2,1/2,1/2,1/2", "--n-max", "1",
                        "--precision", "30", "--truncation", "20", "--tol", "1e-6"]),
    "rep": (EXIT_OK, ["rep", "--quad", "1/2,1/2,1/2,1/2", "--size", "20"]),
    "all": (EXIT_OK, ALL),
    "all-tamper": (EXIT_VERIFICATION_FAILED, ALL + ["--tamper"]),
}


def control_documents() -> dict:
    """The three negative controls, as ``to_json()`` written by the CLI's writer."""
    p = _parse_four(PARAMS, "--params", parse_complex_rational, ParameterSet)
    sc = structure_constants(p)
    perturbed = StructureConstants(sc.omega1 + 1, sc.omega2, sc.omega3,
                                   sc.alpha1, sc.alpha2, sc.alpha3)
    reports = {
        "control-omega1": verify_bi_algebra(p, CONTROL_DEGREE, constants=perturbed),
        "control-flip-sign": verify_nc_algebra(p, CONTROL_DEGREE, flip_first_sign=True),
        "control-iso-omega1": iso_forward(*bi_realization(p)[:3], perturbed, CONTROL_DEGREE),
    }
    return {name: document_text(r.to_json()) + "\n"
            for name, r in reports.items()}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_document_is_byte_identical(name, tmp_path):
    code, argv = CLI_CASES[name]
    out = tmp_path / f"{name}.json"
    assert main(argv + ["--output", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.skipif(shutil.which("biwkit") is None,
                    reason="the biwkit console script is not installed")
@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_console_script_document_is_byte_identical(name):
    """The installed ``biwkit`` script of [project.scripts] writes each golden to stdout."""
    code, argv = CLI_CASES[name]
    result = subprocess.run(["biwkit", *argv], capture_output=True, timeout=120)
    assert result.returncode == code, result.stderr.decode()
    assert result.stdout == (GOLDEN / f"{name}.json").read_bytes()


def test_negative_controls_are_byte_identical():
    docs = control_documents()
    for name, text in docs.items():
        assert '"pass": false' in text
        assert text.encode() == (GOLDEN / f"{name}.json").read_bytes(), name


def test_all_documents_do_not_depend_on_run_order(tmp_path):
    """``all``, ``all --tamper`` and ``all`` again in one process, which shares
    each parameter set's operators and families among them, write the goldens."""
    for i, name in enumerate(("all", "all-tamper", "all")):
        code, argv = CLI_CASES[name]
        out = tmp_path / f"{i}-{name}.json"
        assert main(argv + ["--output", str(out)]) == code
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes(), (i, name)


@pytest.mark.parametrize("twins_first", [True, False], ids=["twins-first", "controls-first"])
def test_controls_and_their_twins_do_not_depend_on_run_order(twins_first):
    """Each negative control fails byte for byte and its passing twin passes,
    whichever of the two ran first for the same parameter set."""
    p = _parse_four(PARAMS, "--params", parse_complex_rational, ParameterSet)

    def twins():
        return [verify_bi_algebra(p, CONTROL_DEGREE), verify_nc_algebra(p, CONTROL_DEGREE),
                iso_forward(*bi_realization(p), CONTROL_DEGREE)]

    if twins_first:
        reports, docs = twins(), control_documents()
    else:
        docs, reports = control_documents(), twins()
    for report in reports:
        assert report.passed
    for name, text in docs.items():
        assert text.encode() == (GOLDEN / f"{name}.json").read_bytes(), name
