"""Byte-identity of the exact certificates against stored documents.

The files under ``tests/data/golden/`` were written by the operator engine
that divided once at the root of each operator tree; any engine must
reproduce them byte for byte: the verdicts, the ``biwkit/1`` JSON and the
``first_failure`` residuals of the two negative controls.  ``ortho.json``
was written by the nested trapezoid Gram; its approximate digits pin the
quadrature rule, so a change to ``measure`` shows here.
"""

import json
from pathlib import Path

import pytest

from biwkit.cli import EXIT_OK, _parse_params, main
from biwkit.operators import (
    StructureConstants,
    structure_constants,
    verify_bi_algebra,
    verify_nc_algebra,
)

GOLDEN = Path(__file__).parent / "data" / "golden"
PARAMS = "1/2+1/3i,-1/4+1/2i,2/3-1/5i,1/7-2i"
DAHA = "1/3,1/5+1/2i,-1/4,2/7i"
CONTROL_DEGREE = 3

CLI_CASES = {
    "verify-eigen": ["verify-eigen", "--params", PARAMS, "--n-max", "4"],
    "verify-algebra": ["verify-algebra", "--params", PARAMS, "--degree", "3"],
    "verify-daha": ["verify-daha", "--daha", DAHA, "--n-max", "4", "--degree", "4"],
    "verify-iso": ["verify-iso", "--params", PARAMS, "--degree", "1"],
    "verify-prop1": ["verify-prop1", "--params", PARAMS, "--n-max", "4", "--degree", "3"],
    "ortho": ["ortho", "--quad", "1/2,1/2,1/2,1/2", "--n-max", "1", "--precision", "30",
              "--truncation", "20", "--tol", "1e-6"],
}


def control_documents() -> dict:
    """The two negative controls, as ``to_json()`` text."""
    p = _parse_params(PARAMS)
    sc = structure_constants(p)
    perturbed = StructureConstants(sc.omega1 + 1, sc.omega2, sc.omega3,
                                   sc.alpha1, sc.alpha2, sc.alpha3)
    reports = {
        "control-omega1": verify_bi_algebra(p, CONTROL_DEGREE, constants=perturbed),
        "control-flip-sign": verify_nc_algebra(p, CONTROL_DEGREE, flip_first_sign=True),
    }
    return {name: json.dumps(r.to_json(), indent=2) + "\n" for name, r in reports.items()}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_document_is_byte_identical(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(CLI_CASES[name] + ["--output", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_negative_controls_are_byte_identical():
    docs = control_documents()
    for name, text in docs.items():
        assert '"pass": false' in text
        assert text.encode() == (GOLDEN / f"{name}.json").read_bytes(), name
