"""Byte-identity of CLI output across refactors of the numeric layer.

``golden/cli_outputs.json`` holds stdout and exit code for commands that
reach every double/wide formula (w_half, the witness search, circulant
rows and spectra, the leading term, mu/lambda maps) at 17 digits and at
wide precision, and the Stein probe and SPD Grams that go through the
pairwise-distance routine (the frozen seed-7 hit, a gap scan, an in-set
scan, ``pd-check`` on Stein and log-Euclidean points), the
double-precision torus and Grassmann projection distances, and the two
documented default-precision outcomes of ``witness circle`` (a refusal
at lambda 5, whose stderr is stored too, and an exhausted scan at 10),
and the verify of two static 70-digit certificates on the rounded
angles 2*pi*k/N, which keeps the verifier's many-offset path frozen
(``capture.py`` never rewrites those two files).  ``capture.py``
rebuilds the file from its argv list at the commit being frozen; any
change to the expected text is a change in behaviour, not a refactor,
and is made by running the script, never by editing the file.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from geokernel.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cli_outputs.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_is_byte_identical(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # pd-check reports its points path verbatim
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case["argv"])
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
    assert err.getvalue() == case.get("stderr", "")


def test_golden_file_is_the_capture_scripts_output():
    spec = importlib.util.spec_from_file_location("capture", GOLDEN / "capture.py")
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    assert [tuple(c["argv"]) for c in CASES] == list(capture.CASES)
    for name in capture.POINT_FILES:
        assert (GOLDEN / name).read_text() == capture.point_file_text(name), name
    for name in capture.CERT_FILES:
        assert (GOLDEN / name).read_text() == capture.cert_file_text(name), name
