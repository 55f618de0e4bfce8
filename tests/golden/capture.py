"""Rebuild ``cli_outputs.json`` from the argv list below.

Run from anywhere, at the commit whose behaviour is to be frozen:

    PYTHONPATH=src python3 tests/golden/capture.py

Each case is run in-process through ``geokernel.cli.main`` with this
directory as the working directory (``pd-check`` reports its points path
verbatim); stdout, the exit code and any stderr are stored as they come, so no expected output is ever edited by hand.
The point files are regenerated from their seeds first, and the
certificate files from the command that builds them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from geokernel import spaces as sp
from geokernel.cli import main

GOLDEN = Path(__file__).resolve().parent

# file name -> (space text, sample seed, point count)
POINT_FILES = {
    "spd3_stein.json": ("spd:3:stein", 31, 12),
    "spd3_log_euclidean.json": ("spd:3:log_euclidean", 32, 12),
    "sphere2.json": ("sphere:2", 33, 40),
    "torus24.json": ("torus", 34, 24),
    "grassmann24_projection.json": ("grassmann:2,4:projection", 35, 24),
}

# file name -> the command whose stdout is the certificate
CERT_FILES = {
    "circle_cert70.json": ("witness", "circle", "--lambda", "10", "--precision", "70"),
    "torus_cert70.json": ("witness", "space", "--target", "torus", "--lambda", "10",
                          "--precision", "70"),
}

CASES = (
    ("witness", "circle", "--lambda", "0.1"),
    ("witness", "circle", "--lambda", "1", "--precision", "17"),
    ("circle-spectrum", "--lambda", "1", "--n", "16", "--precision", "17"),
    ("circle-spectrum", "--lambda", "1", "--n", "16", "--precision", "40"),
    # an odd N: no j = N/2 frequency, every eigenvalue but w_0 mirrored
    ("circle-spectrum", "--lambda", "0.7", "--n", "27", "--precision", "17"),
    ("circle-spectrum", "--lambda", "0.7", "--n", "27", "--precision", "30"),
    ("bound-check", "--mu", "20", "--n-list", "4,8,16", "--precision", "17"),
    ("bound-check", "--mu", "20", "--n-list", "4,8,16", "--precision", "60"),
    ("theta", "--mu", "1,10", "--r", "0,1", "--n", "4,8", "--precision", "17"),
    ("theta", "--mu", "1,10", "--r", "0,1", "--n", "4,8", "--precision", "80"),
    ("lambda-profile", "--n-list", "4,8,16"),
    ("pd-check", "--points", "circle16.json", "--lambda", "1", "--precision", "17"),
    ("pd-check", "--points", "circle16.json", "--lambda", "1", "--precision", "40"),
    # the frozen Stein hit: found at trial index 62 (ill_conditioned)
    ("stein-scan", "--dim", "3", "--points", "10", "--lambda", "0.01",
     "--trials", "80", "--seed", "7"),
    # a gap bandwidth and an in-set one, both searched without a hit
    ("stein-scan", "--dim", "3", "--points", "10", "--lambda", "0.75",
     "--trials", "24", "--seed", "11"),
    ("stein-scan", "--dim", "3", "--points", "10", "--lambda", "0.5",
     "--trials", "24", "--seed", "12"),
    ("pd-check", "--points", "spd3_stein.json", "--lambda", "0.3"),
    ("pd-check", "--points", "spd3_log_euclidean.json", "--lambda", "0.3"),
    # circle witnesses carried into each embedding target
    ("witness", "space", "--target", "sphere:2", "--lambda", "0.4"),
    ("witness", "space", "--target", "projective:2", "--lambda", "0.4"),
    ("witness", "space", "--target", "torus", "--lambda", "0.4"),
    ("witness", "space", "--target", "grassmann:2,4", "--lambda", "0.4",
     "--precision", "17"),
    # the dense route on sphere points: PD at lambda 1, not PSD at 0.05
    ("pd-check", "--points", "sphere2.json", "--lambda", "1"),
    ("pd-check", "--points", "sphere2.json", "--lambda", "0.05"),
    ("embed-verify", "--target", "sphere:2", "--pairs", "50"),
    ("embed-verify", "--target", "grassmann:2,4", "--pairs", "50"),
    ("embed-verify", "--target", "projective:2", "--pairs", "50"),
    # wide circle and torus certificates: build, and verify from raw data
    ("witness", "circle", "--lambda", "5", "--precision", "50"),
    ("verify-certificate", "circle_cert70.json"),
    ("witness", "space", "--target", "torus", "--lambda", "0.4", "--precision", "30"),
    # a large torus form (N = 128): every pair keyed on both angles
    ("verify-certificate", "torus_cert70.json"),
    # the double-precision torus and projection-metric distances: not PSD, PD
    ("pd-check", "--points", "torus24.json", "--lambda", "0.3"),
    ("pd-check", "--points", "grassmann24_projection.json", "--lambda", "1"),
    # a wide torus form past N = 8 (N = 28)
    ("witness", "space", "--target", "torus", "--lambda", "2", "--precision", "40"),
    # the default 30 digits: a refusal to certify at lambda 5, and at
    # lambda 10 a scan that reaches --max-n without a witness
    ("witness", "circle", "--lambda", "5"),
    ("witness", "circle", "--lambda", "10"),
    # w_half and the circulant spectrum's w_{N/2} at a (mu, N) where a mu k k
    # exponent and the row's mu k^2 round apart: one value, printed twice
    # (the mu is mu_of_lambda(2.5) as a double)
    ("bound-check", "--mu", "98.69604401089359", "--n-list", "36", "--precision", "17"),
    ("circle-spectrum", "--lambda", "2.5", "--n", "36", "--precision", "17"),
    # static 70-digit certificates on the rounded angles 2*pi*k/N, as built
    # before witnesses moved to exact progressions k*h: their forms see many
    # exact offsets per index gap, and are never regenerated
    ("verify-certificate", "circle_cert70_rounded.json"),
    ("verify-certificate", "torus_cert70_rounded.json"),
)


def point_file_text(name: str) -> str:
    """The seeded regeneration of one point file."""
    text, seed, count = POINT_FILES[name]
    space = sp.parse_space(text)
    obj = sp.pointset_to_json(space, sp.sample_points(space, seed, count))
    return json.dumps(obj, indent=1) + "\n"


def cert_file_text(name: str) -> str:
    """The certificate that one file's command prints."""
    return run_case(CERT_FILES[name])["stdout"]


def write_data_files() -> None:
    for name in POINT_FILES:
        (GOLDEN / name).write_text(point_file_text(name))
    for name in CERT_FILES:
        (GOLDEN / name).write_text(cert_file_text(name))


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    case = {"argv": list(argv), "exit": code, "stdout": out.getvalue()}
    if err.getvalue():
        case["stderr"] = err.getvalue()
    return case


def main_capture() -> None:
    write_data_files()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        cases = [run_case(argv) for argv in CASES]
    finally:
        os.chdir(cwd)
    (GOLDEN / "cli_outputs.json").write_text(json.dumps(cases, indent=1) + "\n")
    print(f"captured {len(cases)} cases")


if __name__ == "__main__":
    main_capture()
