"""Command-line surface: exit codes, envelopes, files, determinism."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import geokernel as gk
from geokernel.cli import main
from geokernel.spaces import circle_equispaced, pointset_to_json, sample_points


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "geokernel.cli", *argv],
        capture_output=True, text=True,
    )


def _pointset_file(tmp_path, space, points, name="points.json"):
    path = tmp_path / name
    path.write_text(json.dumps(pointset_to_json(space, points)))
    return str(path)


def test_pd_check_flags_violation(tmp_path, capsys):
    path = _pointset_file(tmp_path, gk.Circle(), circle_equispaced(4))
    code, out, _ = run(capsys, "pd-check", "--points", path, "--lambda", "0.1")
    assert code == 2
    doc = json.loads(out)
    assert doc["command"] == "pd-check"
    assert doc["outputs"]["verdict"] == "not_psd"
    assert doc["outputs"]["method"] == "circulant"
    assert doc["schema_version"] == "1"
    assert doc["tool_version"] == gk.__version__
    assert list(doc) == sorted(doc)


def test_pd_check_passes_clean_input(tmp_path, capsys):
    path = _pointset_file(tmp_path, gk.Circle(), circle_equispaced(4))
    code, out, _ = run(capsys, "pd-check", "--points", path, "--lambda", "0.5")
    assert code == 0
    assert json.loads(out)["outputs"]["verdict"] != "not_psd"


def test_pd_check_jacobi_route(tmp_path, capsys):
    pts = sample_points(gk.Sphere(2), 1, 6)
    path = _pointset_file(tmp_path, gk.Sphere(2), pts)
    code, out, _ = run(capsys, "pd-check", "--points", path, "--lambda", "5.0")
    assert code == 0
    assert json.loads(out)["outputs"]["method"] == "jacobi"


def test_pd_check_names_a_missing_points_entry(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"space": {"variant": "circle"}}))
    code, out, err = run(capsys, "pd-check", "--points", str(path), "--lambda", "0.1")
    assert (code, out) == (1, "")
    assert err == "error: point set has no 'points' entry\n"


def test_pd_check_prints_the_wide_minimum(tmp_path, capsys):
    # at 40 digits pd-check reports the spectrum's own minimum, the very
    # cell circle-spectrum prints for it, not a double copy
    path = _pointset_file(tmp_path, gk.Circle(), circle_equispaced(16))
    code, out, _ = run(capsys, "pd-check", "--points", path, "--lambda", "1",
                       "--precision", "40")
    assert code == 2
    reported = json.loads(out)["outputs"]["min_eigenvalue"]
    code, out, _ = run(capsys, "circle-spectrum", "--lambda", "1", "--n", "16",
                       "--precision", "40")
    assert code == 0
    cells = [row.split(",")[1] for row in out.splitlines()[1:]]
    assert reported == min(cells, key=mpmath.mpf)
    assert len(reported) > 30


@pytest.mark.parametrize("space, points, index", [
    ({"variant": "circle"}, [[0.1, 0.2], [0.3, 0.4]], 0),
    ({"variant": "circle"}, [[0.1]], 0),
    ({"variant": "sphere", "n": 2}, [["a", 0, 1]], 0),
    ({"variant": "torus"}, [[1, 0, 3]], 0),
    # parsed whole, refused by the one validation site in the Gram
    ({"variant": "sphere", "n": 2}, [[0, 0, 1], [1, 0]], 1),
], ids=["circle-pairs", "circle-singleton", "sphere-text", "torus-triple", "sphere-short"])
def test_pd_check_names_a_malformed_point(tmp_path, capsys, space, points, index):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"space": space, "points": points}))
    code, out, err = run(capsys, "pd-check", "--points", str(path), "--lambda", "0.1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: point {index} of ")
    if index:
        assert err == ("error: point 1 of Sphere(n=2): sphere: expected vector of "
                       "length 3, got shape (2,)\n")


@pytest.mark.parametrize("space, huge", [
    (gk.Sphere(2), [10**400, 0, 0]), (gk.Circle(), 10**400),
], ids=["sphere", "circle"])
def test_pd_check_names_a_point_past_the_double_range(tmp_path, capsys, space, huge):
    # a 401-digit JSON integer overflows a double when it is read
    doc = pointset_to_json(space, sample_points(space, 2, 4))
    doc["points"][2] = huge
    path = tmp_path / "points.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "pd-check", "--points", str(path), "--lambda", "0.1") == (
        1, "", f"error: point 2 of {space!r}: int too large to convert to float\n")


@pytest.mark.parametrize("precision", [[], ["--precision", "30"]], ids=["double", "wide"])
def test_pd_check_refuses_a_json_boolean_as_a_number(tmp_path, capsys, precision):
    # JSON true read as 1 would make [true, 0, 0] a unit vector
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"space": {"variant": "sphere", "n": 2},
                                "points": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    assert run(capsys, "pd-check", "--points", str(path), "--lambda", "0.1", *precision) == (
        1, "", "error: point 0 of Sphere(n=2): expected a number, got True\n")


def test_circulant_route_refuses_what_the_dense_route_refuses(tmp_path, capsys):
    # a bandwidth that is not finite and positive, and a circle file whose
    # first angle is nan or negative (wide "-1e-400" too, which float()
    # rounds to -0.0), exit 1 with nothing on stdout
    angles = circle_equispaced(16)
    path = _pointset_file(tmp_path, gk.Circle(), angles)
    cases = [("pd-check", "--points", path, "--lambda", lam)
             for lam in ("nan", "inf", "0", "-1")]
    cases.append(("circle-spectrum", "--lambda", "-1", "--n", "4"))
    for i, first in enumerate((math.nan, -1e-13)):
        bad = _pointset_file(tmp_path, gk.Circle(), [first, *angles[1:]], name=f"{i}.json")
        cases.append(("pd-check", "--points", bad, "--lambda", "1"))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"space": {"variant": "circle"},
                                "points": ["-1e-400", *map(str, angles[1:])]}))
    cases.append(("pd-check", "--points", str(wide), "--lambda", "1", "--precision", "30"))
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: "), argv


def test_circle_spectrum_refuses_fewer_than_two_points(capsys):
    # the order is checked before the bandwidth
    for n in ("1", "0", "-4"):
        for lam in ("1", "-1"):
            code, out, err = run(capsys, "circle-spectrum", "--lambda", lam, "--n", n)
            assert (code, out, err) == (1, "", "error: need at least two points\n"), (n, lam)


def test_point_error_wins_over_the_precision_refusal(tmp_path, capsys):
    # above 17 digits a non-equispaced set is refused by the dense route,
    # but an invalid point is named first, as it is at 17 digits
    golden = json.loads(open(Path(__file__).parent / "golden" / "circle16.json").read())
    cases = {
        math.nan: "error: point 0 of Circle(scale=1.0): circle: angle is not finite\n",
        0.5: "error: dense route is double precision only; wide precision needs "
             "equispaced circle points\n",
    }
    for first, message in cases.items():
        path = tmp_path / "points.json"
        path.write_text(json.dumps({**golden, "points": [first, *golden["points"][1:]]}))
        code, out, err = run(capsys, "pd-check", "--points", str(path), "--lambda", "1",
                             "--precision", "30")
        assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("digits, angle", [("17", 7.0), ("30", "7")])
def test_verify_certificate_names_a_bad_angle(tmp_path, capsys, digits, angle):
    # wide angle payloads are validated like double ones: by index
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "witness", "circle", "--lambda", "1", "--precision", digits,
                     "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc["points"][0] = angle
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify-certificate", str(path)) == (
        1, "", "error: point 0 of Circle(scale=1.0): circle: angle outside [0, 2*pi)\n")


def test_witness_circle_certificate_flow(tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "witness", "circle", "--lambda", "0.1",
                       "--out", cert_path)
    assert code == 0 and out == ""
    doc = json.loads(open(cert_path).read())
    # bare certificate, not an envelope
    assert "command" not in doc
    assert set(doc) == {"schema_version", "space", "lambda", "points", "coefficients",
                        "quad_form", "precision_digits"}
    assert doc["schema_version"] == "1"

    code, out, _ = run(capsys, "verify-certificate", cert_path)
    assert code == 0
    assert json.loads(out)["outputs"]["ok"] is True

    doc["quad_form"] = "-0.25"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-certificate", str(tampered))
    assert code == 1
    assert json.loads(out)["outputs"]["ok"] is False


def test_witness_circle_exhausted(capsys):
    code, out, _ = run(capsys, "witness", "circle", "--lambda", "1", "--max-n", "12")
    assert code == 3
    doc = json.loads(out)
    assert doc["found"] is False
    assert doc["max_n"] == 12
    # the scan's digits and the last N it reached, a multiple of 4
    assert doc["precision_digits"] == 30
    assert doc["n_reached"] == 12
    assert set(doc) == {"found", "lambda", "max_n", "n_reached", "precision_digits",
                        "schema_version"}
    code, out, _ = run(capsys, "witness", "space", "--target", "sphere:2", "--lambda", "1",
                       "--max-n", "15", "--precision", "40")
    assert code == 3
    doc = json.loads(out)
    assert '"found": false' in out
    assert (doc["max_n"], doc["n_reached"], doc["precision_digits"]) == (15, 12, 40)
    assert doc["target"] == {"n": 2, "variant": "sphere"}


def test_witness_space_reports_unit_bandwidth(tmp_path, capsys):
    cert_path = str(tmp_path / "proj.json")
    code, _, _ = run(capsys, "witness", "space", "--target", "projective:2",
                     "--lambda", "0.4", "--out", cert_path)
    assert code == 0
    doc = json.loads(open(cert_path).read())
    assert doc["space"]["variant"] == "projective"
    assert doc["lambda"] == 0.4
    # the unit-circle bandwidth is not stored; it follows from the space
    scale = gk.parse_space("projective:2").circle_scale
    assert float(doc["lambda"]) * scale ** 2 == pytest.approx(0.1, rel=1e-15)

    code, out, _ = run(capsys, "verify-certificate", cert_path)
    assert code == 0


def test_witness_space_torus_certificate_verifies(tmp_path, capsys):
    cert_path = str(tmp_path / "torus.json")
    code, _, _ = run(capsys, "witness", "space", "--target", "torus",
                     "--lambda", "0.4", "--out", cert_path)
    assert code == 0
    doc = json.loads(open(cert_path).read())
    assert doc["lambda"] == "0.4"
    assert float(doc["quad_form"]) == pytest.approx(-0.015050166445732458, rel=1e-12)

    code, out, _ = run(capsys, "verify-certificate", cert_path)
    assert code == 0
    assert json.loads(out)["outputs"]["ok"] is True


@pytest.mark.parametrize("target, lam", [
    ("sphere:2", "1"), ("projective:2", "5"), ("grassmann:2,4", "5"),
])
def test_witness_space_survives_double_rounding(tmp_path, capsys, target, lam):
    # 16- and 20-point double forms: the target form differs from the stored
    # one by about 1e-12 relative, all of it rounding
    cert_path = str(tmp_path / "cert.json")
    code, _, err = run(capsys, "witness", "space", "--target", target,
                       "--lambda", lam, "--out", cert_path)
    assert code == 0, err
    code, out, _ = run(capsys, "verify-certificate", cert_path)
    assert code == 0
    assert json.loads(out)["outputs"]["ok"] is True


def test_circle_spectrum_csv(capsys):
    code, out, _ = run(capsys, "circle-spectrum", "--lambda", "0.3", "--n", "8",
                       "--precision", "17")
    assert code == 0
    assert "\r" not in out and out.endswith("\n")
    lines = out.splitlines()
    assert lines[0] == "j,eigenvalue"
    assert len(lines) == 9
    assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(8))
    # the j = N/2 cell is the alternating mode
    w4 = float(lines[5].split(",")[1])
    assert w4 == pytest.approx(gk.w_half(gk.mu_of_lambda(0.3), 8, 17), abs=1e-14)


def test_theta_grid_csv(capsys):
    code, out, _ = run(capsys, "theta", "--mu", "1,10", "--r", "0,1",
                       "--n", "4,8", "--precision", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,r,N,value,truncation_bound,precision"
    assert len(lines) == 1 + 8  # full grid product
    first = lines[1].split(",")
    assert first[:3] == ["1", "0", "4"]


def test_bound_check_csv(capsys):
    code, out, _ = run(capsys, "bound-check", "--mu", "10", "--n-list", "4,8,20",
                       "--precision", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,w_half,bound_rhs,leading_term"
    for line in lines[1:]:
        _, w, bound, _ = line.split(",")
        assert float(w) <= float(bound) + 1e-25


def test_lambda_profile_csv(capsys):
    code, out, _ = run(capsys, "lambda-profile", "--n-list", "4,8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,lambda_crit,min_eig_at_probe"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["4", "8"]
    assert float(rows[0][1]) == pytest.approx(gk.lambda_crit(4), abs=0)


def test_stein_scan_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "stein-scan", "--dim", "3", "--lambda", "0.5",
                       "--trials", "20", "--points", "8", "--seed", "3")
    assert code == 3
    doc = json.loads(out)
    assert doc["outputs"]["in_set"] is True
    assert doc["outputs"]["witness"] is None
    assert doc["seed"] == 3

    out_path = str(tmp_path / "scan.json")
    code, _, _ = run(capsys, "stein-scan", "--dim", "3", "--lambda", "0.01",
                     "--trials", "80", "--points", "10", "--seed", "7",
                     "--out", out_path)
    assert code == 0
    doc = json.loads(open(out_path).read())
    assert doc["outputs"]["in_set"] is False
    assert doc["outputs"]["witness"]["space"]["variant"] == "spd"
    assert doc["outputs"]["witness_strategy"] == "ill_conditioned"


def test_embed_verify_csv(capsys):
    code, out, _ = run(capsys, "embed-verify", "--target", "grassmann:2,4",
                       "--pairs", "200")
    assert code == 0
    header, row = csv.reader(out.splitlines())
    assert header == ["target", "pairs", "seed", "max_deviation"]
    assert row[0] == "grassmann:2,4"
    assert float(row[-1]) <= 1e-10


def test_embed_verify_refuses_a_negative_pair_count(capsys):
    code, out, err = run(capsys, "embed-verify", "--target", "sphere:2", "--pairs", "-3")
    assert (code, out, err) == (1, "", "error: pair_count must be >= 0, got -3\n")


@pytest.mark.parametrize("argv", [
    ("circle-spectrum", "--lambda", "1", "--n", "8"),
    ("circle-spectrum", "--lambda", "1", "--n", "8", "--precision", "40"),
    ("lambda-profile", "--n-list", "4,8"),
    ("theta", "--mu", "1,10", "--r", "0,1", "--n", "4", "--precision", "40"),
    ("bound-check", "--mu", "20", "--n-list", "4,8", "--precision", "40"),
    ("embed-verify", "--target", "grassmann:2,4", "--pairs", "10"),
    ("embed-verify", "--target", "sphere:2", "--pairs", "10"),
])
def test_csv_rows_match_header_width(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert rows
    assert all(len(row) == len(header) for row in rows)


def test_pd_check_checks_precision_before_parsing(tmp_path, capsys, monkeypatch):
    path = _pointset_file(tmp_path, gk.Sphere(2), sample_points(gk.Sphere(2), 1, 6))

    def refuse(value, digits):
        raise AssertionError("parsed a number before the precision check")

    monkeypatch.setattr(gk.spaces, "number_from_json", refuse)
    code, out, err = run(capsys, "pd-check", "--points", path, "--lambda", "1",
                         "--precision", str(10 ** 7))
    assert code == 1
    assert out == ""
    assert err == f"error: precision_digits must be <= 100, got {10 ** 7}\n"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["witness", "circle"])  # missing required --lambda
    assert info.value.code == 1


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # parse_args keeps no state between calls: neither a target nor a
    # usage error leaks into the next command, in either order
    import geokernel.cli as cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    calls = (
        ("witness", "circle", "--lambda", "0.1"),
        ("witness", "space", "--target", "projective:2", "--lambda", "0.4"),
        ("witness", "circle"),  # missing required --lambda
        ("witness", "circle", "--lambda", "0.1"),
        ("circle-spectrum", "--lambda", "1", "--n", "4"),
    )

    def outputs(argvs):
        seen = []
        for argv in argvs:
            try:
                seen.append(run(capsys, *argv))
            except SystemExit as exc:
                seen.append((exc.code, *capsys.readouterr()))
        return seen

    first = outputs(calls)
    assert [code for code, _, _ in first] == [0, 0, 1, 0, 0]
    assert first[0] == first[3]
    assert outputs(calls) == first
    assert outputs(calls[::-1]) == first[::-1]
    assert built == [1]


def test_runtime_errors_exit_one(capsys):
    code, _, err = run(capsys, "embed-verify", "--target", "spd:3")
    assert code == 1
    assert "error:" in err


def test_non_finite_bandwidth_exits_one(capsys):
    for argv in (
        ("witness", "circle", "--lambda", "inf"),
        ("witness", "circle", "--lambda", "inf", "--precision", "17"),
        ("bound-check", "--mu", "inf", "--n-list", "4", "--precision", "30"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "must be positive" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert gk.__version__ in capsys.readouterr().out


def test_reruns_are_byte_identical(tmp_path):
    a = run_proc("witness", "circle", "--lambda", "0.1", "--precision", "30")
    b = run_proc("witness", "circle", "--lambda", "0.1", "--precision", "30")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout

    c = run_proc("stein-scan", "--dim", "3", "--lambda", "0.25",
                 "--trials", "15", "--points", "6", "--seed", "11")
    d = run_proc("stein-scan", "--dim", "3", "--lambda", "0.25",
                 "--trials", "15", "--points", "6", "--seed", "11")
    assert c.stdout == d.stdout


def test_fresh_process_verifies_in_process_certificate(tmp_path, capsys):
    cert_path = str(tmp_path / "fresh.json")
    code, _, _ = run(capsys, "witness", "space", "--target", "sphere:3",
                     "--lambda", "0.1", "--out", cert_path)
    assert code == 0
    res = run_proc("verify-certificate", cert_path)
    assert res.returncode == 0
    assert json.loads(res.stdout)["outputs"]["ok"] is True


def test_envelope_and_certificate_carry_one_schema_version(tmp_path, capsys):
    import geokernel.certificates as certificates
    import geokernel.cli as cli

    assert cli.SCHEMA_VERSION is certificates.SCHEMA_VERSION
    code, out, _ = run(capsys, "witness", "circle", "--lambda", "0.1")
    assert code == 0
    cert = json.loads(out)
    path = _pointset_file(tmp_path, gk.Circle(), circle_equispaced(4))
    code, out, _ = run(capsys, "pd-check", "--points", path, "--lambda", "0.1")
    assert code == 2
    assert json.loads(out)["schema_version"] == cert["schema_version"]
