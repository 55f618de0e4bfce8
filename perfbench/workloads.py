"""The benchmark's workloads: generated inputs, op lists and output checks.

Each workload turns a seed into a fixed list of CLI ops (one *pass*).
Every pass of a run is the same multiset of ops, so per-pass counts
repeat exactly and a run's figures do not depend on where it stopped.
Every op carries a check that runs outside the timed region and
returns ``None`` when the output is right, or the reason it is not.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from geokernel import spaces as sp
from geokernel.certificates import cert_from_json, verify_certificate
from geokernel.spectral import psd_tolerance


@dataclass
class OpResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float


@dataclass(frozen=True)
class Op:
    kind: str  # failures are counted under this name
    argv: tuple[str, ...]
    check: Callable[[OpResult], str | None]
    # (exit code, text in stdout or stderr) of a failure documented at the
    # commit that added the benchmark; see README.md, "Known-failing ops"
    known_failure: tuple[int, str] | None = None
    before: Callable[[], None] | None = None  # runs untimed, before the op


def _remove(path: str) -> Callable[[], None]:
    def before():
        if os.path.exists(path):
            os.remove(path)
    return before


def _expect_code(result: OpResult, code: int) -> str | None:
    if result.code != code:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {result.code}, expected {code}: {tail[0][:160]}"
    return None


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _close(value, ref, rel) -> bool:
    with mp.workdps(40):
        value, ref = mp.mpf(value), mp.mpf(ref)
        return abs(value - ref) <= rel * abs(ref)


def _verify_cert_obj(obj: dict) -> str | None:
    result = verify_certificate(cert_from_json(obj))
    return None if result.ok else f"certificate does not verify: {result.detail}"


# ---------------------------------------------------------------------------
# circle_wide

# lambda, --precision (None: the CLI default), frozen N, frozen quad_form
CIRCLE_TABLE = (
    ("0.1", None, 4, "-0.18997962224145058658580680020422995"),
    ("1", 40, 16, "-4.35744544194375750666444608835961741e-5"),
    ("2", 40, 28, "-2.14337651862537379704372425875631890e-9"),
    ("5", 50, 68, "-3.31708876025320695082479396246077881e-22"),
    ("10", 70, 128, "-4.82289486516830864996346237150650883e-44"),
    ("15", 90, 192, "-4.08700695723302715087123864531222620e-65"),
    ("20", 100, 256, "-1.67861058746289589806752493436442443e-86"),
)
CIRCLE_MAX_N = 1024
# without --precision: lambda 5 is refused (search and certification
# thresholds disagree), lambda 10 exhausts the N scan at 30 digits
KNOWN_CIRCLE_FAILURES = {"5": (1, "refusing to certify"), "10": (3, '"found": false')}
FROZEN_REL = mp.mpf("1e-12")
THETA_ARGS = ("--mu", "1,10", "--r", "0,1", "--n", "4,8")


def _mu_text(lam: str) -> str:
    """4 pi^2 lambda with enough digits for a 100-digit bound-check."""
    with mp.workdps(130):
        return mp.nstr(4 * mp.pi ** 2 * mp.mpf(lam), 125)


def _theta_reference(mu: str, r: str, n: int):
    """S_r(N) by direct summation at 60 digits."""
    with mp.workdps(60):
        mu_, r_, total, k = mp.mpf(mu), mp.mpf(r), mp.mpf(0), 0
        while True:
            term = mp.exp(-mu_ * k * k / (n * n) - r_ * k / n)
            if term < mp.mpf("1e-55"):
                return total
            total += term if k % 2 == 0 else -term
            k += 1


class CircleWide:
    """The paper's headline evidence: certified circle witnesses."""

    name = "circle_wide"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        pass

    def warmup(self) -> list[Op]:
        return self._group(*CIRCLE_TABLE[0], order=(0, 1, 2)) + [self._theta()]

    def pass_ops(self) -> list[Op]:
        units = [
            self._group(*row, order=tuple(self.rng.sample(range(3), 3)))
            for row in CIRCLE_TABLE
        ]
        units.append([self._theta()])
        units.append([self._default_precision("5")])
        units.append([self._default_precision("10")])
        self.rng.shuffle(units)
        return [op for unit in units for op in unit]

    def _group(self, lam, digits, n, quad, order) -> list[Op]:
        prec = ("--precision", str(digits)) if digits else ()
        cert = f"cert_circle_{lam}.json"

        def check_witness(res):
            if (bad := _expect_code(res, 0)):
                return bad
            with open(cert, encoding="utf-8") as fh:
                obj = json.load(fh)
            if len(obj["points"]) != n:
                return f"witness N={len(obj['points'])}, frozen N={n}"
            if not _close(obj["quad_form"], quad, FROZEN_REL):
                return f"quad_form {obj['quad_form']} differs from frozen {quad}"
            return None

        def check_verify(res):
            if (bad := _expect_code(res, 0)):
                return bad
            out = json.loads(res.stdout)["outputs"]
            if out["ok"] is not True:
                return f"verify-certificate not ok: {out['detail']}"
            if not _close(out["recomputed"], quad, FROZEN_REL):
                return f"recomputed {out['recomputed']} differs from frozen {quad}"
            return None

        def check_spectrum(res):
            if (bad := _expect_code(res, 0)):
                return bad
            header, rows = _csv_rows(res.stdout)
            if header != ["j", "eigenvalue"] or [int(r[0]) for r in rows] != list(range(n)):
                return "spectrum table malformed"
            with mp.workdps(120):
                values = [mp.mpf(r[1]) for r in rows]
                j_min = min(range(n), key=lambda j: values[j])
            if j_min != n // 2 or not _close(values[j_min], quad, FROZEN_REL):
                return f"minimum {values[j_min]} at j={j_min}, frozen {quad} at j={n // 2}"
            return None

        def check_bound(res):
            if (bad := _expect_code(res, 0)):
                return bad
            header, rows = _csv_rows(res.stdout)
            if header != ["N", "w_half", "bound_rhs", "leading_term"] or \
                    [int(r[0]) for r in rows] != [n, 2 * n]:
                return "bound-check table malformed"
            if not _close(rows[0][1], quad, FROZEN_REL):
                return f"w_half {rows[0][1]} differs from frozen {quad}"
            for row in rows:
                with mp.workdps(120):
                    above = mp.mpf(row[1]) > mp.mpf(row[2])
                if above:
                    return f"w_half {row[1]} above its bound {row[2]} at N={row[0]}"
            return None

        witness = Op(
            "witness_circle",
            ("witness", "circle", "--lambda", lam, "--max-n", str(CIRCLE_MAX_N),
             *prec, "--out", cert),
            check_witness,
            before=_remove(cert),
        )
        rest = [
            Op("verify_certificate", ("verify-certificate", cert), check_verify),
            Op("circle_spectrum",
               ("circle-spectrum", "--lambda", lam, "--n", str(n), *prec),
               check_spectrum),
            Op("bound_check",
               ("bound-check", "--mu", _mu_text(lam), "--n-list", f"{n},{2 * n}", *prec),
               check_bound),
        ]
        return [witness] + [rest[i] for i in order]

    def _theta(self) -> Op:
        def check(res):
            if (bad := _expect_code(res, 0)):
                return bad
            header, rows = _csv_rows(res.stdout)
            if header != ["mu", "r", "N", "value", "truncation_bound", "precision"] \
                    or len(rows) != 8:
                return "theta table malformed"
            for mu, r, n, value, _, _ in rows:
                ref = _theta_reference(mu, r, int(n))
                with mp.workdps(60):
                    off = abs(mp.mpf(value) - ref) > mp.mpf("1e-25")
                if off:
                    return f"S_{r}({n}) at mu={mu}: {value}, direct sum {ref}"
            return None

        return Op("theta", ("theta", *THETA_ARGS), check)

    def _default_precision(self, lam: str) -> Op:
        def check(res):
            if (bad := _expect_code(res, 0)):
                return bad
            return _verify_cert_obj(json.loads(res.stdout))

        return Op(
            f"witness_circle_default_precision_{lam}",
            ("witness", "circle", "--lambda", lam),
            check,
            known_failure=KNOWN_CIRCLE_FAILURES[lam],
        )


# ---------------------------------------------------------------------------
# stein_probe

STEIN_DIM = 3
STEIN_POINTS = 10
STEIN_TRIALS = 24
STEIN_GAP = ("0.75", "0.25")
STEIN_IN_SET = ("0.5", "1.0")
# the frozen hit: lambda 0.01, seed 7, found at trial index 62
STEIN_HIT = ("0.01", 7, 80, 63, "ill_conditioned")
STEIN_HIT_CERT = "cert_stein_hit.json"


def _stein_argv(lam, seed, trials) -> tuple[str, ...]:
    return ("stein-scan", "--dim", str(STEIN_DIM), "--points", str(STEIN_POINTS),
            "--lambda", lam, "--trials", str(trials), "--seed", str(seed))


class SteinProbe:
    """Many tiny Gram-plus-Jacobi decisions under the root-Stein metric."""

    name = "stein_probe"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seeds = {lam: rng.randrange(2 ** 31) for lam in STEIN_GAP + STEIN_IN_SET}

    def setup(self) -> None:
        pass

    def warmup(self) -> list[Op]:
        def check(res):
            return _expect_code(res, 3)

        return [Op("stein_scan_in_set", _stein_argv("0.5", 0, 2), check)]

    def pass_ops(self) -> list[Op]:
        ops = [self._scan(lam, in_set=False) for lam in STEIN_GAP]
        ops += [self._scan(lam, in_set=True) for lam in STEIN_IN_SET]
        return ops + self._hit()

    def _scan(self, lam: str, in_set: bool) -> Op:
        def check(res):
            if res.code not in (0, 3):
                return _expect_code(res, 3)
            out = json.loads(res.stdout)["outputs"]
            if out["in_set"] is not in_set:
                return f"in_set {out['in_set']} for lambda {lam}"
            if out["witness"] is None:
                if (bad := _expect_code(res, 3)):
                    return bad
                if out["trials_run"] != STEIN_TRIALS:
                    return f"{out['trials_run']} trials run, asked for {STEIN_TRIALS}"
                if out["min_eig_seen"] <= -psd_tolerance(STEIN_POINTS):
                    return f"min_eig_seen {out['min_eig_seen']} below the PSD band"
                return None
            if in_set:
                return f"witness at in-set lambda {lam}"
            # a gap witness is allowed, but it has to verify
            return _expect_code(res, 0) or _verify_cert_obj(out["witness"])

        kind = "stein_scan_in_set" if in_set else "stein_scan_gap"
        return Op(kind, _stein_argv(lam, self.seeds[lam], STEIN_TRIALS), check)

    def _hit(self) -> list[Op]:
        lam, seed, trials, trials_run, strategy = STEIN_HIT
        quad = {}

        def check_hit(res):
            if (bad := _expect_code(res, 0)):
                return bad
            out = json.loads(res.stdout)["outputs"]
            if out["witness"] is not None:
                with open(STEIN_HIT_CERT, "w", encoding="utf-8") as fh:
                    json.dump(out["witness"], fh)
                quad["value"] = out["witness"]["quad_form"]
            if out["trials_run"] != trials_run or out["witness_strategy"] != strategy:
                return (f"stopped at trial {out['trials_run']} ({out['witness_strategy']}), "
                        f"frozen {trials_run} ({strategy})")
            return None

        def check_verify(res):
            if (bad := _expect_code(res, 0)):
                return bad
            out = json.loads(res.stdout)["outputs"]
            if out["ok"] is not True:
                return f"verify-certificate not ok: {out['detail']}"
            if out["stored"] != quad.get("value"):
                return "verified certificate is not the one the probe emitted"
            return None

        return [
            Op("stein_scan_hit", _stein_argv(lam, seed, trials), check_hit,
               before=_remove(STEIN_HIT_CERT)),
            Op("verify_certificate", ("verify-certificate", STEIN_HIT_CERT), check_verify),
        ]


# ---------------------------------------------------------------------------
# dense_gram

# file stem, space text, point count
DENSE_SETS = (
    ("sphere", "sphere:2", 100),
    ("grassmann", "grassmann:2,4", 60),
    ("spd_log", "spd:3:log_euclidean", 60),
    ("euclidean", "euclidean:5", 100),
)
DENSE_LAMBDA = 1.0
NEVER_NOT_PSD = ("euclidean", "spd_log")
EMBED_TARGETS = ("sphere:2", "projective:2", "grassmann:2,4")
EMBED_PAIRS = 1000
EMBED_TOL = 1e-10
WITNESS_LAMBDA = "0.4"
# quad forms at lambda 0.4 from the acceptance criterion c08; the torus
# holds the unit circle, so it shares the sphere's value
WITNESS_QUAD = {
    "sphere:2": -0.015050166445732458,
    "projective:2": -0.18997962224145043,
    "grassmann:2,4": -0.18997962224145049,
    "torus": -0.015050166445732458,
}
PD_MIN_TOL = 1e-9
# the string lambda reaches lam * (scale * scale) in transfer_witness
KNOWN_TORUS_FAILURE = (1, "can't multiply sequence by non-int of type 'float'")


def _reference_gram(stem: str, points, lam: float) -> np.ndarray:
    """The same Gram built with numpy formulas, independent of geokernel."""
    x = np.array(points, dtype=float)
    if stem == "sphere":
        d = np.arccos(np.clip(x @ x.T, -1.0, 1.0))
    elif stem == "grassmann":
        cos = np.linalg.svd(np.einsum("pni,qnj->pqij", x, x),
                            compute_uv=False)
        angles = np.arccos(np.clip(cos, 0.0, 1.0))
        d = np.sqrt(np.sum(angles ** 2, axis=-1))
    elif stem == "spd_log":
        w, v = np.linalg.eigh(x)
        logs = np.einsum("pij,pj,pkj->pik", v, np.log(w), v)
        d = np.linalg.norm(logs[:, None] - logs[None, :], axis=(-2, -1))
    else:
        d = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
    k = np.exp(-lam * d * d)
    np.fill_diagonal(k, 1.0)
    return k


class DenseGram:
    """A few large Grams: O(P^3) Jacobi and per-pair distance costs."""

    name = "dense_gram"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.set_seeds = {stem: rng.randrange(2 ** 31) for stem, _, _ in DENSE_SETS}
        self.embed_seeds = {t: rng.randrange(2 ** 31) for t in EMBED_TARGETS}
        self.points = {}
        self._ref_min = {}

    def setup(self) -> None:
        for stem, text, count in DENSE_SETS:
            space = sp.parse_space(text)
            self.points[stem] = sp.sample_points(space, self.set_seeds[stem], count)
            self._write(f"points_{stem}.json", space, self.points[stem])
        space = sp.parse_space("euclidean:5")
        self._write("points_warmup.json", space, sp.sample_points(space, 0, 8))

    @staticmethod
    def _write(path, space, points) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sp.pointset_to_json(space, points), fh)

    def warmup(self) -> list[Op]:
        return [
            Op("pd_check", ("pd-check", "--points", "points_warmup.json",
                            "--lambda", str(DENSE_LAMBDA)),
               lambda res: _expect_code(res, 0)),
            Op("embed_verify", ("embed-verify", "--target", "sphere:2", "--pairs", "10"),
               lambda res: _expect_code(res, 0)),
            self._witness("sphere:2"),
        ]

    def pass_ops(self) -> list[Op]:
        ops = [self._pd_check(stem, count) for stem, _, count in DENSE_SETS]
        ops += [self._embed(t) for t in EMBED_TARGETS]
        ops += [self._witness(t) for t in (*EMBED_TARGETS, "torus")]
        return ops

    def _pd_check(self, stem: str, count: int) -> Op:
        def check(res):
            if res.code not in (0, 2):
                return _expect_code(res, 0)
            out = json.loads(res.stdout)["outputs"]
            verdict = out["verdict"]
            if (bad := _expect_code(res, 2 if verdict == "not_psd" else 0)):
                return bad
            if out["order"] != count or out["method"] != "jacobi":
                return f"order {out['order']} by {out['method']}, expected {count} by jacobi"
            if stem in NEVER_NOT_PSD and verdict == "not_psd":
                return f"{stem} Gram reported not_psd"
            ref = self._reference_min(stem)
            if abs(out["min_eigenvalue"] - ref) > PD_MIN_TOL:
                return f"min eigenvalue {out['min_eigenvalue']}, eigvalsh gives {ref}"
            tol = psd_tolerance(count)
            clearly_negative = ref < -tol - PD_MIN_TOL
            clearly_positive = ref > tol + PD_MIN_TOL
            if (clearly_negative and verdict != "not_psd") or \
                    (clearly_positive and verdict != "positive_definite"):
                return f"verdict {verdict} for eigvalsh minimum {ref}"
            return None

        return Op("pd_check", ("pd-check", "--points", f"points_{stem}.json",
                               "--lambda", str(DENSE_LAMBDA)), check)

    def _reference_min(self, stem: str) -> float:
        if stem not in self._ref_min:
            k = _reference_gram(stem, self.points[stem], DENSE_LAMBDA)
            self._ref_min[stem] = float(np.linalg.eigvalsh(k)[0])
        return self._ref_min[stem]

    def _embed(self, target: str) -> Op:
        def check(res):
            if (bad := _expect_code(res, 0)):
                return bad
            header, rows = _csv_rows(res.stdout)
            if header != ["target", "pairs", "seed", "max_deviation"] or len(rows) != 1:
                return "embed-verify table malformed"
            # the target cell is not quoted, so grassmann:2,4 spans two cells
            deviation = float(rows[0][-1])
            if not deviation <= EMBED_TOL:
                return f"max isometry deviation {deviation} above {EMBED_TOL}"
            return None

        seed = str(self.embed_seeds[target])
        return Op("embed_verify", ("embed-verify", "--target", target,
                                   "--pairs", str(EMBED_PAIRS), "--seed", seed), check)

    def _witness(self, target: str) -> Op:
        def check(res):
            if (bad := _expect_code(res, 0)):
                return bad
            obj = json.loads(res.stdout)
            if sp.space_from_json(obj["space"]) != sp.parse_space(target):
                return f"certificate on {obj['space']}, asked for {target}"
            if not math.isclose(float(obj["quad_form"]), WITNESS_QUAD[target], rel_tol=1e-12):
                return f"quad_form {obj['quad_form']}, c08 value {WITNESS_QUAD[target]}"
            return _verify_cert_obj(obj)

        torus = target == "torus"
        return Op(
            "witness_space_torus" if torus else "witness_space",
            ("witness", "space", "--target", target, "--lambda", WITNESS_LAMBDA),
            check,
            known_failure=KNOWN_TORUS_FAILURE if torus else None,
        )


WORKLOADS = {w.name: w for w in (CircleWide, SteinProbe, DenseGram)}
