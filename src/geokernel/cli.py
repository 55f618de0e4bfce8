"""Command-line interface and run reports.

Commands that decide or certify emit JSON (reports wrapped in a
deterministic envelope, certificates bare so the verifier can consume
them); tabular commands emit headered CSV with LF line endings, quoting
any cell that holds a comma.  Exit codes: 0 success / PD / witness
found, 2 not PSD (pd-check), 3 search exhausted, 1 usage or numeric
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import __version__
from . import spaces as sp
from .certificates import (
    SCHEMA_VERSION,
    cert_from_json,
    cert_to_json,
    psd_decision,
    verify_certificate,
)
from .circle import DEFAULT_MAX_N, circle_witness, lambda_crit, w_half
from .embeddings import verify_isometry, witness_for_target
from .partial_theta import bound_rhs, leading_term, partial_theta
from .precision import DOUBLE_DIGITS, check_digits, number_to_json, numeric, resolve_digits
from .spectral import circulant_eigenvalues
from .stein import in_lambda_plus_set, probe

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_PSD = 2
EXIT_EXHAUSTED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract reserves 2
    for not-PSD verdicts, so usage failures are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _envelope(command: str, inputs: dict, outputs: dict, seed=None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
    }


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out_path: str | None = None) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


def _emit_csv(header: list[str], rows: list[list], out_path: str | None = None) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    _write(buf.getvalue(), out_path)


def _fmt(value, digits: int):
    """CSV cell: shortest round-trip float, or decimal string when wide."""
    encoded = number_to_json(value, digits)
    return repr(encoded) if isinstance(encoded, float) else encoded


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> _Parser:
    parser = _Parser(prog="geokernel", description=__doc__)
    parser.add_argument("--version", action="version", version=f"geokernel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("pd-check", help="PSD verdict for a point-set file")
    p.add_argument("--points", required=True, help="point-set JSON file")
    p.add_argument("--lambda", dest="lam", type=str, required=True)
    p.add_argument("--precision", type=int)
    p.set_defaults(func=_cmd_pd_check)

    p = sub.add_parser("circle-spectrum", help="all circulant eigenvalues at (lambda, N)")
    p.add_argument("--lambda", dest="lam", type=str, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_circle_spectrum)

    p = sub.add_parser("witness", help="non-PSD witness certificates")
    wsub = p.add_subparsers(dest="witness_kind", required=True, parser_class=_Parser)

    for kind, text in (("circle", "witness on the unit circle"),
                       ("space", "witness transferred to an embedding target")):
        w = wsub.add_parser(kind, help=text)
        if kind == "space":
            w.add_argument("--target", required=True)
        w.add_argument("--lambda", dest="lam", type=str, required=True)
        w.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
        w.add_argument("--precision", type=int)
        w.add_argument("--out")
        w.set_defaults(func=_cmd_witness, target=None)

    p = sub.add_parser("lambda-profile", help="critical bandwidth per point count")
    p.add_argument("--n-list", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lambda_profile)

    p = sub.add_parser("theta", help="partial theta values on a parameter grid")
    p.add_argument("--mu", required=True, help="comma list")
    p.add_argument("--r", default="0", help="comma list")
    p.add_argument("--n", required=True, help="comma list")
    p.add_argument("--precision", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("bound-check", help="alternating eigenvalue vs its closed-form bound")
    p.add_argument("--mu", required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--precision", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bound_check)

    p = sub.add_parser("stein-scan", help="probe the Stein-kernel bandwidth set")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stein_scan)

    p = sub.add_parser("embed-verify", help="max isometry deviation of a circle embedding")
    p.add_argument("--target", required=True)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_embed_verify)

    p = sub.add_parser("verify-certificate", help="recompute a certificate from raw data")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify_certificate)

    return parser


def _cmd_pd_check(args) -> int:
    with open(args.points, encoding="utf-8") as fh:
        data = json.load(fh)
    # range-check first: parsing a file at a huge precision is slow
    digits = None if args.precision is None else check_digits(args.precision)
    space, points = sp.pointset_from_json(
        data, digits if digits is not None else DOUBLE_DIGITS
    )
    verdict, report = psd_decision(space, points, args.lam, digits)
    outputs = {
        "verdict": verdict.verdict,
        "min_eigenvalue": number_to_json(report.min_eigenvalue, report.precision_digits),
        "tolerance": verdict.tolerance,
        "method": report.method,
        "order": report.order,
        "precision_digits": report.precision_digits,
    }
    inputs = {
        "points_file": args.points,
        "lambda": args.lam,
        "space": sp.space_to_json(space),
        "precision": digits,
    }
    _emit_json(_envelope("pd-check", inputs, outputs))
    return EXIT_OK if verdict.verdict != "not_psd" else EXIT_NOT_PSD


def _cmd_circle_spectrum(args) -> int:
    digits = resolve_digits(args.precision)
    report = circulant_eigenvalues(args.lam, args.n, digits)
    by_index = dict(zip(report.fourier_indices, report.eigenvalues))
    with numeric(digits):  # once for the whole table; w_{N-j} is w_j, formatted once
        texts = [_fmt(by_index[j], digits) for j in range(args.n // 2 + 1)]
    rows = [[j, texts[min(j, args.n - j)]] for j in range(args.n)]
    _emit_csv(["j", "eigenvalue"], rows, args.out)
    return EXIT_OK


def _cmd_witness(args) -> int:
    """``witness circle``, or ``witness space`` when a target is given."""
    missing = {"found": False, "lambda": args.lam, "max_n": args.max_n,
               "n_reached": args.max_n - args.max_n % 4, "schema_version": SCHEMA_VERSION}
    if args.target is None:
        cert = circle_witness(args.lam, n_max=args.max_n, precision_digits=args.precision)
    else:
        target = sp.parse_space(args.target)
        missing["target"] = sp.space_to_json(target)
        cert = witness_for_target(
            target, args.lam, n_max=args.max_n, precision_digits=args.precision
        )
    if cert is None:
        # an exhausted scan names its digits, its limit and the last N it reached
        missing["precision_digits"] = resolve_digits(args.precision)
        _emit_json(missing)
        return EXIT_EXHAUSTED
    _emit_json(cert_to_json(cert), args.out)
    return EXIT_OK


def _cmd_lambda_profile(args) -> int:
    table = []
    for n in _int_list(args.n_list):
        crit = lambda_crit(n)
        floor = circulant_eigenvalues(crit, n, DOUBLE_DIGITS).min_eigenvalue
        table.append([n, repr(crit), repr(floor)])
    _emit_csv(["N", "lambda_crit", "min_eig_at_probe"], table, args.out)
    return EXIT_OK


def _cmd_theta(args) -> int:
    digits = resolve_digits(args.precision)
    results = [
        (mu, r, n, partial_theta(mu, r, n, digits))
        for mu in map(str.strip, args.mu.split(","))
        for r in map(str.strip, args.r.split(","))
        for n in _int_list(args.n)
    ]
    with numeric(digits):  # once for the whole table
        rows = [
            [mu, r, n, _fmt(res.value, digits), _fmt(res.truncation_bound, digits), digits]
            for mu, r, n, res in results
        ]
    _emit_csv(["mu", "r", "N", "value", "truncation_bound", "precision"], rows, args.out)
    return EXIT_OK


def _cmd_bound_check(args) -> int:
    digits = resolve_digits(args.precision)
    mu = args.mu.strip()
    values = [
        (n, w_half(mu, n, digits), bound_rhs(mu, n, digits), leading_term(mu, n, digits))
        for n in _int_list(args.n_list)
    ]
    with numeric(digits):  # once for the whole table
        rows = [[n, *(_fmt(v, digits) for v in vs)] for n, *vs in values]
    _emit_csv(["N", "w_half", "bound_rhs", "leading_term"], rows, args.out)
    return EXIT_OK


def _cmd_stein_scan(args) -> int:
    report = probe(args.dim, args.lam, args.trials, args.points, args.seed)
    outputs = {
        "lambda": args.lam,
        "in_set": in_lambda_plus_set(args.dim, args.lam),
        "witness": cert_to_json(report.witness) if report.witness else None,
        "witness_strategy": report.witness_strategy,
        "min_eig_seen": report.min_eig_seen,
        "trials_run": report.trials_run,
    }
    inputs = {
        "dim": args.dim,
        "lambda": args.lam,
        "trials": args.trials,
        "points": args.points,
        "seed": args.seed,
    }
    _emit_json(_envelope("stein-scan", inputs, outputs, seed=args.seed), args.out)
    return EXIT_OK if report.witness else EXIT_EXHAUSTED


def _cmd_embed_verify(args) -> int:
    target = sp.parse_space(args.target)
    deviation = verify_isometry(target, pair_count=args.pairs, seed=args.seed)
    _emit_csv(
        ["target", "pairs", "seed", "max_deviation"],
        [[args.target, args.pairs, args.seed, repr(deviation)]],
        args.out,
    )
    return EXIT_OK


def _cmd_verify_certificate(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        cert = cert_from_json(json.load(fh))
    result = verify_certificate(cert)
    digits = cert.precision_digits
    outputs = {
        "ok": result.ok,
        "recomputed": number_to_json(result.recomputed, digits),
        "stored": number_to_json(result.stored, digits),
        "detail": result.detail,
    }
    _emit_json(_envelope("verify-certificate", {"file": args.file}, outputs))
    return EXIT_OK if result.ok else EXIT_ERROR


@functools.cache
def _parser() -> _Parser:
    """One parser for every call: parse_args keeps no state between parses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # numeric and IO failures map to exit 1
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
