#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

For each workload:

1. two traced runs at one seed, each in a fresh process, must report
   identical exact counts (spans.EXACT_METRICS) and a correct result;
2. an untraced pass must leave no span shim installed, and a tracer's
   uninstall must restore every patched name to the original object.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_exact_counts(workload: str, seed: int) -> list[str]:
    import spans

    try:
        first, second = traced_run(workload, seed), traced_run(workload, seed)
    except RuntimeError as exc:
        return [str(exc)[-500:]]
    problems = [f"run {i} not correct" for i, r in enumerate((first, second), 1)
                if not r["correct"]]
    for name in spans.EXACT_METRICS:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: {a} then {b}")
    return problems


def check_no_shims(cli, workload_name: str, seed: int) -> list[str]:
    import spans
    from workloads import WORKLOADS

    snapshot = {(m, a): getattr(spans.geokernel_module(m), a) for m, a, _, _ in spans.PATCHES}
    problems = []
    with run.fresh_workdir(run.OUT / f"selftest-{workload_name}"):
        workload = WORKLOADS[workload_name](seed)
        tally = run.Tally()
        run.set_up(cli, workload, tally)
        run.run_pass(cli, workload.pass_ops(), tally)
        if spans.installed_shims():
            problems.append(f"untraced pass left shims: {spans.installed_shims()}")
        tracer = spans.Tracer()
        tracer.install()
        try:
            if len(spans.installed_shims()) != len(spans.PATCHES):
                problems.append("install did not shim every patch site")
        finally:
            tracer.uninstall()
    for (mod, attr), original in snapshot.items():
        if getattr(spans.geokernel_module(mod), attr) is not original:
            problems.append(f"geokernel.{mod}.{attr} not restored")
    if tally.unexpected:
        problems.append(f"untraced pass failed checks: {tally.unexpected}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("circle_wide", "stein_probe", "dense_gram"))
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    cli = run.load_cli()
    names = [args.workload] if args.workload else ["circle_wide", "stein_probe", "dense_gram"]
    failed = False
    for name in names:
        for check, problems in (
            ("exact counts repeat", check_exact_counts(name, args.seed)),
            ("untraced run installs no shim", check_no_shims(cli, name, args.seed)),
        ):
            print(f"{name}: {check}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
