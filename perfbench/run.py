#!/usr/bin/env python3
"""Closed-loop benchmark of the geokernel command line.

Run from the root of a geokernel checkout:

    python3 perfbench/run.py --workload circle_wide --seed 1 --seconds 20 --trace 0

One client runs the workload's ops back to back in this process, each
an in-process ``geokernel.cli.main(argv)`` call with stdout captured,
and checks every op's output outside the timed region.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics from span shims (see
spans.py).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with machine facts and failures by op kind, goes to
``.perfbench_out/result-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import os

# one BLAS thread: one client on a two-core box; set before numpy loads
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_OPS = 100  # latency_p90_ms of 100 samples has ten beyond it
MAX_LOOP_S = 120.0  # no new pass starts after this, so a run ends in time
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 60.0

# Speed reference: a fixed Python-and-numpy snippet of about 1 ms, timed
# before every op.  End-to-end times are scaled to the speed at which it
# takes REF_NOMINAL_S, because the reference box runs the same code up to
# 1.7 times slower for minutes at a time (see README.md).
REF_LOOP = 8000
REF_NUMPY_STEPS = 160
REF_REPEATS = 3
REF_NOMINAL_S = 1e-3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_cli():
    """Import geokernel from this checkout's src/, never from elsewhere."""
    init = SRC / "geokernel" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a geokernel checkout")
    sys.path.insert(0, str(SRC))
    import geokernel.cli

    if Path(geokernel.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported geokernel from {geokernel.__file__}, not {init}")
    return geokernel.cli


# ---------------------------------------------------------------------------
# ops and passes


def run_op(cli, op, tracer=None, op_id: int = 0):
    """One timed CLI call; the op's check is not part of it."""
    from workloads import OpResult

    if op.before is not None:
        op.before()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(op_id)
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            if tracer is not None:
                tracer.end_op()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    result = OpResult(code, out.getvalue(), err.getvalue(), wall, cpu)
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] += len(result.stdout.encode())
    return result


def check_op(op, result) -> str | None:
    try:
        return op.check(result)
    except Exception as exc:  # malformed output fails the op, not the run
        return f"check raised {type(exc).__name__}: {exc}"


@dataclass
class Tally:
    """Ops attempted, errored and failed, by op kind.

    An op errors when it does not pass its check.  An error that
    reproduces the op's documented known failure counts against
    success_rate only; any other error is a failure and makes the run
    incorrect.
    """

    attempted: Counter = field(default_factory=Counter)
    errored: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    known_failures: dict = field(default_factory=dict)  # kind -> first problem
    unexpected: list = field(default_factory=list)

    def record(self, op, result, problem: str | None) -> None:
        self.attempted[op.kind] += 1
        if problem is None:
            return
        self.errored[op.kind] += 1
        if op.known_failure is not None and reproduces(op.known_failure, result):
            self.known_failures.setdefault(op.kind, problem)
            return
        self.failed[op.kind] += 1
        line = f"{op.kind} [{' '.join(op.argv)}]: {problem}"
        if line not in self.unexpected:
            self.unexpected.append(line)


def reproduces(known_failure: tuple[int, str], result) -> bool:
    code, text = known_failure
    return result.code == code and (text in result.stdout or text in result.stderr)


def _reference_work() -> float:
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    v = np.ones(8)
    for _ in range(REF_NUMPY_STEPS):
        v = v * 0.5 + 1.0
    return total + float(v[0])


def speed_scale() -> tuple[float, float]:
    """(wall, CPU) factors that scale a time taken now to nominal speed:
    REF_NOMINAL_S over the best of REF_REPEATS runs of the reference."""
    wall = cpu = float("inf")
    for _ in range(REF_REPEATS):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        _reference_work()
        wall = min(wall, time.perf_counter() - t0)
        cpu = min(cpu, time.process_time() - cpu0)
    return REF_NOMINAL_S / wall, REF_NOMINAL_S / max(cpu, 1e-9)


@dataclass
class PassStats:
    """One pass: per op, its wall and CPU seconds and the speed scales."""

    correct: int = 0
    samples: list = field(default_factory=list)  # (wall, cpu, wall_scale, cpu_scale)

    @property
    def ops(self) -> int:
        return len(self.samples)

    def walls(self, scaled: bool) -> list[float]:
        return [w * ws if scaled else w for w, _, ws, _ in self.samples]

    def cpu(self, scaled: bool) -> float:
        return sum(c * cs if scaled else c for _, c, _, cs in self.samples)


def run_pass(cli, ops, tally: Tally, tracer=None) -> PassStats:
    stats = PassStats()
    for op in ops:
        wall_scale, cpu_scale = speed_scale()
        result = run_op(cli, op, tracer, sum(tally.attempted.values()))
        problem = check_op(op, result)
        tally.record(op, result, problem)
        stats.correct += problem is None
        stats.samples.append((result.wall_s, result.cpu_s, wall_scale, cpu_scale))
    return stats


def set_up(cli, workload, warm: Tally):
    """Generate the inputs in the current directory and warm up."""
    workload.setup()
    for op in workload.warmup():
        result = run_op(cli, op)
        warm.record(op, result, check_op(op, result))


@contextlib.contextmanager
def fresh_workdir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# set-up time


def probe_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Fresh interpreters timed from spawn until set-up and warm-up end;
    (raw, scaled) seconds per probe."""
    times = []
    for index in range(SETUP_PROBES):
        workdir = OUT / f"setup-{workload}-{index}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe", str(workdir)]
        wall_scale, _ = speed_scale()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=SETUP_PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        times.append((elapsed, elapsed * wall_scale))
    return times


def setup_probe_child(args) -> int:
    cli = load_cli()
    from workloads import WORKLOADS

    # the warm-up's checks count in the measured run, not here
    with fresh_workdir(Path(args.setup_probe)):
        set_up(cli, WORKLOADS[args.workload](args.seed), Tally())
        print("ready", flush=True)
    return 0


# ---------------------------------------------------------------------------
# the run


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_facts(seed: int) -> dict:
    import mpmath

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list[PassStats], tally: Tally, setup_times: list, scaled=True) -> dict:
    """The end-to-end metrics, from scaled times or (scaled=False) raw ones."""
    latencies = [1000.0 * w for p in passes for w in p.walls(scaled)]
    attempted = sum(tally.attempted.values())
    values = {
        "ops_per_s": statistics.median(p.correct / sum(p.walls(scaled)) for p in passes),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "cpu_ms_per_op": statistics.median(1000.0 * p.cpu(scaled) / p.ops for p in passes),
        "success_rate": (attempted - sum(tally.errored.values())) / attempted,
        "setup_s": statistics.median(t[1 if scaled else 0] for t in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def timed_loop(cli, workload, seconds: float, tally: Tally) -> list[PassStats]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, workload.pass_ops(), tally))
        elapsed = time.perf_counter() - start
        ops = sum(p.ops for p in passes)
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and ops >= MIN_OPS):
            return passes


def traced_loop(cli, workload, seconds: float, tally: Tally, tracer):
    """Untraced and traced passes in turn; returns (traced passes, overhead)."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, workload.pass_ops(), tally))
        tracer.install()
        try:
            traced.append(run_pass(cli, workload.pass_ops(), tally, tracer))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or elapsed >= seconds:
            break
    overhead = (sum(sum(p.walls(False)) for p in traced)
                / sum(sum(p.walls(False)) for p in untraced))
    return traced, overhead


def measure(args) -> dict:
    """One benchmark run; returns the full record."""
    cli = load_cli()
    import spans
    from workloads import WORKLOADS

    facts = machine_facts(args.seed)
    OUT.mkdir(exist_ok=True)
    setup_times = [] if args.trace else probe_setup(args.workload, args.seed)
    warm, tally = Tally(), Tally()
    tracer = spans.Tracer() if args.trace else None
    with fresh_workdir(OUT / f"run-{args.workload}-seed{args.seed}"):
        workload = WORKLOADS[args.workload](args.seed)
        set_up(cli, workload, warm)
        unscaled = None
        if tracer is None:
            passes = timed_loop(cli, workload, args.seconds, tally)
            metrics = end_to_end(passes, tally, setup_times)
            unscaled = {name: m["value"] for name, m in
                        end_to_end(passes, tally, setup_times, scaled=False).items()}
        else:
            passes, overhead = traced_loop(cli, workload, args.seconds, tally, tracer)
            metrics = tracer.layer_metrics(
                len(passes), sum(p.ops for p in passes), overhead
            )
    leftover = spans.installed_shims()
    if leftover:
        raise RuntimeError(f"span shims left installed: {leftover}")
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    attempted = sum(tally.attempted.values())
    return {
        "result": {
            "correct": not (warm.failed or tally.failed),
            "attempted": attempted,
            "failed": sum(tally.failed.values()),
            "metrics": metrics,
        },
        "workload": args.workload,
        "trace": args.trace,
        "facts": facts,
        "passes": len(passes),
        "ops_per_pass": passes[0].ops,
        "pass_wall_s": [sum(p.walls(False)) for p in passes],
        "unscaled": unscaled,
        "error_rate": sum(tally.errored.values()) / attempted,
        "attempted_by_kind": dict(sorted(tally.attempted.items())),
        "errored_by_kind": dict(sorted(tally.errored.items())),
        "failed_by_kind": dict(sorted(tally.failed.items())),
        "known_failures": tally.known_failures,
        "unexpected_failures": warm.unexpected + tally.unexpected,
        "setup_probe_s": [{"raw": raw, "scaled": scaled} for raw, scaled in setup_times],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("circle_wide", "stein_probe", "dense_gram"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe_child(args)

    record = measure(args)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    summary = {k: record[k] for k in ("workload", "trace", "passes", "unscaled",
                                      "error_rate", "errored_by_kind", "known_failures",
                                      "unexpected_failures", "facts")}
    print(json.dumps(summary, indent=2))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
