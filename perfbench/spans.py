"""Span shims around the public entry points of each geokernel module.

A :class:`Tracer` replaces the names that each consumer module looks up
(``geokernel.stein.gram``, ``geokernel.spaces.require_valid``, ...) with
thin wrappers that record a span per call: name, start, end, parent span
and op id.  Spans stay in memory until :meth:`Tracer.write`.  Nothing is
patched until :meth:`Tracer.install`, and :meth:`Tracer.uninstall` puts
every original object back, so an untraced run executes the program
exactly as shipped.

Self time of a span is its duration minus the time covered by its
direct children; the op span (``cli``) is opened by the benchmark
around each ``geokernel.cli.main`` call, so its self time is argparse,
JSON, file IO and any code outside the shimmed entry points.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

SHIM_MARK = "_perfbench_shim"

GEOKERNEL_MODULES = (
    "spaces", "gram", "spectral", "partial_theta", "circle",
    "certificates", "embeddings", "stein", "cli", "precision",
)


def _count_gram(counts, args, kwargs, result):
    n = result.order
    counts["gram.pairs"] += n * (n - 1) // 2
    counts["gram.points"] += n


def _count_jacobi(counts, args, kwargs, result):
    counts["spectral.jacobi.n3"] += result.order ** 3


def _count_jacobi_in_distance(counts, args, kwargs, result):
    counts["spectral.jacobi.n3"] += len(result[0]) ** 3
    counts["spectral.jacobi_in_distance.calls"] += 1


def _count_circulant(counts, args, kwargs, result):
    counts["spectral.circulant.terms"] += result.order ** 2


def _count_series(counts, args, kwargs, result):
    counts["partial_theta.terms"] += result.terms_used


def _count_quadratic_form(counts, args, kwargs, result):
    coefficients = args[3] if len(args) > 3 else kwargs["coefficients"]
    n = len(coefficients)
    counts["certificates.quadratic_form.pairs"] += n * (n - 1) // 2
    counts["certificates.quadratic_form.points"] += n


def _count_isometry(counts, args, kwargs, result):
    pairs = args[1] if len(args) > 1 else kwargs.get("pair_count", 1000)
    counts["embeddings.isometry.pairs"] += pairs


def _count_probe(counts, args, kwargs, result):
    counts["stein.trials"] += result.trials_run
    counts["stein.hits"] += result.witness is not None


# (module under geokernel, attribute the consumer looks up, span, counter)
PATCHES = (
    ("spaces", "distance", "spaces.distance", None),
    ("spaces", "require_valid", "spaces.validate", None),
    ("spaces", "matrix_log", "spaces.matrix_log", None),
    ("spaces", "principal_angles", "spaces.principal_angles", None),
    ("spaces", "jacobi_eigensystem", "spectral.jacobi", _count_jacobi_in_distance),
    ("certificates", "gram", "gram", _count_gram),
    ("stein", "gram", "gram", _count_gram),
    ("certificates", "jacobi_eigenvalues", "spectral.jacobi", _count_jacobi),
    ("stein", "jacobi_eigenvalues", "spectral.jacobi", _count_jacobi),
    ("certificates", "min_eigenvector", "spectral.min_eigenvector", None),
    ("certificates", "circulant_eigenvalues", "spectral.circulant", _count_circulant),
    ("circle", "circulant_eigenvalues", "spectral.circulant", _count_circulant),
    ("cli", "circulant_eigenvalues", "spectral.circulant", _count_circulant),
    ("partial_theta", "partial_theta", "partial_theta.series", _count_series),
    ("cli", "partial_theta", "partial_theta.series", _count_series),
    ("cli", "bound_rhs", "partial_theta.bound", None),
    ("cli", "leading_term", "partial_theta.bound", None),
    ("circle", "mu_of_lambda", "partial_theta.bound", None),
    ("circle", "w_half", "circle.w_half", None),
    ("cli", "w_half", "circle.w_half", None),
    ("circle", "find_witness_size", "circle.search", None),
    ("cli", "circle_witness", "circle.search", None),
    ("embeddings", "circle_witness", "circle.search", None),
    ("circle", "build_certificate", "certificates.build", None),
    ("stein", "build_certificate", "certificates.build", None),
    ("certificates", "quadratic_form", "certificates.quadratic_form", _count_quadratic_form),
    ("embeddings", "quadratic_form", "certificates.quadratic_form", _count_quadratic_form),
    ("cli", "verify_certificate", "certificates.verify", None),
    ("cli", "cert_to_json", "certificates.json", None),
    ("cli", "cert_from_json", "certificates.json", None),
    ("cli", "witness_for_target", "embeddings.transfer", None),
    ("embeddings", "transfer_witness", "embeddings.transfer", None),
    ("cli", "verify_isometry", "embeddings.isometry", _count_isometry),
    ("cli", "probe", "stein.probe", _count_probe),
    ("stein", "stein_divergence", "stein.divergence", None),
)

OP_SPAN = "cli"

# per-layer metrics: name -> unit; counts are per pass, times per op
LAYER_METRICS = {
    "spaces.distance.calls": "count",
    "spaces.distance.self_ms": "ms",
    "spaces.validate.calls": "count",
    "spaces.validate.per_point": "ratio",
    "spaces.validate.self_ms": "ms",
    "spaces.matrix_log.calls": "count",
    "spaces.principal_angles.calls": "count",
    "gram.calls": "count",
    "gram.pairs": "count",
    "gram.self_ms": "ms",
    "spectral.jacobi.calls": "count",
    "spectral.jacobi.n3": "count",
    "spectral.jacobi.self_ms": "ms",
    "spectral.jacobi_in_distance.calls": "count",
    "spectral.circulant.calls": "count",
    "spectral.circulant.terms": "count",
    "spectral.circulant.self_ms": "ms",
    "spectral.min_eigenvector.self_ms": "ms",
    "partial_theta.calls": "count",
    "partial_theta.terms": "count",
    "partial_theta.self_ms": "ms",
    "circle.w_half.calls": "count",
    "circle.w_half.self_ms": "ms",
    "circle.search.self_ms": "ms",
    "certificates.build.self_ms": "ms",
    "certificates.build.refused": "count",
    "certificates.quadratic_form.pairs": "count",
    "certificates.quadratic_form.self_ms": "ms",
    "certificates.verify.self_ms": "ms",
    "certificates.json.self_ms": "ms",
    "embeddings.transfer.self_ms": "ms",
    "embeddings.isometry.pairs": "count",
    "embeddings.isometry.self_ms": "ms",
    "stein.trials": "count",
    "stein.hits_per_trial": "ratio",
    "stein.divergence.calls": "count",
    "stein.divergence.self_ms": "ms",
    "stein.probe.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "trace.overhead": "ratio",
}

# the layer metrics that must repeat exactly between two traced runs
EXACT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit in ("count", "bytes")
) + ("spaces.validate.per_point", "stein.hits_per_trial")


def geokernel_module(name: str):
    return importlib.import_module(f"geokernel.{name}")


def installed_shims() -> list[str]:
    """Every attribute of a geokernel module that is currently a shim."""
    found = []
    for mod_name in GEOKERNEL_MODULES:
        mod = geokernel_module(mod_name)
        for attr, value in vars(mod).items():
            if getattr(value, SHIM_MARK, False):
                found.append(f"geokernel.{mod_name}.{attr}")
    return found


class Tracer:
    """In-memory span recorder plus the shims that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op_id)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [index, name, start, child_s]
        self._saved: list[tuple] = []
        self._op_id: int | None = None

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span, counter in PATCHES:
            mod = geokernel_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._shim(original, span, counter))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _shim(self, fn, span, counter):
        def shim(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            self._open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{span}.raised"] += 1
                raise
            finally:
                self._close()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        setattr(shim, SHIM_MARK, True)
        return shim

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> None:
        self.counts[f"{name}.calls"] += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        index, name, start, child_s = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += duration
        self.spans[index] = (name, start, end, parent, self._op_id)

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._open(OP_SPAN)

    def end_op(self) -> None:
        self._close()
        self._op_id = None

    # -- results ------------------------------------------------------------

    def layer_metrics(self, passes: int, ops: int, overhead: float) -> dict:
        """Per-layer metrics: counts per pass, self times in ms per op."""
        c = self.counts
        per_pass = lambda key: c[key] / passes
        ms = lambda *spans: 1000.0 * sum(self.self_s[s] for s in spans) / ops
        ratio = lambda num, den: num / den if den else 0.0
        values = {
            "spaces.distance.calls": per_pass("spaces.distance.calls"),
            "spaces.distance.self_ms": ms("spaces.distance"),
            "spaces.validate.calls": per_pass("spaces.validate.calls"),
            "spaces.validate.per_point": ratio(
                c["spaces.validate.calls"],
                c["gram.points"] + c["certificates.quadratic_form.points"],
            ),
            "spaces.validate.self_ms": ms("spaces.validate"),
            "spaces.matrix_log.calls": per_pass("spaces.matrix_log.calls"),
            "spaces.principal_angles.calls": per_pass("spaces.principal_angles.calls"),
            "gram.calls": per_pass("gram.calls"),
            "gram.pairs": per_pass("gram.pairs"),
            "gram.self_ms": ms("gram"),
            "spectral.jacobi.calls": per_pass("spectral.jacobi.calls"),
            "spectral.jacobi.n3": per_pass("spectral.jacobi.n3"),
            "spectral.jacobi.self_ms": ms("spectral.jacobi"),
            "spectral.jacobi_in_distance.calls": per_pass("spectral.jacobi_in_distance.calls"),
            "spectral.circulant.calls": per_pass("spectral.circulant.calls"),
            "spectral.circulant.terms": per_pass("spectral.circulant.terms"),
            "spectral.circulant.self_ms": ms("spectral.circulant"),
            "spectral.min_eigenvector.self_ms": ms("spectral.min_eigenvector"),
            "partial_theta.calls": per_pass("partial_theta.series.calls"),
            "partial_theta.terms": per_pass("partial_theta.terms"),
            "partial_theta.self_ms": ms("partial_theta.series", "partial_theta.bound"),
            "circle.w_half.calls": per_pass("circle.w_half.calls"),
            "circle.w_half.self_ms": ms("circle.w_half"),
            "circle.search.self_ms": ms("circle.search"),
            "certificates.build.self_ms": ms("certificates.build"),
            "certificates.build.refused": per_pass("certificates.build.raised"),
            "certificates.quadratic_form.pairs": per_pass("certificates.quadratic_form.pairs"),
            "certificates.quadratic_form.self_ms": ms("certificates.quadratic_form"),
            "certificates.verify.self_ms": ms("certificates.verify"),
            "certificates.json.self_ms": ms("certificates.json"),
            "embeddings.transfer.self_ms": ms("embeddings.transfer"),
            "embeddings.isometry.pairs": per_pass("embeddings.isometry.pairs"),
            "embeddings.isometry.self_ms": ms("embeddings.isometry"),
            "stein.trials": per_pass("stein.trials"),
            "stein.hits_per_trial": ratio(c["stein.hits"], c["stein.trials"]),
            "stein.divergence.calls": per_pass("stein.divergence.calls"),
            "stein.divergence.self_ms": ms("stein.divergence"),
            "stein.probe.self_ms": ms("stein.probe"),
            "cli.self_ms": ms(OP_SPAN),
            "cli.stdout_bytes": per_pass("cli.stdout_bytes"),
            "trace.overhead": overhead,
        }
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }

    def write(self, path) -> None:
        """One JSON line per span: [name, start_s, end_s, parent, op_id]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
