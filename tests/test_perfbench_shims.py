"""The benchmark's span shims look up names on geokernel modules with
``getattr``; every name they patch must exist and be callable, or the
traced benchmark stops at install time.  Their counters read fields of
the patched callables' results, so each counter must also accept a real
result, or the traced benchmark stops at the first call."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import geokernel as gk

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _sample_calls():
    """One real call per patched callable that has a counter: (args, kwargs)."""
    return {
        "jacobi_eigensystem": ((np.diag([2.0, 1.0, 3.0]),), {}),
        "gram": ((gk.Sphere(2), gk.sample_points(gk.Sphere(2), 0, 5), 0.5), {}),
        "jacobi_eigenvalues": ((np.eye(4),), {}),
        "circulant_eigenvalues": ((0.1, 8), {}),
        "partial_theta": ((10, 0, 8), {}),
        "quadratic_form": ((gk.Circle(), 0.1, gk.circle_equispaced(4), [0.5, -0.5, 0.5, -0.5], 17), {}),
        "verify_isometry": ((gk.Sphere(2),), {"pair_count": 20, "seed": 0}),
        # the frozen seed-7 hit, so the counter reads a witness too
        "probe": ((3, 0.01, 80, 10, 7), {}),
    }


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_patch_resolves():
    spans = _spans()
    assert spans.PATCHES
    for mod_name, attr, _, _ in spans.PATCHES:
        mod = importlib.import_module(f"geokernel.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"geokernel.{mod_name}.{attr}"


def test_every_span_counter_reads_a_real_result():
    calls = _sample_calls()
    counted = set()
    for mod_name, attr, _, counter in _spans().PATCHES:
        if counter is None:
            continue
        args, kwargs = calls[attr]
        result = getattr(importlib.import_module(f"geokernel.{mod_name}"), attr)(*args, **kwargs)
        counts = Counter()
        counter(counts, args, kwargs, result)
        assert counts and all(v > 0 for v in counts.values()), (f"geokernel.{mod_name}.{attr}", counts)
        counted.add(attr)
    assert counted == set(calls)
