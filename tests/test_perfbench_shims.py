"""The benchmark's span shims look up names on geokernel modules with
``getattr``; every name they patch must exist and be callable, or the
traced benchmark stops at install time."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_patch_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for mod_name, attr, _, _ in spans.PATCHES:
        mod = importlib.import_module(f"geokernel.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"geokernel.{mod_name}.{attr}"
