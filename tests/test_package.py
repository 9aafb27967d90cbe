import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import nablafrac

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert [name for name in nablafrac.__all__ if not hasattr(nablafrac, name)] == []


def _span_metrics():
    """(metric, span) for every per-layer metric of the form <module>.<function>.<field>."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in metrics:
        key, _, field = metric["name"].rpartition(".")
        if key.count(".") == 1 and field in ("self_s", "total_s", "calls"):
            for span in tracing._SPAN_ALIASES.get(key, (key,)):
                yield metric["name"], span


@pytest.mark.parametrize("metric, span", list(_span_metrics()))
def test_every_per_layer_span_names_a_library_function(metric, span):
    # the tracer wraps the functions a module defines, so a renamed one would read 0
    module, name = span.split(".")
    fn = getattr(importlib.import_module(f"nablafrac.{module}"), name, None)
    assert inspect.isfunction(fn) and fn.__module__ == f"nablafrac.{module}", metric
