import ast
import csv
import importlib.util
import inspect
import io
import json
import re
from pathlib import Path

import pytest

import nablafrac
from nablafrac import cli

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert [name for name in nablafrac.__all__ if not hasattr(nablafrac, name)] == []


def _unused_imports(path: Path) -> list[str]:
    """The names path's imports bind that its code never reads; ``__future__`` binds none."""
    tree = ast.parse(path.read_text())
    bound = {alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names}
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize("module", sorted(
    path.name for path in (ROOT / "src" / "nablafrac").glob("*.py") if path.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    # __init__.py imports to re-export, and its __all__ is checked above
    assert _unused_imports(ROOT / "src" / "nablafrac" / module) == []


def test_readme_documents_every_exported_name():
    readme = (ROOT / "README.md").read_text()
    assert [name for name in nablafrac.__all__ if f"`{name}`" not in readme] == []


def test_readme_config_example_verifies(tmp_path, capsys):
    # the README's JSON config, run as its `verify --config problem.json` line runs it
    example = re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    path = tmp_path / "problem.json"
    path.write_text(example.group(1))
    assert cli.main(["verify", "--config", str(path)]) == 0
    assert capsys.readouterr().out.endswith("verify: all checks passed\n")


def test_readme_conjugate_example_prints_the_closed_form(tmp_path, capsys):
    # the README's second JSON config, run as its `greens --config conjugate.json` line runs it
    example = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)[1]
    path = tmp_path / "conjugate.json"
    path.write_text(example)
    assert cli.main(["greens", "--config", str(path)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    closed = nablafrac.conjugate_greens_closed_form(0.0, 10.0, 1.5)
    assert [float(row[4]) for row in rows] == closed.G.ravel().tolist()


def _tracing():
    """The traced benchmark run's tracer module, ``perfbench/tracing.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _span_metrics():
    """(metric, span) for every per-layer metric of the form <module>.<function>.<field>."""
    tracing = _tracing()
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


def test_traced_solve_bvp_records_a_gauss_solve_span():
    # the linalg.* per-layer metrics read this span; without it they read 0
    tracer = _tracing().Tracer()
    op = nablafrac.FracOperator.constant(0.0, 1.5, 12)
    tracer.install()
    try:
        root = tracer.begin_op("op")
        nablafrac.solve_bvp(op, nablafrac.zero_forcing(op), nablafrac.BoundarySpec.conjugate())
        tracer.end_op(root)
    finally:
        tracer.uninstall()
    spans = [(row[0], row[3]) for row in tracer.dump()["spans"]]
    names = [name for name, _ in spans]
    assert ("linalg.gauss_solve", names.index("bvp.solve_bvp")) in spans
    assert tracer.span_table()["linalg.gauss_solve"]["calls"] == 1


def test_greens_matrix_is_bvps_reexported_by_greens():
    from nablafrac import bvp, greens
    assert greens.greens_matrix is bvp.greens_matrix is nablafrac.greens_matrix
