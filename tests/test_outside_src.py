"""Guards for what uses pmcat from outside ``src/``: the benchmark's
per-layer metrics and the demos; for what ``src/`` itself may import;
and for public code that nothing but the tests and demos use."""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

import pmcat
from pmcat.fixtures import build
from pmcat.segal import zigzag_chain_category

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_layer_metrics_resolve(monkeypatch):
    # every per-layer metric of BENCHMARK.json names a span that exists
    # once the tracer is installed; a renamed function raises KeyError
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    for layer in spans.LAYERS:
        importlib.import_module(f"pmcat.{layer}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    tracer = spans.Tracer()
    tracer.install(pmcat)
    try:
        totals = tracer.totals()
        for name in names:
            if not name.startswith("trace."):
                assert spans.layer_value(tracer, totals, name) == 0, name
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_library_imports_only_the_standard_library():
    # the library stays stdlib-only at runtime: every absolute import in
    # src/pmcat, at module level or inside a function, names a standard
    # library module
    checked = 0
    for path in sorted((ROOT / "src" / "pmcat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
                checked += 1
    assert checked


def _attribute_readers_outside_fincat(names):
    """Where a module of the library, the tests or the demos other than
    ``fincat.py`` reads an attribute with one of ``names``."""
    readers = []
    paths = [path for folder in ("src/pmcat", "tests", "demos")
             for path in sorted((ROOT / folder).glob("*.py"))]
    for path in paths:
        if path == ROOT / "src" / "pmcat" / "fincat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                readers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert len(paths) > 20
    return readers


def test_only_fincat_reads_the_composition_table():
    # composition is read through compose() and composites(); the table
    # behind them is fincat's own
    assert _attribute_readers_outside_fincat(("comp", "_comp")) == []


def test_only_fincat_reads_the_hom_index():
    # a category keeps one index of its morphisms, by their ends, and
    # other modules ask it through hom(), out_of(), into() and lookup()
    assert _attribute_readers_outside_fincat(("_hom", "_rows", "_by_parts")) == []
    b_2 = zigzag_chain_category(build("B2").rc, 2)
    parts = {(b_2.src[m], b_2.tgt[m], c) for m, c in b_2.components.items()}
    for value in vars(b_2).values():
        assert not (isinstance(value, dict) and parts & value.keys())


def _unreached_public_names(root):
    """Public module-level functions and classes of ``src/pmcat``, and
    public methods of those classes, that the library reads (as a name
    or an attribute) nowhere outside their own definition and that
    ``perfbench/*.py`` and ``BENCHMARK.json`` do not name: code only the
    tests and demos reach."""
    def reads(node):
        return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                       for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))

    definitions = []   # (label, node)
    library = Counter()
    for path in sorted((root / "src" / "pmcat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        library += reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((f"{path.name}:{node.name}", node))
                if isinstance(node, ast.ClassDef):
                    definitions.extend(
                        (f"{path.name}:{node.name}.{method.name}", method)
                        for method in node.body
                        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"))
    outside = "\n".join(path.read_text(encoding="utf-8") for path in
                        [*sorted((root / "perfbench").glob("*.py")), root / "BENCHMARK.json"])
    return [label for label, node in definitions
            if library[node.name] == reads(node)[node.name]
            and not re.search(rf"\b{node.name}\b", outside)]


def test_every_public_name_has_a_use_outside_the_tests():
    assert _unreached_public_names(ROOT) == []


def test_the_unreached_name_guard_sees_a_name_used_only_by_itself(tmp_path):
    (tmp_path / "src" / "pmcat").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "pmcat" / "a.py").write_text(
        "def lonely(n):\n    return lonely(n - 1)\n\n"
        "def used():\n    pass\n\nclass Timed:\n    pass\n\nTABLE = [used]\n\n"
        "class Graph:\n"
        "    def step(self):\n        return self.step()\n\n"
        "    def walk(self):\n        return self.visit()\n\n"
        "    def visit(self):\n        pass\n\n"
        "    def timed(self):\n        pass\n\n"
        "    def _hidden(self):\n        pass\n\n"
        "GRAPH = Graph().walk\n")
    (tmp_path / "BENCHMARK.json").write_text(
        '{"per_layer": [{"name": "a.Timed.s"}, {"name": "a.Graph.timed.s"}]}')
    assert _unreached_public_names(tmp_path) == ["a.py:lonely", "a.py:Graph.step"]
