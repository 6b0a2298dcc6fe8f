"""The public API: every exported name resolves, the export list is what
the README example, the acceptance suite and the benchmark import plus
the types those names return, take or raise, and the README's library
example runs as written.  The names the benchmark imports from library
modules resolve too, and its sl(n) builder agrees with the catalog.
Every public function and class has a user outside the unit tests.
Importing the package loads no introspection modules."""

import ast
import contextlib
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import leibnizalg
from leibnizalg import simple_algebra

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BENCH = ROOT / "benchmark"
SRC = ROOT / "src" / "leibnizalg"

# The types that the imported names return, take or raise.
TYPES = {
    "CounterexampleBundle", "DistinctnessError", "InvarianceError", "LeibnizIdentityError",
    "LeviDecomposition", "LeviVerificationError", "LeviWitnesses", "ModuleAction",
    "NoSolutionError", "NonConjugacyCertificate", "NotAComplementError", "NotLieError",
    "UnknownAlgebraError", "ViolationReport",
}


def readme_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def imported_names(code: str) -> set[str]:
    """The names ``from leibnizalg import ...`` brings in, submodules aside."""
    return {alias.name for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) and node.module == "leibnizalg"
            for alias in node.names
            if importlib.util.find_spec(f"leibnizalg.{alias.name}") is None}


def test_every_exported_name_resolves_once():
    names = leibnizalg.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(leibnizalg, n)] == []


def test_exports_are_what_the_example_the_acceptance_suite_and_the_benchmark_import():
    sources = [readme_example(), (ROOT / "tests" / "test_acceptance.py").read_text()]
    sources += [path.read_text() for path in sorted(BENCH.rglob("*.py"))]
    imported = set().union(*map(imported_names, sources))
    assert set(leibnizalg.__all__) == imported | TYPES


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_example(), str(README), "exec"), {})
    assert out.getvalue().count("\n") == 2  # the distinctness vector, the witnesses


def public_definitions() -> list[tuple[str, str]]:
    """(file name, name) for each public module-level function and class
    of the library."""
    return [(path.name, node.name) for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_definition_is_used_outside_the_tests():
    """Each public function and class is named somewhere besides its own
    definition: in the library, the README, the acceptance suite, the
    benchmark or the CI workflows.  One that only ``tests/`` names is API
    that no caller needs."""
    places = [*SRC.glob("*.py"), README, ROOT / "tests" / "test_acceptance.py",
              *(p for p in BENCH.rglob("*") if p.suffix in (".py", ".md")),
              *(ROOT / ".github" / "workflows").glob("*.yml")]
    text = "\n".join(path.read_text(encoding="utf-8") for path in places)
    definitions = public_definitions()
    assert len(definitions) > 50
    assert [f"{file}:{name}" for file, name in definitions
            if len(re.findall(rf"\b{name}\b", text)) < 2] == []


@pytest.mark.parametrize("module", ["leibnizalg", "leibnizalg.cli"])
def test_import_loads_no_introspection_modules(module):
    """dataclasses pulls in inspect, ast and dis; with the methods it
    generates, that was about a third of the CLI's import time.  Checked
    in a fresh interpreter, against what it had loaded before the import."""
    code = (f"import sys; before = set(sys.modules); import {module}; "
            "print(sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = set(ast.literal_eval(subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout))
    assert {module, "leibnizalg.conjugacy", "leibnizalg.exactlin"} <= loaded
    assert loaded & {"ast", "dataclasses", "dis", "inspect"} == set()


def benchmark_module_imports() -> set[tuple[str, str]]:
    """(module, name) for each ``from leibnizalg.<module> import name``
    in the benchmark's sources."""
    return {(node.module, alias.name)
            for path in sorted(BENCH.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("leibnizalg.")
            for alias in node.names}


def test_benchmark_imports_from_library_modules_resolve():
    """Names below the package, private ones such as
    ``constructions._table_from_matrices`` included: moving one would
    stop every benchmark workload at import."""
    imports = benchmark_module_imports()
    assert imports
    assert [(module, name) for module, name in sorted(imports)
            if not hasattr(importlib.import_module(module), name)] == []


def products_by_label(alg) -> dict:
    return {(alg.labels[i], alg.labels[j]): {alg.labels[k]: c for k, c in pairs}
            for i, products in enumerate(alg.table.nonzero)
            for j, pairs in products.items()}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_benchmark_sln_is_the_catalog_algebra_relabelled(monkeypatch, n):
    """The benchmark builds sl(n) from its own generator list, in another
    basis order; matched by label, the two tables agree."""
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling tracing
    bench = importlib.import_module("workloads").sln(n)
    catalog = simple_algebra(f"sl{n}")
    assert sorted(bench.labels) == sorted(catalog.labels)
    assert products_by_label(bench) == products_by_label(catalog)
