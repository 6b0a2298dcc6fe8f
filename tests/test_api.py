"""The public API: every exported name resolves, the export list is what
the README example, the acceptance suite and the benchmark import plus
the types those names return, take or raise, and the README's library
example runs as written."""

import ast
import contextlib
import importlib.util
import io
import re
from pathlib import Path

import leibnizalg

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

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
    sources += [path.read_text() for path in sorted((ROOT / "benchmark").rglob("*.py"))]
    imported = set().union(*map(imported_names, sources))
    assert set(leibnizalg.__all__) == imported | TYPES


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_example(), str(README), "exec"), {})
    assert out.getvalue().count("\n") == 2  # the distinctness vector, the witnesses
