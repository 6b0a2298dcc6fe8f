"""The public API: every exported name resolves, and the README's library
example runs as written."""

import contextlib
import io
import re
from pathlib import Path

import leibnizalg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    names = leibnizalg.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(leibnizalg, n)] == []


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().count("\n") == 2  # the distinctness vector, the witnesses
