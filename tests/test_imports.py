"""Every imported name is used: a static check of the project's Python
files, since no linter is a dependency. A name counts as used when the
module refers to it anywhere; the imports of an ``__init__.py`` are its
re-exports, and ``from __future__`` imports are directives."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "demos", "bench")


def python_files(directory: str) -> list[Path]:
    """The .py files under a project directory, less __init__.py files and
    hidden directories such as the benchmark's work directory."""
    return sorted(p for p in (ROOT / directory).rglob("*.py") if p.name != "__init__.py"
                  and not any(part.startswith(".") for part in p.relative_to(ROOT).parts))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("directory", DIRS)
def test_no_unused_imports(directory):
    files = python_files(directory)
    assert files
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in files
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nimport math\nnp.pi\n", [(2, "math")]),
    ("from a import b, c as d\nb()\n", [(1, "d")]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from a import b\n    return b\n", []),
    ("from a import B\nx: B = 1\n", []),
])
def test_checker(source, unused):
    assert unused_imports(source) == unused
