"""Every imported name is used in the file that imports it.

A static scan with ``ast``: a name bound by an import statement must appear
as a name somewhere else in the same file. A line marked ``# noqa: F401``
is a deliberate re-export, so it is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for pattern in ("src/**/*.py", "scripts/*.py", "tests/*.py", "bench/*.py")
    for path in ROOT.glob(pattern)
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys  # noqa: F401\nimport json\njson.dumps(1)\n"
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
