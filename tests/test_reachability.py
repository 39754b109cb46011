"""Every library name must be reached by the program, not only by tests.

Each module-level function, class and constant of ``src/qmcstream``, each
public method of its classes and each annotated field of its dataclasses
must be named somewhere in ``src/``, ``bench/`` or ``scripts/`` outside its
own definition. A name counts when it appears as a variable, an attribute,
or a word of a string literal other than a docstring (the benchmark tracer
names what it wraps in strings). A field counts only where it is read: as an
attribute, or as a whole string literal (a tracer or CSV column name that
getattr reads). Names are matched by their last component, so a method
shares credit with any variable or attribute of that name, and a field with
any attribute of that name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qmcstream"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

ACYCLIC_UNION = "matching plus forest is acyclic, so forest_cut_value is achievable; tests/test_graph.py checks it"

# Reached only by tests, on purpose; one reason each.
ALLOWED = {
    "finalize_sample": "scores a ReservoirState, the per-edge reference the bank must match in law",
    "expectation_oracle": "exact E[X] by enumeration, the reference for the bank's sample mean",
    "parse_instance": "reads the documented dihp-gen output format",
    "BipartiteWitness.coloring": "a bipartite answer has no other certificate; tests verify it both ways",
    "BipartiteWitness.odd_cycle": "a non-bipartite answer has no other certificate; tests verify it both ways",
    "HeaviestEdgeDecomposition.matching": ACYCLIC_UNION,
    "HeaviestEdgeDecomposition.forest": ACYCLIC_UNION,
}


def _occurrences(path: Path) -> list[tuple[str, int, bool]]:
    """(name, line, whether it reads a field) for every identifier the
    module uses."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.end_lineno, True))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            out.extend((word, node.lineno, word == node.value) for word in WORD.findall(node.value))
    return out


def _is_dataclass(decorator: ast.expr) -> bool:
    """``@dataclass`` bare or called with options."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def _definitions(path: Path):
    """(qualified name, first line, last line, whether it is a dataclass
    field) of each checked definition."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno, False
            if isinstance(node, ast.ClassDef):
                fields = any(_is_dataclass(d) for d in node.decorator_list)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.lineno, item.end_lineno, False
                    elif fields and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{node.name}.{item.target.id}", item.lineno, item.end_lineno, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno, node.end_lineno, False


def unreached_names() -> list[str]:
    uses: dict[str, list[tuple[Path, int, bool]]] = {}
    for folder in ("src", "bench", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for word, line, reads in _occurrences(path):
                uses.setdefault(word, []).append((path, line, reads))
    out = []
    for module in sorted(PACKAGE.glob("*.py")):
        for qualname, first, last, field in _definitions(module):
            name = qualname.rsplit(".", 1)[-1]
            credit = [(path, line) for path, line, reads in uses.get(name, []) if reads or not field]
            if all(path == module and first <= line <= last for path, line in credit):
                out.append(f"{module.stem}.{qualname}")
    return out


def test_library_names_are_reached_outside_tests():
    unreached = [q for q in unreached_names() if q.split(".", 1)[1] not in ALLOWED]
    assert unreached == [], "library names reached only by tests (delete them, or allow one with a reason)"


def test_allowlist_names_exist_and_are_unreached():
    # An allowed name that the program starts to use, or that is deleted,
    # leaves the list.
    assert sorted(q.split(".", 1)[1] for q in unreached_names()) == sorted(ALLOWED)
