"""Every name a module of the package imports is used in that module.

A stdlib ``ast`` scan: the names an ``import`` binds, less the names the
module reads (as a name, an attribute base, or inside a string such as a
quoted annotation or an ``__all__`` entry).  ``__init__.py`` is skipped,
since re-exporting is its job.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ftmr"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string that parses as an expression counts as a use: it
            # may be a quoted annotation or an __all__ entry
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_name():
    source = "from x import a, b\nimport c.d\nprint(a)\ndef f() -> 'c.T': ...\n"
    assert unused_imports(source) == ["line 1: b"]
