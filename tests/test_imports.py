"""Every name the package binds is read: imports and function locals.

Two stdlib ``ast`` scans.  The first takes the names an ``import``
binds, less the names the module reads (as a name, an attribute base,
or inside a string such as a quoted annotation or an ``__all__`` entry);
``__init__.py`` is skipped, since re-exporting is its job.  The second
takes the names each function assigns in its own scope, less the names
it or a function nested in it reads; ``_``-prefixed names are exempt,
and so are names a ``global`` or ``nonlocal`` statement hands outward.
An augmented assignment (``n += 1``) is a write, not a read.

A third scan keeps the delivery ledger off the protocol path: the
shuffle and recovery's injection name no ledger (as a name, an
attribute or a parameter); the step loop notes it.
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn: ast.AST):
    """The nodes of ``fn`` outside the scopes nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(source: str) -> list[str]:
    found: list[tuple[int, str, str]] = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        outward: set[str] = set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                outward.update(node.names)
        read = {
            node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            (line, fn.name, name) for name, line in stored.items()
            if name not in read and name not in outward and not name.startswith("_")
        ]
    return [f"line {line}: {fn}: {name}" for line, fn, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_locals(path):
    assert unread_locals(path.read_text()) == []


def test_scan_flags_an_unread_local():
    source = (
        "def f(a):\n"
        "    (u,) = a\n"
        "    n = 0\n"
        "    n += 1\n"
        "    _skip = w = x = y = 2\n"
        "    def g():\n"
        "        nonlocal y\n"
        "        y = 3\n"
        "        return x\n"
        "    return g, [z for z in a], w, y\n"
    )
    assert unread_locals(source) == ["line 2: f: u", "line 3: f: n"]


def ledger_names(source: str, function: str) -> list[str]:
    (fn,) = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    found = []
    for node in ast.walk(fn):
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.arg if isinstance(node, ast.arg)
            else ""
        )
        if "ledger" in name.lower():
            found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("module, function", [
    ("engine.py", "shuffle"),
    ("recovery.py", "_inject"),
])
def test_protocol_path_names_no_ledger(module, function):
    assert ledger_names((PACKAGE / module).read_text(), function) == []


def test_scan_flags_a_ledger_name():
    source = (
        "def f(cluster, ledger=None):\n"
        "    \"the ledger is not named here\"\n"
        "    book = cluster.ledger\n"
        "    return DeliveryLedger, book\n"
        "def g(ledger):\n"
        "    return ledger\n"
    )
    assert ledger_names(source, "f") == [
        "line 1: ledger", "line 3: ledger", "line 4: DeliveryLedger",
    ]
