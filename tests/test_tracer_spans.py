"""The benchmark still finds every package name it uses.

``perfbench/tracer.py`` times ``run_job`` by replacing module-level
functions it lists in ``SPANS`` as ``(ftmr.<module>, "<name>")``, and
the ``perfbench`` modules import names ``from ftmr.<module>``.  A rename
or a deletion in the package would only show up as a failed benchmark
run, so this reads ``SPANS`` and those imports with ``ast`` (without
importing ``perfbench``) and checks every entry against the package.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def span_targets(source: str) -> list[tuple[str, str]]:
    """The ``(module, name)`` pairs listed in ``SPANS``."""
    for node in ast.parse(source).body:
        if (
            isinstance(node, ast.Assign)
            and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"]
        ):
            return [
                (pair.elts[0].attr, pair.elts[1].value)
                for pair in ast.walk(node.value)
                if isinstance(pair, ast.Tuple)
                and len(pair.elts) == 2
                and isinstance(pair.elts[0], ast.Attribute)
                and isinstance(pair.elts[0].value, ast.Name)
                and pair.elts[0].value.id == "ftmr"
                and isinstance(pair.elts[1], ast.Constant)
            ]
    raise AssertionError("no SPANS assignment found")


def test_every_span_names_a_package_function():
    targets = span_targets(TRACER.read_text())
    assert targets
    missing = [
        f"ftmr.{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"ftmr.{module}"), name, None))
    ]
    assert missing == []


def test_scan_reads_the_pairs():
    source = 'SPANS = {"a": [(ftmr.engine, "f"), (ftmr.partition, "g")]}\n'
    assert span_targets(source) == [("engine", "f"), ("partition", "g")]


def package_imports(source: str) -> list[tuple[str, str]]:
    """The ``(module, name)`` pairs of every ``from ftmr.<module> import``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("ftmr.")
        for alias in node.names
    ]


def test_every_benchmark_import_names_a_package_attribute():
    imports = [
        pair for path in sorted(PERFBENCH.glob("*.py"))
        for pair in package_imports(path.read_text())
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_import_scan_reads_the_pairs():
    source = "import ftmr.engine\nfrom ftmr.harness import a, b as c\nfrom os import d\n"
    assert package_imports(source) == [("ftmr.harness", "a"), ("ftmr.harness", "b")]
