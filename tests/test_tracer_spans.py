"""The benchmark tracer's spans still name functions of the package.

``perfbench/tracer.py`` times ``run_job`` by replacing module-level
functions it lists in ``SPANS`` as ``(ftmr.<module>, "<name>")``.  A
rename in the package would only show up in a traced benchmark run, so
this reads ``SPANS`` with ``ast`` (without importing the tracer) and
checks every entry against the package.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
