"""The mutant list of ``scripts/mutants.py`` still matches the code (no mutant runs)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_text_occurs_exactly_once():
    assert mutants.MUTANTS
    assert mutants.drifted() == []


def test_failing_tests_read_from_the_pytest_summary():
    output = (
        "..F.E\n"
        "=========== short test summary info ===========\n"
        "FAILED tests/test_a.py::test_x[1:1;2:2] - AssertionError: a - b\n"
        "ERROR tests/test_b.py::test_y\n"
        "1 failed, 3 passed, 1 error in 0.10s\n"
    )
    assert mutants.failing_tests(output) == [
        "tests/test_a.py::test_x[1:1;2:2]", "tests/test_b.py::test_y",
    ]


def test_a_kill_by_the_lint_alone_counts_as_survived():
    lint = "tests/test_imports.py::test_no_unread_locals"
    other = "tests/test_engine.py::test_map_errors_carry_context"
    assert mutants.LINT == lint
    assert mutants.verdict(0, []) == "survived"
    assert mutants.verdict(1, [f"{lint}[engine.py]"]) == "lint only"
    assert mutants.verdict(1, [f"{lint}[engine.py]", f"{lint}[core.py]"]) == "lint only"
    assert mutants.verdict(1, [f"{lint}[engine.py]", other]) == "killed"
    # the lint's own self-test is not the lint
    assert mutants.verdict(1, ["tests/test_imports.py::test_scan_flags_an_unread_local"]) == "killed"
    assert mutants.verdict(1, [other]) == "killed"
    # a failing run whose summary named no test (e.g. a crash) still kills
    assert mutants.verdict(1, []) == "killed"
