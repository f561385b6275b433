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
