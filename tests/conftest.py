"""Shared test configuration.

Hypothesis runs with a bounded example count and no deadline so the
property tests stay fast and do not flake on slow CI machines.  Every
test must leave CPython's cyclic collector switched as it found it.
"""

import gc
import logging

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")

# Recovery tests exercise degraded clusters on purpose; keep the
# expected protection warnings out of the test output.
logging.getLogger("ftmr").setLevel(logging.ERROR)


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fail a test that leaves ``gc.isenabled()`` changed, then restore it."""
    before = gc.isenabled()
    yield
    after = gc.isenabled()
    if after != before:
        (gc.enable if before else gc.disable)()
        pytest.fail(f"test left gc.isenabled() {after}; it was {before}")
