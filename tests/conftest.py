"""Shared pytest wiring.

The acceptance module registers one outcome per criterion; the terminal
summary hook below prints them as a single pass/fail line each, so the
result survives pytest's output capturing.  An autouse fixture fails a test
that leaves the cyclic garbage collector disabled.
"""

from __future__ import annotations

import gc

import pytest

CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    CRITERION_LINES[number] = f"criterion {number:2d}: {status}  {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERION_LINES):
        terminalreporter.write_line(CRITERION_LINES[number])


@pytest.fixture(autouse=True)
def gc_left_enabled():
    yield
    if not gc.isenabled():
        gc.enable()  # so the tests after this one run as usual
        pytest.fail("the test left the cyclic garbage collector disabled")
