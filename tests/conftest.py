"""Shared pytest wiring.

The acceptance module registers one outcome per criterion; the terminal
summary hook below prints them as a single pass/fail line each, so the
result survives pytest's output capturing.  An autouse fixture checks that
every tree and forest a test fits encodes to the bytes ``json.dumps`` gives.
"""

from __future__ import annotations

import pytest

from helpers import reference_dumps
from sca_reco.core import encode_json
from sca_reco.estimators import DecisionTreeClassifier, RandomForestClassifier

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


def _checked_fit(fit):
    def wrapper(self, *args, **kwargs):
        fitted = fit(self, *args, **kwargs)
        state = fitted.get_fitted_state()
        assert encode_json(state) == reference_dumps(state)
        return fitted

    return wrapper


@pytest.fixture(autouse=True)
def tree_states_encode_like_json_dumps(monkeypatch):
    for estimator_class in (DecisionTreeClassifier, RandomForestClassifier):
        monkeypatch.setattr(estimator_class, "fit", _checked_fit(estimator_class.fit))
