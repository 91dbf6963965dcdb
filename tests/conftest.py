"""Shared pytest wiring.

The acceptance module registers one outcome per criterion; the terminal
summary hook below prints them as a single pass/fail line each, so the
result survives pytest's output capturing.  An autouse fixture checks that
every tree and forest a test fits, alone or in a batch, encodes to the bytes
``json.dumps`` gives; another fails a test that leaves the cyclic garbage
collector disabled.
"""

from __future__ import annotations

import gc

import pytest

from helpers import reference_dumps
from sca_reco.core import encode_json
from sca_reco.estimators import DecisionTreeClassifier, forest
from sca_reco.recommend import ESTIMATORS, ModelKind

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


def _check_encoding(fitted) -> None:
    state = fitted.get_fitted_state()
    assert encode_json(state) == reference_dumps(state)


def _checked_fit(fit):
    def wrapper(self, *args, **kwargs):
        fitted = fit(self, *args, **kwargs)
        _check_encoding(fitted)
        return fitted

    return wrapper


def _checked_batch_fit(fit_batch):
    def wrapper(*args, **kwargs):
        for fitted in fit_batch(*args, **kwargs):
            _check_encoding(fitted)
            yield fitted

    return wrapper


@pytest.fixture(autouse=True)
def tree_states_encode_like_json_dumps(monkeypatch):
    monkeypatch.setattr(DecisionTreeClassifier, "fit", _checked_fit(DecisionTreeClassifier.fit))
    # every forest, alone or in a batch, is fitted by fit_forests
    checked = _checked_batch_fit(forest.fit_forests)
    monkeypatch.setattr(forest, "fit_forests", checked)
    monkeypatch.setitem(ESTIMATORS, ModelKind.RF, (*ESTIMATORS[ModelKind.RF][:2], checked))


@pytest.fixture(autouse=True)
def gc_left_enabled():
    yield
    if not gc.isenabled():
        gc.enable()  # so the tests after this one run as usual
        pytest.fail("the test left the cyclic garbage collector disabled")
