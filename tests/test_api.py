"""Every exported name resolves, so a removed function leaves no dangling export."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["sca_reco", "sca_reco.estimators"])
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(module.__all__) == len(set(module.__all__))
