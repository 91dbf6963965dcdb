"""Every exported name resolves, so a removed function leaves no dangling
export, and importing the package or its corpus generator loads no numpy."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sca_reco


@pytest.mark.parametrize("module_name", ["sca_reco", "sca_reco.estimators"])
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(module.__all__) == len(set(module.__all__))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        sca_reco.no_such_name  # noqa: B018


@pytest.mark.parametrize("module_name", ["sca_reco", "sca_reco.synth"])
def test_import_loads_no_numpy(module_name):
    source_root = str(Path(sca_reco.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    probe = f"import sys, {module_name}; assert 'numpy' not in sys.modules"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
