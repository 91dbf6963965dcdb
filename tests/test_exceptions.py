"""The exception hierarchy holds no class that no handler tells apart.

Every ``except`` clause under ``src/`` is read with ``ast``: each subclass
of ConfigError or DataError must be caught by name somewhere (else it is a
name only, and its parent serves), and each name a clause catches must be
a builtin exception or a class that ``exceptions.py`` still defines and the
module imports (a stale name fails only once something is raised there).
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

from sca_reco import exceptions
from sca_reco.exceptions import ConfigError, DataError

SRC = Path(__file__).resolve().parents[1] / "src" / "sca_reco"
PACKAGE_ERRORS = {
    name for name, value in vars(exceptions).items() if isinstance(value, type)
}


def caught_names():
    """(name, module path, line, names the module imports from the package's
    exceptions) for each bare name an ``except`` clause under ``src/``
    catches."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("exceptions")
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                for caught in types:
                    if isinstance(caught, ast.Name):
                        yield caught.id, path.relative_to(SRC), node.lineno, imported


def test_every_error_subclass_is_caught_by_name():
    caught = {name for name, *_ in caught_names()}
    subclasses = {
        name
        for name in PACKAGE_ERRORS
        if issubclass(getattr(exceptions, name), (ConfigError, DataError))
        and name not in ("ConfigError", "DataError")
    }
    assert subclasses, "the hierarchy has no subclass to check"
    assert sorted(subclasses - caught) == []


def is_builtin_exception(name: str) -> bool:
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def test_every_caught_name_exists():
    stale = [
        f"{path}:{line}: {name}"
        for name, path, line, imported in caught_names()
        if not ((name in PACKAGE_ERRORS and name in imported) or is_builtin_exception(name))
    ]
    assert stale == []
