"""Public API bookkeeping: every exported name resolves, and the package's ``__all__``
lists exactly what ``roughvol/__init__.py`` re-exports, so a deleted name cannot linger
in an export list."""
import ast
import importlib
import inspect
import pkgutil

import pytest

import roughvol

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(roughvol.__path__))


def _reexports() -> dict[str, str]:
    """Name -> submodule of every ``from .submodule import name`` in ``__init__``."""
    tree = ast.parse(inspect.getsource(roughvol))
    return {alias.asname or alias.name: node.module
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_package_all_resolves_without_duplicates():
    assert len(roughvol.__all__) == len(set(roughvol.__all__))
    missing = [name for name in roughvol.__all__ if not hasattr(roughvol, name)]
    assert missing == []


def test_package_all_equals_reexports():
    assert set(roughvol.__all__) == set(_reexports()) | {"__version__"}


def test_reexports_are_public_in_their_submodule():
    stray = [(name, module) for name, module in _reexports().items()
             if name not in importlib.import_module(f"roughvol.{module}").__all__]
    assert stray == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"roughvol.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
