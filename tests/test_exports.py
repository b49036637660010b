"""Public API bookkeeping: the package's ``__all__`` is ``__version__`` plus the
``__all__`` of each library submodule, and every package name is the object its
submodule exports, so a name cannot be public in one place and missing in the other."""
import importlib
import pkgutil

import pytest

import roughvol

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(roughvol.__path__))
#: the console entry point imports the library and is not re-exported by it
LIBRARY = [name for name in SUBMODULES if name != "cli"]


def _submodule_names() -> dict[str, str]:
    """Name -> library submodule, for each name in a library submodule's ``__all__``."""
    return {name: module for module in LIBRARY
            for name in importlib.import_module(f"roughvol.{module}").__all__}


def test_package_all_resolves_without_duplicates():
    assert len(roughvol.__all__) == len(set(roughvol.__all__))
    missing = [name for name in roughvol.__all__ if not hasattr(roughvol, name)]
    assert missing == []


def test_package_all_equals_reexports():
    declared = [name for module in LIBRARY
                for name in importlib.import_module(f"roughvol.{module}").__all__]
    assert len(declared) == len(set(declared))
    assert set(roughvol.__all__) == set(declared) | {"__version__"}


def test_reexports_are_public_in_their_submodule():
    stray = [(name, module) for name, module in _submodule_names().items()
             if getattr(roughvol, name)
             is not getattr(importlib.import_module(f"roughvol.{module}"), name)]
    assert stray == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"roughvol.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
