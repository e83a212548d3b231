"""The export lists: a name deleted from a module but left in its
``__all__`` fails here, not at a user's ``import *``."""

import importlib
import pkgutil

import pytest

import proxqn

MODULES = [info.name for info in pkgutil.iter_modules(proxqn.__path__)]


def test_the_package_has_modules_with_export_lists():
    exporting = [name for name in MODULES if hasattr(
        importlib.import_module(f"proxqn.{name}"), "__all__")]
    assert {"scaled", "validate", "solver", "metric", "prox"} <= set(exporting)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(f"proxqn.{name}")
    namespace = {}
    exec(f"from proxqn.{name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
