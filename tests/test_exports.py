"""Every name a module exports exists on it."""

import importlib
import pkgutil

import thermoadapt


def test_all_names_exist():
    for info in pkgutil.iter_modules(thermoadapt.__path__):
        module = importlib.import_module(f"thermoadapt.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"thermoadapt.{info.name}.__all__ names missing {missing}"
