"""Every module's `__all__` names only what the module defines."""

import importlib
import pkgutil

import pytest

import voxseg

MODULES = sorted(info.name for info in pkgutil.iter_modules(voxseg.__path__))


def test_modules_are_found():
    assert {"autodiff", "cli", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"voxseg.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
