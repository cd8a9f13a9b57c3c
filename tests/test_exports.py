"""Every name a gnsflow module lists in __all__ resolves on that module."""

import importlib
import pkgutil

import pytest

import gnsflow


def modules_with_all():
    names = ["gnsflow"] + [f"gnsflow.{info.name}"
                           for info in pkgutil.iter_modules(gnsflow.__path__)]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("module_name", modules_with_all())
def test_every_all_entry_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
