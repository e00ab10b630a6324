"""The package's public names: every export resolves."""

import importlib
import pkgutil

import pytest

import lcco_ipm

MODULES = [info.name for info in pkgutil.iter_modules(lcco_ipm.__path__)]


def test_every_package_export_resolves():
    missing = [name for name in lcco_ipm.__all__ if not hasattr(lcco_ipm, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"lcco_ipm.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
