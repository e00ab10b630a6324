"""The package's public names: every export resolves, and the package
republishes each module's list once."""

import importlib
import itertools
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


# The modules `lcco_ipm/__init__.py` republishes, in its import order.
REPUBLISHED = ["centralpath", "newton", "problem", "solver", "verifier"]


def test_package_exports_are_the_module_lists_in_import_order():
    lists = [importlib.import_module(f"lcco_ipm.{name}").__all__ for name in REPUBLISHED]
    assert lcco_ipm.__all__ == [*itertools.chain(*lists), "__version__"]


def test_no_name_is_exported_by_two_republished_modules():
    # A wildcard import of two modules that export one name would silently
    # publish only the later one's.
    owners = {}
    for name in REPUBLISHED:
        for export in importlib.import_module(f"lcco_ipm.{name}").__all__:
            owners.setdefault(export, []).append(name)
    assert {export: names for export, names in owners.items() if len(names) > 1} == {}
