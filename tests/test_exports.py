"""The package's export lists name only things that exist."""

import importlib
import pkgutil

import pytest

import primediff

MODULES = ["primediff"] + [
    f"primediff.{info.name}" for info in pkgutil.iter_modules(primediff.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
