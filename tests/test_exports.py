"""Every exported name of the package and of its modules resolves."""

import importlib
import pkgutil

import pytest

import stlfunnel

MODULES = ["stlfunnel"] + sorted(
    info.name for info in pkgutil.iter_modules(stlfunnel.__path__, "stlfunnel.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
