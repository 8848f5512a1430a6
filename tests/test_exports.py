"""Every name a package exports resolves, so a deleted public name cannot linger in an export list."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["kvcompactor", "kvcompactor.harness"])
def test_star_import_binds_every_exported_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)  # raises AttributeError for a listed name the package lacks
    exported = importlib.import_module(package).__all__
    assert len(set(exported)) == len(exported)
    assert set(namespace) - {"__builtins__"} == set(exported)
