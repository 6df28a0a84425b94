"""The package's public names."""
import importlib

import pytest

MODULES = ["aoi", "channel", "engine", "experiments", "mac", "metrics",
           "systems"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ncsim.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
