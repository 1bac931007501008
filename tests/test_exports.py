"""Every name a module exports resolves, so `from orderone.<module> import *`
never meets a stale entry of `__all__`."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["grid_kernel", "operator", "stochastic", "scenarios"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"orderone.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
