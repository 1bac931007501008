"""The benchmark's tracer wraps `orderone` functions by name: every name it
lists must still resolve, or `perfbench/run.py --trace 1` stops at a
missing attribute."""

import importlib
import importlib.util
import os
import sys

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _spans(monkeypatch):
    """perfbench/spans.py, loaded from its file without writing a bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    spans = _spans(monkeypatch)
    names = [(layer, fname) for layer, fnames in spans.LAYER_FUNCTIONS.items()
             for fname in fnames]
    assert names
    missing = [f"{layer}.{fname}" for layer, fname in names
               if not callable(getattr(importlib.import_module(f"orderone.{layer}"), fname, None))]
    assert missing == []
    for module in spans.ORDERONE_MODULES:
        importlib.import_module(module)
    functional = importlib.import_module("orderone.stochastic").TestFunctional
    assert callable(functional.evaluate)

