"""The benchmark's trace plan finds every name it wraps.

perfbench/bench_trace.py wraps each layer's functions at the names their
callers look them up under, through owner.__dict__. A binding the program
drops would otherwise surface only as a KeyError in a traced benchmark run.
"""
import importlib.util
import os
import sys

import physec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_trace(monkeypatch):
    path = os.path.join(ROOT, "perfbench", "bench_trace.py")
    spec = importlib.util.spec_from_file_location("_physec_bench_trace", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_is_in_its_owner(monkeypatch):
    plan = _bench_trace(monkeypatch).trace_plan(physec)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in plan
        if attr not in owner.__dict__
    ]
    assert plan
    assert missing == []
