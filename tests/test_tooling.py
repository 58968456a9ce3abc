"""Tooling tests: the benchmark's span tracer can find what it wraps."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_targets_resolve(monkeypatch):
    # import perfbench/run.py without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attribute}"
               for name, owners, _ in run.trace_targets(run.load_program())
               for owner, attribute in owners
               if not hasattr(owner, attribute)]
    assert not missing
