"""Tooling tests: the benchmark's span tracer can find what it wraps and
sees those functions called, sensing has the one caller it wraps, cells
are written on one path, its buffer subclass still counts spills, and the
reference model stays apart from the production paths it checks."""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from quactrng import build_device, calibrated_variation
from quactrng.entropy import build_sib_plan, characterize
from quactrng.pipeline import ReservedLayout, generate_iteration, stream_bits
from conftest import _callers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def run(monkeypatch):
    """perfbench/run.py, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve(run):
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attribute}"
               for name, owners, _ in run.trace_targets(run.load_program())
               for owner, attribute in owners
               if not hasattr(owner, attribute)]
    assert not missing


def test_trace_targets_are_called(run):
    """Each layer the benchmark reports on is called through the name its
    tracer wraps, so a name kept only as an unused import fails here."""
    p = run.load_program()
    tracer = run.Tracer()
    tracer.install(run.trace_targets(p))
    try:
        device = build_device(variation=calibrated_variation())
        emap = p.entropy.characterize(device, "0111", range(0, 1024, 64))
        plan = p.entropy.build_sib_plan([emap], bins=[(30.0, 90.0)])
        p.pipeline.stream_bits(device, ReservedLayout(), plan, 20_000)
    finally:
        tracer.uninstall()
    calls = {name: n for name, (n, _, _) in tracer.totals().items()}
    expected = [
        "engine.copy_row", "engine.run_quac", "pipeline.generate_iteration",
        "pipeline.sha256_digest", "pipeline.stream_bits",
        "device.sample_sense_amp", "device.decoder_step", "device.write_row",
        "device.segment_params", "device.success_probability", "rng.stream",
        "entropy.characterize", "entropy.bitline_entropy",
        "entropy.build_sib_plan"]
    assert not [name for name in expected if calls.get(name, 0) < 1]


def test_sensing_has_one_caller(package_callers):
    """One function asks for the threshold, draws the raw words and
    compares; the benchmark wraps ``sample_sense_amp`` where it looks it
    up."""
    for callee in ("sense_threshold", "sample_sense_amp"):
        assert package_callers(callee) == {"engine.execute_trace.sense"}


def test_cells_are_written_on_one_path(package_callers):
    """The engine changes a cell only as a trace command, a sense or a row
    copy; the pipeline writes only the source rows it keeps."""
    assert package_callers("write_row") == {
        "engine.execute_trace", "engine.execute_trace.sense",
        "engine.copy_row", "pipeline.ReservedLayout.ensure_sources"}


def test_spill_counting_buffer_counts_spills(run):
    device = build_device(variation=calibrated_variation())
    plan = build_sib_plan([characterize(device, "0111", range(0, 1024, 64))],
                          bins=[(30.0, 90.0)])
    pipeline = run.load_program().pipeline
    buffer = type(run.spill_counting_buffer(pipeline))(capacity_bits=256)
    n_bits = 20_000
    bits, next_iteration = stream_bits(device.fork(), ReservedLayout(), plan,
                                       n_bits, buffer=buffer)
    replay = device.fork()
    words = [w for i in range(next_iteration)
             for w in generate_iteration(replay, ReservedLayout(), plan,
                                         50.0, i)]
    np.testing.assert_array_equal(bits, np.concatenate(words)[:n_bits])
    assert buffer.spilled > 0
    assert buffer.events
    assert all(kind == "refill" for kind, _ in buffer.events)


def test_reference_model_calls_no_production_path():
    """``tests/reference.py`` calls none of the paths it checks, so that one
    fault cannot hide in both; pure helpers such as ``stream``,
    ``decoder_step`` and ``binary_entropy`` stay allowed."""
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    assert not [name for name in (
        "segment_params", "deviation", "deviation_extremes",
        "sense_threshold", "raw_threshold", "sample_sense_amp",
        "success_probability", "_saturated_probability", "bitline_entropy",
        "execute_trace", "run_quac", "copy_row", "characterize")
        if _callers(tree, name)]
