"""Command engine tests: quadruple activation, row copy, trace execution."""

import numpy as np
import pytest

from quactrng.config import ConfigError, SegmentAddress, TimingParams
from quactrng.device import build_device
from quactrng.engine import (Command, TimingViolation, copy_row,
                             execute_trace, run_quac)
from quactrng import calibrated_variation


@pytest.fixture()
def device():
    return build_device(variation=calibrated_variation())


SEG = SegmentAddress(0, 0, 3)


def test_run_quac_returns_bits_and_restores_rows(device):
    bits = run_quac(device, SEG, pattern="0111")
    assert bits.shape == (65536,)
    assert set(np.unique(bits)) <= {0, 1}
    # the sensed value is restored into all four rows
    for row in SEG.rows:
        np.testing.assert_array_equal(
            device.read_cells(0, 0, row), bits.astype(np.float32))


def test_run_quac_deterministic(device):
    a = run_quac(device, SEG, pattern="0111", experiment_seed=5)
    b = run_quac(device.fork(), SEG, pattern="0111", experiment_seed=5)
    np.testing.assert_array_equal(a, b)


def test_run_quac_seed_changes_output(device):
    a = run_quac(device, SEG, pattern="0111", experiment_seed=1)
    b = run_quac(device.fork(), SEG, pattern="0111", experiment_seed=2)
    assert not np.array_equal(a, b)


def test_run_quac_best_patterns_leave_residual_randomness(device):
    """The two near-balanced patterns sit a few noise sigmas off center:
    strongly skewed means, but with a random minority component (unlike
    the fully saturated fills).
    """
    low = run_quac(device, SEG, pattern="0111").mean()
    high = run_quac(device.fork(), SEG, pattern="1000").mean()
    assert 0.0 < low < 0.05
    assert 0.95 < high < 1.0


def test_run_quac_saturated_pattern(device):
    assert run_quac(device, SEG, pattern="1111").mean() > 0.99
    assert run_quac(device, SEG, pattern="0000").mean() < 0.01


def test_run_quac_rejects_legal_timing(device):
    with pytest.raises(TimingViolation, match="no QUAC under legal timings"):
        run_quac(device, SEG, pattern="0111", t1=device.timings.tRAS)
    with pytest.raises(TimingViolation):
        run_quac(device, SEG, pattern="0111", t2=device.timings.tRP)


def test_run_quac_symmetric_first_row(device):
    # starting from row 1 mirrors the row-0 sequence when the pattern
    # places its lone 0 in row 1 instead of row 0
    bits = run_quac(device, SEG, pattern="1011", first_row=1)
    assert 0.0 < bits.mean() < 0.05


def test_copy_row_copies_and_checks_subarray(device):
    device.write_row(0, 0, 8, 1)
    copy_row(device, 0, 0, 8, 9)
    np.testing.assert_array_equal(device.read_cells(0, 0, 9),
                                  device.read_cells(0, 0, 8))
    with pytest.raises(ConfigError, match="cross-subarray"):
        copy_row(device, 0, 0, 8, 600)


def test_copy_row_reserved_guard(device):
    device.write_row(0, 0, 8, 1)
    with pytest.raises(ConfigError, match="reserved source row"):
        copy_row(device, 0, 0, 8, 10, reserved_rows=(10,))


def test_execute_trace_quac_core(device):
    t = device.timings
    cmds = [
        Command(0.0, "WRITE_ROW", 0, 0, (12, 0)),
        Command(100.0, "WRITE_ROW", 0, 0, (13, 1)),
        Command(200.0, "WRITE_ROW", 0, 0, (14, 1)),
        Command(300.0, "WRITE_ROW", 0, 0, (15, 1)),
        Command(400.0, "ACT", 0, 0, (12,)),
        Command(402.5, "PRE", 0, 0),
        Command(405.0, "ACT", 0, 0, (15,)),
        Command(405.0 + t.tRCD, "READ_BLOCK", 0, 0, (0,)),
        Command(500.0, "PRE", 0, 0),
    ]
    result = execute_trace(device, cmds)
    assert len(result.payloads) == 1
    assert result.payloads[0].shape == (512,)
    # the second ACT must report all four rows open
    act_outcomes = [a for _, k, a in result.outcomes if k == "ACT"]
    assert act_outcomes[1] == frozenset({12, 13, 14, 15})
    # final PRE (after tRAS) closes the segment
    assert result.outcomes[-1][2] == frozenset()


def test_execute_trace_bus_accounting(device):
    """Hand-computed bus occupancy: 2 writes (slot + 128 bursts each),
    1 ACT + 1 PRE (one slot each), 3 block reads (slot + burst each).
    """
    t = device.timings
    cmds = [
        Command(0.0, "WRITE_ROW", 1, 0, (0, 0)),
        Command(500.0, "WRITE_ROW", 1, 0, (1, 1)),
        Command(1000.0, "ACT", 1, 0, (0,)),
        Command(1000.0 + t.tRCD, "READ_BLOCK", 1, 0, (0,)),
        Command(1020.0 + t.tRCD, "READ_BLOCK", 1, 0, (1,)),
        Command(1040.0 + t.tRCD, "READ_BLOCK", 1, 0, (2,)),
        Command(1100.0, "PRE", 1, 0),
    ]
    result = execute_trace(device, cmds)
    expected = 2 * (t.slot_time + 128 * t.burst_time) \
        + 2 * t.slot_time + 3 * (t.slot_time + t.burst_time)
    assert result.bus_busy_ns == pytest.approx(expected)


def test_execute_trace_read_guards(device):
    with pytest.raises(TimingViolation, match="no open row"):
        execute_trace(device, [Command(0.0, "READ_BLOCK", 0, 0, (0,))])
    cmds = [Command(0.0, "ACT", 0, 0, (0,)),
            Command(1.0, "READ_BLOCK", 0, 0, (0,))]
    with pytest.raises(TimingViolation, match="before tRCD"):
        execute_trace(device, cmds)


def test_execute_trace_requires_increasing_times(device):
    cmds = [Command(10.0, "ACT", 0, 0, (0,)),
            Command(10.0, "PRE", 0, 0)]
    with pytest.raises(TimingViolation, match="strictly increasing"):
        execute_trace(device, cmds)


def test_single_row_activation_reads_back_written_data(device):
    """A nominal activate of a fully written row senses the stored data
    exactly (deviations are far outside the noise).
    """
    t = device.timings
    device.write_row(0, 0, 40, 1)
    cmds = [Command(0.0, "ACT", 0, 0, (40,)),
            Command(t.tRCD, "READ_BLOCK", 0, 0, (5,))]
    result = execute_trace(device, cmds)
    np.testing.assert_array_equal(result.payloads[0], np.ones(512, np.uint8))


def test_trace_result_serialization(device):
    t = device.timings
    device.write_row(0, 0, 0, 1)
    cmds = [Command(0.0, "ACT", 0, 0, (0,)),
            Command(t.tRCD, "READ_BLOCK", 0, 0, (0,))]
    d = execute_trace(device, cmds).to_dict()
    assert d["reads"] == 1
    assert d["payload_bits"] == 512
    assert d["outcomes"][0]["active_rows"] == [0]
