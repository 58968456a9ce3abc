"""Command engine tests: quadruple activation, row copy, trace execution."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quactrng.config import ConfigError, SegmentAddress, TimingParams
from quactrng import device as device_module
from quactrng import engine
from quactrng.device import DecoderError, build_device, sample_sense_amp
from quactrng.engine import (Command, TimingViolation,
                             copy_row,
                             execute_trace, run_quac)
from quactrng import calibrated_variation
from quactrng.entropy import characterize
from quactrng.pipeline import (ReservedLayout, RngBuffer, generate_iteration,
                               stream_bits)
from reference import SMALL, Reference, quac_commands


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


def test_run_quac_rejects_legal_timing():
    # on these devices a 2.5 ns ACT->PRE or PRE->ACT gap is legal
    for timings in (TimingParams(tRAS=2.5), TimingParams(tRP=2.5)):
        device = build_device(timings=timings,
                              variation=calibrated_variation())
        with pytest.raises(TimingViolation,
                           match="no QUAC under legal timings"):
            run_quac(device, SEG, pattern="0111")


def test_run_quac_symmetric_first_row(device):
    # starting from row 1 mirrors the row-0 sequence when the pattern
    # places its lone 0 in row 1 instead of row 0
    result = execute_trace(device, quac_trace(device, SEG, "1011", 1))
    assert 0.0 < result.payload_bits().mean() < 0.05


def test_copy_row_copies_and_checks_subarray(device):
    device.write_row(0, 0, 8, 1)
    copy_row(device, 0, 0, 8, 9)
    np.testing.assert_array_equal(device.read_cells(0, 0, 9),
                                  device.read_cells(0, 0, 8))
    with pytest.raises(ConfigError, match="cross-subarray"):
        copy_row(device, 0, 0, 8, 600)


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


def test_execute_trace_rejects_block_outside_row(device):
    t = device.timings
    for block in (device.geometry.blocks_per_row, -1):
        cmds = [Command(0.0, "ACT", 0, 0, (40,)),
                Command(t.tRCD, "READ_BLOCK", 0, 0, (block,))]
        with pytest.raises(ConfigError,
                           match=f"READ_BLOCK at .* block {block} outside"):
            execute_trace(device.fork(), cmds)


@pytest.mark.parametrize("cmds,match", [
    ([Command(0.0, "ACT", 0, 0, (32769,)),
      Command(100.0, "READ_BLOCK", 0, 0, (0,))],
     r"ACT at 0.0 ns: row 32769 outside the bank's 32768 rows"),
    ([Command(0.0, "WRITE_ROW", 0, 0, (32768, 1))], r"WRITE_ROW .* row 32768"),
    ([Command(0.0, "COPY_ROW", 0, 0, (-4, -3))], r"COPY_ROW .* row -4"),
    ([Command(0.0, "COPY_ROW", 0, 0, (4, -3))], r"COPY_ROW .* row -3"),
    ([Command(0.0, "ACT", 9, 7, (12,)),
      Command(100.0, "READ_BLOCK", 9, 7, (0,))],
     r"ACT at 0.0 ns: bank \(9, 7\) outside the 4x4 banks"),
    ([Command(0.0, "PRE", 0, 4)], r"PRE .* bank \(0, 4\)"),
    ([Command(0.0, "READ_BLOCK", -1, 0, (0,))], r"READ_BLOCK .* bank \(-1, 0\)"),
], ids=["act-row", "write-row", "copy-src", "copy-dst", "act-bank", "pre-bank",
        "read-bank-group"])
def test_execute_trace_rejects_address_outside_geometry(device, cmds, match):
    with pytest.raises(ConfigError, match=match):
        execute_trace(device, cmds)


@pytest.mark.parametrize("segment", [SegmentAddress(4, 0, 3),
                                     SegmentAddress(0, 0, 8192)])
def test_run_quac_rejects_segment_outside_geometry_before_writing(
        device, segment):
    with pytest.raises(ConfigError, match="WRITE_ROW at 0.0 ns"):
        run_quac(device, segment, pattern="0111")
    assert device.row_fill(segment.bank_group, 0, segment.base_row) == 0.5


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


def test_read_senses_rows_left_open_by_earlier_trace(device):
    """A READ on rows an earlier trace opened senses them as a READ in that
    trace does: rows 40-43 hold (1, 0, 0, 0) and open with row 43 first."""
    quac = quac_commands(SegmentAddress(0, 0, 10), "1000", 3, 0)
    read = Command(9.0 + device.timings.tRCD, "READ_BLOCK", 0, 0, (5,))
    expected = execute_trace(device.fork(), quac + [read])
    execute_trace(device, quac)
    result = execute_trace(device, [read])
    np.testing.assert_array_equal(result.payloads[0], expected.payloads[0])
    assert len(result.sensed) == 1 and expected.payloads[0].sum() == 0


def test_run_quac_follows_rows_left_open(device):
    execute_trace(device, [Command(0.0, "ACT", 0, 0, (40,))])
    with pytest.raises(DecoderError, match="cross-segment"):
        run_quac(device, SEG, pattern="0111")
    # a row of the same segment stays latched and stays the first row
    other = device.fork()
    ref = Reference(device.geometry, device.timings, device.variation)
    left_open = [Command(0.0, "ACT", 0, 0, (SEG.base_row + 1,))]
    execute_trace(other, left_open)
    ref.run(left_open)
    np.testing.assert_array_equal(run_quac(other, SEG, pattern="0111"),
                                  ref.quac(SEG, "0111"))
    assert other.decoder(0, 0).active_rows() == frozenset()


def quac_trace(device, segment, pattern, first_row=0, start=0.0):
    """One QUAC as a trace: the commands of ``quac_commands`` with the
    second ACT on the complement row, a READ_BLOCK of every block of the
    row, and a closing PRE."""
    bg, bank = segment.bank_group, segment.bank
    cmds = quac_commands(segment, pattern, first_row, 3 - first_row, start)
    read = cmds[-1].issue_time + device.timings.tRCD
    blocks = device.geometry.blocks_per_row
    cmds += [Command(read + b, "READ_BLOCK", bg, bank, (b,))
             for b in range(blocks)]
    # tRAS after the last read, so the PRE closes the rows on any geometry
    cmds.append(Command(read + blocks + device.timings.tRAS, "PRE", bg, bank))
    return cmds


@pytest.mark.parametrize("first_row", [0, 1])
def test_trace_quac_matches_run_quac(device, first_row):
    """Reading every block returns the bits the closing PRE senses when no
    block is read; with row 0 first, those are run_quac's bits."""
    cmds = quac_trace(device, SEG, "0111", first_row)
    unread = [c for c in cmds if c.kind != "READ_BLOCK"]
    (_, _, closed), = execute_trace(device.fork(), unread).sensed
    if first_row == 0:
        np.testing.assert_array_equal(
            closed, run_quac(device.fork(), SEG, pattern="0111"))
    result = execute_trace(device, cmds)
    np.testing.assert_array_equal(result.payload_bits(), closed)
    assert device.decoder(0, 0).active_rows() == frozenset()


def test_two_trace_quacs_of_one_segment_differ(device):
    cmds = quac_trace(device, SEG, "0111") \
        + quac_trace(device, SEG, "0111", start=1000.0)
    result = execute_trace(device, cmds)
    bits = result.payload_bits().reshape(2, -1)
    assert len(result.sensed) == 2
    # the same fills on a restarted stream would give the same bits
    assert not np.array_equal(bits[0], bits[1])


def test_trace_quac_senses_once(device, monkeypatch):
    calls = []

    def counting(threshold, raw):
        calls.append(len(raw))
        return sample_sense_amp(threshold, raw)

    monkeypatch.setattr(engine, "sample_sense_amp", counting)
    execute_trace(device, quac_trace(device, SEG, "0111"))
    assert calls == [device.geometry.bitlines_per_row]


# ---------------------------------------------------------------------------
# constant-fill sensing thresholds
# ---------------------------------------------------------------------------

@pytest.fixture()
def threshold_computations(monkeypatch):
    """The P(1) rows turned into sensing thresholds, counted by wrapping
    ``device.raw_threshold``."""
    calls = []

    def counting(p_one):
        calls.append(np.shape(p_one))
        return raw_threshold(p_one)

    raw_threshold = device_module.raw_threshold
    monkeypatch.setattr(device_module, "raw_threshold", counting)
    return calls


def test_refills_at_one_temperature_compute_one_threshold_per_bank(
        device, plan, threshold_computations):
    buffer = RngBuffer(capacity_bits=2048)
    stream_bits(device, ReservedLayout(), plan, 20_000, buffer=buffer)
    assert len(buffer.events) > 2
    assert len(threshold_computations) == len(ReservedLayout().banks)


def test_new_temperatures_compute_one_threshold_per_bank_each(
        device, plan, threshold_computations):
    temperatures = [40.0, 40.5, 41.0, 41.5]
    for iteration, temperature in enumerate(temperatures):
        generate_iteration(device, ReservedLayout(), plan, temperature,
                           iteration)
    assert len(threshold_computations) == \
        len(temperatures) * len(ReservedLayout().banks)


def test_exact_characterization_computes_one_threshold_per_segment(
        device, threshold_computations):
    characterize(device, "0111", range(3), trials=5, method="exact")
    assert len(threshold_computations) == 3


def test_sensed_row_is_shared_and_read_only(device):
    run_quac(device, SEG, pattern="0111")
    rows = [device.read_cells(0, 0, row) for row in SEG.rows]
    assert all(r is rows[0] for r in rows)
    before = rows[0].copy()
    with pytest.raises(ValueError, match="read-only"):
        rows[0][:] = 1.0
    np.testing.assert_array_equal(device.read_cells(0, 0, SEG.rows[1]), before)


# ---------------------------------------------------------------------------
# random command traces
# ---------------------------------------------------------------------------

TRACE_ERRORS = (TimingViolation, DecoderError, ConfigError, ValueError)
# -1 and rows_per_bank lie outside the bank
rows = st.integers(0, 3) | st.integers(-1, SMALL.rows_per_bank)
# (bank group, bank); the last three lie outside the SMALL device
banks = st.sampled_from([(0, 0), (1, 0)] * 8 + [(2, 0), (0, 1), (-1, 0)])
trace_steps = st.tuples(
    st.sampled_from(["ACT", "PRE", "READ_BLOCK", "WRITE_ROW", "COPY_ROW"]),
    banks,
    st.sampled_from([2.5, 13.5, 32.0]) | st.floats(0.0, 60.0),  # gap
    rows,                                    # ACT, WRITE_ROW and COPY_ROW row
    rows,                                    # COPY_ROW destination
    st.sampled_from(range(-1, SMALL.blocks_per_row + 1)),  # READ_BLOCK block
    st.sampled_from([0, 1, 0.5]),            # WRITE_ROW fill
)


def outside_geometry(cmd):
    """Whether the command names a bank, row or block the SMALL device
    lacks."""
    rows = {"ACT": cmd.args[:1], "WRITE_ROW": cmd.args[:1],
            "COPY_ROW": cmd.args}.get(cmd.kind, ())
    return not (0 <= cmd.bank_group < SMALL.bank_groups
                and 0 <= cmd.bank < SMALL.banks_per_group) \
        or any(not 0 <= r < SMALL.rows_per_bank for r in rows) \
        or cmd.kind == "READ_BLOCK" \
        and not 0 <= cmd.args[0] < SMALL.blocks_per_row


@given(st.lists(trace_steps, min_size=8, max_size=32))
@example([("WRITE_ROW", (0, 0), 1.0, 0, 0, 0, 0),
          ("ACT", (0, 0), 1.0, 0, 0, 0, 0),
          ("PRE", (0, 0), 2.5, 0, 0, 0, 0),
          ("ACT", (0, 0), 2.5, 3, 0, 0, 0),                            # QUAC
          ("READ_BLOCK", (0, 0), 13.5, 0, 0, 3, 0),
          ("PRE", (0, 0), 2.5, 0, 0, 0, 0),                            # early
          ("READ_BLOCK", (0, 0), 2.5, 0, 0, 4, 0),
          ("PRE", (0, 0), 32.0, 0, 0, 0, 0)])
@example([("ACT", (0, 0), 1.0, SMALL.rows_per_bank, 0, 0, 0),
          ("COPY_ROW", (0, 0), 1.0, 4, -1, 0, 0),
          ("WRITE_ROW", (1, 0), 1.0, -1, 0, 0, 0),
          ("ACT", (2, 0), 1.0, 0, 0, 0, 0),
          ("READ_BLOCK", (0, 1), 1.0, 0, 0, 0, 0),
          ("PRE", (-1, 0), 1.0, 0, 0, 0, 0),
          ("COPY_ROW", (1, 0), 1.0, 4, 5, 0, 0),
          ("ACT", (1, 0), 1.0, 4, 0, 0, 0),
          ("READ_BLOCK", (1, 0), 13.5, 0, 0, -1, 0),
          ("READ_BLOCK", (1, 0), 1.0, 0, 0, SMALL.blocks_per_row, 0)])
@settings(max_examples=100, deadline=None)
def test_random_traces_keep_invariants(steps):
    """Every trace raises one of TRACE_ERRORS or keeps the invariants. The
    trace is grown one generated command at a time; a command that makes
    it raise is dropped, and the invariants are checked on what is kept. A
    command outside the geometry must raise ConfigError."""
    device = build_device(SMALL, variation=calibrated_variation())
    t = device.timings
    clock, cmds = {}, []
    for kind, (bg, bank), gap, row, dst, block, fill in steps:
        clock[bg, bank] = clock.get((bg, bank), 0.0) + gap
        args = {"ACT": (row,), "PRE": (), "READ_BLOCK": (block,),
                "WRITE_ROW": (row, fill), "COPY_ROW": (row, dst)}[kind]
        cmd = Command(clock[bg, bank], kind, bg, bank, args)
        try:
            execute_trace(device.fork(), cmds + [cmd])
        except TRACE_ERRORS as exc:
            assert isinstance(exc, ConfigError) or not outside_geometry(cmd)
            continue
        assert not outside_geometry(cmd)
        cmds.append(cmd)
    result = execute_trace(device, cmds)

    cb = SMALL.cache_block_bits
    last_act, open_rows = {}, {}
    payloads = iter(result.payloads)
    assert len(result.outcomes) == len(cmds)
    for cmd, (time, kind, active) in zip(cmds, result.outcomes):
        bank = (cmd.bank_group, cmd.bank)
        if kind in ("ACT", "PRE"):
            assert len({r // 4 for r in active}) <= 1
        if kind == "ACT":
            if not open_rows.get(bank):
                assert len(active) == 1     # legal timing opens one row
            last_act[bank] = time
            open_rows[bank] = active
        elif kind == "PRE":
            if time - last_act.get(bank, -np.inf) >= t.tRAS:
                assert active == frozenset()
            open_rows[bank] = active
        elif kind == "READ_BLOCK":
            senses = [bits for when, key, bits in result.sensed
                      if key == bank and last_act[bank] < when <= time]
            assert len(senses) == 1
            block = cmd.args[0]
            np.testing.assert_array_equal(
                next(payloads), senses[0][block * cb:(block + 1) * cb])
        elif kind == "COPY_ROW":
            src, dst = cmd.args
            assert SMALL.subarray_of_row(src) == SMALL.subarray_of_row(dst)
