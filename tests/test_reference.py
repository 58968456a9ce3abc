"""Random sequences of row writes and copies, QUACs, traces, thresholds,
characterizations and forks give the same bytes on production and on the
reference model after every step. The alphabets are small, so that each
fast path's key meets the same segment, fills and temperature again."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quactrng import build_device, calibrated_variation
from quactrng import device as device_module
from quactrng.config import SegmentAddress as Seg
from quactrng.device import DecoderError, raw_threshold
from quactrng.engine import Command, TimingViolation, execute_trace, run_quac
from quactrng.entropy import characterize
from reference import SMALL, Reference, quac_commands

# "0111" and "1000" leave bitlines random on the calibrated device, so
# sensing keys that differ give other bytes; "1011" and "0100" saturate
PATTERNS = st.sampled_from(["0111", "1000", None])
TEMPERATURES = st.sampled_from([50.0, 90.0])
SEGMENTS = st.builds(Seg, st.integers(0, 1), st.just(0), st.integers(0, 1))
ROWS = st.integers(0, 7)            # the rows of segments 0 and 1
STEPS = st.one_of(
    st.tuples(st.just("WRITE_ROW"), st.integers(0, 1), ROWS,
              st.sampled_from([0, 1, 0.5, 0.3])
              | st.integers(0, 99).map(lambda seed: ("bits", seed))),
    st.tuples(st.just("COPY_ROW"), st.integers(0, 1), ROWS, ROWS),
    st.tuples(st.just("quac"), SEGMENTS, PATTERNS, st.integers(0, 2),
              TEMPERATURES),
    st.tuples(st.just("trace"), SEGMENTS, PATTERNS,
              st.sampled_from([None, 0, 1, 2, 3]), st.integers(0, 3),
              st.lists(st.integers(0, SMALL.blocks_per_row - 1), max_size=3),
              st.booleans(), st.integers(0, 2), TEMPERATURES),
    st.tuples(st.just("threshold"), st.integers(0, 1), st.sampled_from(
        [(0,), (0, 1), (0, 1, 2, 3), (4, 5, 6, 7)]), st.integers(0, 3),
        TEMPERATURES),
    st.tuples(st.just("characterize"),
              st.sampled_from(["0111", "1000", "1011", "0100"]),
              st.lists(st.builds(Seg, st.integers(0, 1), st.just(0),
                                 st.integers(0, 3)), min_size=1, max_size=3),
              st.integers(2, 4), st.sampled_from([30.0, 90.0, 650.0, -550.0]),
              st.sampled_from(["binomial", "analytic", "exact"])),
    st.just(("fork",)))
PROFILES = st.builds(
    replace, st.builds(calibrated_variation, st.integers(0, 3)),
    thermal_noise_sigma=st.sampled_from([0.02, 0.002, 0.2]),
    sa_offset_sigma=st.sampled_from([0.02, 0.0, 0.2]),
    column_sigma_wave_amplitude=st.sampled_from([0.0, 0.3]),
    segment_weight_jitter_sigma=st.sampled_from([0.004, 0.0]),
    later_row_weight=st.sampled_from([1, 1.0]))


def calls(step, device, ref, start):
    """The production and the reference call of one step."""
    kind, *args = step
    if kind == "quac":
        return lambda: run_quac(device, *args), lambda: ref.quac(*args)
    if kind == "characterize":
        return (lambda: characterize(device, *args).bitline,
                lambda: ref.entropy_map(*args))
    if kind == "threshold":     # open rows, the first of them, temperature
        bg, rows, first, temperature = args
        sense = (bg, 0, rows, rows[first % len(rows)], temperature)
        return (lambda: device.sense_threshold(*sense),
                lambda: raw_threshold(ref.p_one(*sense)))
    if kind == "trace":     # a QUAC in any ACT order, or none, and reads
        segment, pattern, first, second, blocks, close, seed, temperature = \
            args
        bg, read = segment.bank_group, start + 9.0 + device.timings.tRCD
        cmds = [] if first is None else \
            quac_commands(segment, pattern, first, second, start)
        cmds += [Command(read + i, "READ_BLOCK", bg, 0, (b,))
                 for i, b in enumerate(blocks)]
        if close:           # past the reads and tRAS
            cmds.append(Command(read + 99.0, "PRE", bg, 0))
    else:                   # a WRITE_ROW or a COPY_ROW
        (bg, row, value), seed, temperature = args, 0, 50.0
        if isinstance(value, tuple):
            value = np.random.default_rng(value[1]).integers(
                0, 2, SMALL.bitlines_per_row) * 1.0
        cmds = [Command(start, kind, bg, 0, (row, value))]
    return (lambda: execute_trace(device, cmds, seed, temperature).payloads,
            lambda: ref.run(cmds, seed, temperature)[0])


def outcome(call):
    """The bytes a call gives, or "error" where it raises."""
    try:
        return np.asarray(call()).tobytes()
    except (DecoderError, TimingViolation, KeyError, IndexError):
        return "error"


SEG0, ROWS0 = Seg(0, 0, 0), (0, 1, 2, 3)
CALIBRATED = calibrated_variation()
NOISY = replace(CALIBRATED, thermal_noise_sigma=0.2)    # nothing saturates
WIDE = replace(CALIBRATED, thermal_noise_sigma=0.002,   # "0111" crosses
               sa_offset_sigma=0.2)                      # both margins


@pytest.mark.parametrize("bounds", [None, (1, 3)], ids=["default", "small"])
@given(PROFILES, st.lists(STEPS, min_size=1, max_size=10))
@example(CALIBRATED, [
    ("quac", SEG0, "0111", 0, 50.0), ("quac", SEG0, "0111", 0, 90.0),
    ("quac", SEG0, "1000", 0, 90.0),            # a new temperature, fills
    ("trace", SEG0, "1000", 1, 2, [], True, 0, 90.0),   # and first row
    ("trace", SEG0, "1000", 3, 0, [], False, 0, 50.0),  # a first row kept
    ("trace", SEG0, None, None, 0, [0], True, 0, 50.0),  # across traces
    ("characterize", "1011", [Seg(0, 0, s) for s in (0, 1, 2, 3, 2)], 2,
     50.0, "binomial"),                         # a table clear
    ("characterize", "0111", [SEG0], 2, 90.0, "exact")])
@example(NOISY, [("WRITE_ROW", 0, 0, 0.3), ("threshold", 0, ROWS0, 0, 50.0),
                 ("WRITE_ROW", 0, 1, ("bits", 1)),      # per-bitline rows
                 ("threshold", 0, ROWS0, 0, 50.0),      # in the key
                 ("WRITE_ROW", 0, 1, ("bits", 2)),
                 ("threshold", 0, ROWS0, 0, 50.0)])
@example(WIDE, [("characterize", "0111", [SEG0], 2, 650.0, "analytic"),
                ("characterize", "0111", [SEG0], 2, -550.0, "analytic"),
                ("characterize", "0100", [SEG0], 2, 50.0, "binomial")])
@settings(max_examples=25, deadline=None)
def test_production_matches_reference(bounds, profile, steps):
    """Equal bytes after every step, and one kept threshold per bank. The
    small bounds keep two segments' offsets and three segments' extremes,
    so the two stores clear on different draws; the run checks both."""
    with pytest.MonkeyPatch.context() as m:
        if bounds:
            m.setattr(device_module, "PARAM_CACHE_ENTRIES", bounds[0])
            m.setattr(device_module, "EXTREMES_TABLE_ENTRIES", bounds[1])
        device = build_device(SMALL, variation=profile)
        ref = Reference(SMALL, device.timings, profile)
        for i, step in enumerate(steps):
            if step == ("fork",):
                device, ref = device.fork(), ref.fork()
                assert not (device._param_cache or device._extremes)
                continue
            production, reference = map(outcome,
                                        calls(step, device, ref, 1000.0 * i))
            same = production == reference and all(
                device.read_cells(bg, 0, r).tobytes()
                == ref.read_cells(bg, 0, r).tobytes() for bg in (0, 1)
                for r in range(SMALL.rows_per_bank))
            assert same, (i, step)      # a diff of the bytes would be slow
            assert len(device._bank_thresholds) <= SMALL.bank_groups
            if bounds:
                assert len(device._param_cache) <= bounds[0] + 1
                assert len(device._extremes) <= bounds[1]
