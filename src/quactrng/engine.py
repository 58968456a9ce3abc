"""Command engine: executes DDR4 command traces against a device, including
the quadruple-activation sequence, in-DRAM row copy, and cache-block reads.

:func:`execute_trace` alone steps the row decoder and senses; :func:`run_quac`
is a trace through it: the pattern's row writes, if any, then four commands.
Open rows are sensed once, when first read or closed by a PRE, on one stream
per (experiment seed, bank group, bank, segment) per trace; each further
sense of a segment takes its next words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, DataPattern
from .device import decoder_step, sample_sense_amp
from .rng import TAG_EXPERIMENT, stream

__all__ = [
    "Command",
    "TraceResult",
    "TimingViolation",
    "run_quac",
    "copy_row",
    "execute_trace",
]

DEFAULT_T1 = 2.5    # ns, ACT -> violating PRE
DEFAULT_T2 = 2.5    # ns, violating PRE -> second ACT


class TimingViolation(RuntimeError):
    """A command was issued at a time the engine does not allow."""


@dataclass(frozen=True)
class Command:
    """One timestamped command. ``args`` depend on the kind:

    ACT: (row,)  PRE: ()  WRITE_ROW: (row, fill)
    READ_BLOCK: (block_index,)  COPY_ROW: (src_row, dst_row)
    """

    issue_time: float
    kind: str
    bank_group: int
    bank: int
    args: tuple = ()


@dataclass
class TraceResult:
    """Data and accounting produced by a trace run."""

    payloads: list = field(default_factory=list)   # one uint8 array per READ_BLOCK
    outcomes: list = field(default_factory=list)   # (time, kind, active_rows or None)
    sensed: list = field(default_factory=list)     # (time, (bg, bank), bits) per sense
    bus_busy_ns: float = 0.0

    def payload_bits(self):
        if not self.payloads:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate(self.payloads)


def run_quac(device, segment, pattern=None, experiment_seed=0,
             temperature=50.0):
    """Perform one quadruple activation on a segment and return the sensed
    row-buffer bits (one per bitline).

    With ``pattern`` the trace first writes the four rows with its fills;
    with ``pattern=None`` the rows keep their contents. A segment outside
    the geometry raises ConfigError before any write. The sequence is
    ACT(row0), PRE after ``DEFAULT_T1``, ACT(row3) after ``DEFAULT_T2``; a
    device whose tRAS or tRP does not exceed them raises TimingViolation.
    Other ACT orders run through :func:`execute_trace`. In a bank left
    open, another segment's open row raises DecoderError, and an open row
    of this segment stays the first row.
    """
    t, t1, t2 = device.timings, DEFAULT_T1, DEFAULT_T2
    if t1 >= t.tRAS or t2 >= t.tRP:
        raise TimingViolation(
            "no QUAC under legal timings: need t1 < tRAS and t2 < tRP")
    bg, bank = segment.bank_group, segment.bank
    trace = [] if pattern is None else [
        Command(float(i), "WRITE_ROW", bg, bank, (row, fill))
        for i, (row, fill) in enumerate(
            zip(segment.rows, DataPattern(str(pattern)).fills))]
    t0 = float(len(trace))
    trace += [Command(t0, "ACT", bg, bank, (segment.base_row,)),
              Command(t0 + t1, "PRE", bg, bank),
              Command(t0 + t1 + t2, "ACT", bg, bank, (segment.base_row + 3,)),
              # closes the segment under legal timing, which senses it
              Command(t0 + t1 + t2 + t.tRAS, "PRE", bg, bank)]
    (_, _, bits), = execute_trace(device, trace, experiment_seed,
                                  temperature).sensed
    return bits


def copy_row(device, bank_group, bank, src_row, dst_row):
    """In-DRAM row copy: destination charges become an exact copy of the
    source. Both rows must sit in the same subarray.
    """
    g = device.geometry
    if g.subarray_of_row(src_row) != g.subarray_of_row(dst_row):
        raise ConfigError(
            f"cross-subarray copy unsupported: rows {src_row} -> {dst_row}")
    fill = device.row_fill(bank_group, bank, src_row)
    device.write_row(bank_group, bank, dst_row,
                     device.read_cells(bank_group, bank, src_row)
                     if fill is None else fill)


def _check_address(geometry, cmd):
    """Raise ConfigError unless the command's bank, the rows an ACT,
    WRITE_ROW or COPY_ROW names, and a READ_BLOCK's block lie inside the
    geometry."""
    g = geometry
    if not (0 <= cmd.bank_group < g.bank_groups
            and 0 <= cmd.bank < g.banks_per_group):
        raise ConfigError(
            f"{cmd.kind} at {cmd.issue_time} ns: bank ({cmd.bank_group}, "
            f"{cmd.bank}) outside the {g.bank_groups}x{g.banks_per_group} "
            f"banks")
    rows = cmd.args[:2] if cmd.kind == "COPY_ROW" else \
        cmd.args[:1] if cmd.kind in ("ACT", "WRITE_ROW") else ()
    for row in rows:
        if not 0 <= row < g.rows_per_bank:
            raise ConfigError(
                f"{cmd.kind} at {cmd.issue_time} ns: row {row} outside the "
                f"bank's {g.rows_per_bank} rows")
    if cmd.kind == "READ_BLOCK" and not 0 <= cmd.args[0] < g.blocks_per_row:
        raise ConfigError(
            f"{cmd.kind} at {cmd.issue_time} ns: block {cmd.args[0]} outside "
            f"the row's {g.blocks_per_row} blocks")


def execute_trace(device, commands, experiment_seed=0, temperature=50.0):
    """Run an ordered command trace; returns a :class:`TraceResult`.

    A bank, ACT or WRITE_ROW row, COPY_ROW source or destination, or
    READ_BLOCK block outside the geometry raises ConfigError. Reads are only
    legal while a row is open and tRCD has elapsed since the last ACT. The
    first row sensed is the decoder's, whichever trace opened the bank. Bus
    accounting: each command takes one command slot, READ_BLOCK and each
    block of WRITE_ROW one data burst more, and COPY_ROW three slots.
    """
    t = device.timings
    result = TraceResult()
    last_time = {}       # (bg, bank) -> last issue time
    row_buffer = {}      # (bg, bank) -> bits sensed since the last ACT
    streams = {}         # (bg, bank, segment) -> noise stream of this trace

    def sense(key, state, time):
        """The bank's row buffer, sensed on the first call since its ACT
        and restored into every open row (they track the row buffer)."""
        if key in row_buffer:
            return row_buffer[key]
        segment = (*key, state.active_master_wordline)
        if segment not in streams:
            streams[segment] = stream(device.variation.master_seed,
                                      TAG_EXPERIMENT, experiment_seed,
                                      *segment)
        threshold = device.sense_threshold(*key, state.active_rows(),
                                           state.first_row, temperature)
        raw = streams[segment].bit_generator.random_raw(
            device.geometry.bitlines_per_row)
        bits = row_buffer[key] = sample_sense_amp(threshold, raw)
        sensed = bits.astype(np.float32)
        sensed.flags.writeable = False
        for row in state.active_rows():
            device.write_row(*key, row, sensed)
        result.sensed.append((time, key, bits))
        return bits

    for cmd in commands:
        _check_address(device.geometry, cmd)
        key = (cmd.bank_group, cmd.bank)
        if key in last_time and cmd.issue_time <= last_time[key]:
            raise TimingViolation(
                f"issue times must be strictly increasing per bank "
                f"(bank {key} at {cmd.issue_time} ns)")
        last_time[key] = cmd.issue_time
        state = device.decoder(*key)

        if cmd.kind in ("ACT", "PRE"):
            command = ("ACT", cmd.args[0]) if cmd.kind == "ACT" else ("PRE",)
            new_state, active = decoder_step(state, command, cmd.issue_time, t)
            if cmd.kind == "ACT":
                row_buffer.pop(key, None)
            elif not active and state.any_latched:
                sense(key, state, cmd.issue_time)  # rows never read
            device.set_decoder(*key, new_state)
            result.bus_busy_ns += t.slot_time
            result.outcomes.append((cmd.issue_time, cmd.kind, active))

        elif cmd.kind == "WRITE_ROW":
            row, fill = cmd.args
            device.write_row(*key, row, fill)
            result.bus_busy_ns += t.slot_time \
                + device.geometry.blocks_per_row * t.burst_time
            result.outcomes.append((cmd.issue_time, cmd.kind, None))

        elif cmd.kind == "READ_BLOCK":
            if not state.active_rows():
                raise TimingViolation("READ_BLOCK with no open row")
            if cmd.issue_time - state.wordline_enable_time < t.tRCD:
                raise TimingViolation("READ_BLOCK before tRCD elapsed")
            block, cb = cmd.args[0], device.geometry.cache_block_bits
            bits = sense(key, state, cmd.issue_time)
            result.payloads.append(bits[block * cb:(block + 1) * cb].copy())
            result.bus_busy_ns += t.slot_time + t.burst_time
            result.outcomes.append((cmd.issue_time, cmd.kind, None))

        elif cmd.kind == "COPY_ROW":
            src, dst = cmd.args
            copy_row(device, *key, src, dst)
            result.bus_busy_ns += 3 * t.slot_time
            result.outcomes.append((cmd.issue_time, cmd.kind, None))

        else:
            raise ValueError(f"unknown command kind {cmd.kind!r}")

    return result
