"""Command engine: executes DDR4 command traces against a device, including
the quadruple-activation sequence, in-DRAM row copy, and cache-block reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, DataPattern
from .device import DecoderState, decoder_step, sample_sense_amp
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
    bus_busy_ns: float = 0.0

    def payload_bits(self):
        if not self.payloads:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate(self.payloads)

    def to_dict(self):
        return {
            "bus_busy_ns": self.bus_busy_ns,
            "reads": len(self.payloads),
            "payload_bits": int(sum(len(p) for p in self.payloads)),
            "outcomes": [
                {"time": t, "kind": k,
                 "active_rows": sorted(a) if a is not None else None}
                for t, k, a in self.outcomes
            ],
        }


def _sense(device, bank_group, bank, active_rows, first_row, temperature, rng):
    """Resolve the sense amplifiers for the given open rows and restore the
    sensed values into every open row (all open rows track the row buffer).
    """
    threshold = device.sense_threshold(bank_group, bank, active_rows,
                                       first_row, temperature)
    raw = rng.bit_generator.random_raw(device.geometry.bitlines_per_row)
    bits = sample_sense_amp(threshold, raw)
    sensed = bits.astype(np.float32)
    sensed.flags.writeable = False
    for r in active_rows:
        device.write_row(bank_group, bank, r, sensed)
    return bits


def run_quac(device, segment, pattern=None, t1=DEFAULT_T1, t2=DEFAULT_T2,
             experiment_seed=0, temperature=50.0, first_row=0):
    """Perform one quadruple activation on a segment and return the sensed
    row-buffer bits (one per bitline).

    When ``pattern`` is given the four rows are written with its fills
    first; with ``pattern=None`` the current cell contents are used (e.g.
    after copy-based initialization). ``first_row`` selects which inverted
    LSB pair carries the sequence: 0 means ACT(row0)->ACT(row3), 1 means
    ACT(row1)->ACT(row2); both are equivalent by symmetry.
    """
    t = device.timings
    if t1 >= t.tRAS or t2 >= t.tRP:
        raise TimingViolation(
            "no QUAC under legal timings: need t1 < tRAS and t2 < tRP")
    if first_row not in (0, 1):
        raise ValueError("first_row must be 0 or 1")
    device.validate_address(segment)
    bg, bank = segment.bank_group, segment.bank
    if pattern is not None:
        if isinstance(pattern, str):
            pattern = DataPattern(pattern)
        for row, fill in zip(segment.rows, pattern.fills):
            device.write_row(bg, bank, row, fill)

    first = segment.base_row + first_row
    second = segment.base_row + (3 - first_row)
    state = DecoderState()
    state, _ = decoder_step(state, ("ACT", first), 0.0, t)
    state, _ = decoder_step(state, ("PRE",), t1, t)
    state, active = decoder_step(state, ("ACT", second), t1 + t2, t)
    assert len(active) == 4, "inverted LSB pair must open the full segment"
    device.set_decoder(bg, bank, state)

    rng = stream(device.variation.master_seed, TAG_EXPERIMENT,
                 experiment_seed, bg, bank, segment.segment_index)
    bits = _sense(device, bg, bank, active, first, temperature, rng)
    # Close the segment under legal timing before returning.
    state, _ = decoder_step(state, ("PRE",), t1 + t2 + t.tRAS, t)
    device.set_decoder(bg, bank, state)
    return bits


def copy_row(device, bank_group, bank, src_row, dst_row, reserved_rows=()):
    """In-DRAM row copy: destination charges become an exact copy of the
    source. Both rows must sit in the same subarray.
    """
    g = device.geometry
    if g.subarray_of_row(src_row) != g.subarray_of_row(dst_row):
        raise ConfigError(
            f"cross-subarray copy unsupported: rows {src_row} -> {dst_row}")
    if dst_row in reserved_rows:
        raise ConfigError(
            f"destination row {dst_row} is a reserved source row")
    fill = device.row_fill(bank_group, bank, src_row)
    device.write_row(bank_group, bank, dst_row,
                     device.read_cells(bank_group, bank, src_row)
                     if fill is None else fill)


def execute_trace(device, commands, experiment_seed=0, temperature=50.0):
    """Run an ordered command trace; returns a :class:`TraceResult`.

    Reads are only legal while a row is open and tRCD has elapsed since
    the last ACT. Bus accounting: every command occupies one command slot;
    READ_BLOCK and the blocks of WRITE_ROW additionally occupy one data
    burst each; COPY_ROW occupies an ACT-PRE-ACT slot triple.
    """
    t = device.timings
    result = TraceResult()
    last_time = {}       # (bg, bank) -> last issue time
    first_open = {}      # (bg, bank) -> first activated row
    row_buffer = {}      # (bg, bank) -> sensed bits

    for cmd in commands:
        key = (cmd.bank_group, cmd.bank)
        if key in last_time and cmd.issue_time <= last_time[key]:
            raise TimingViolation(
                f"issue times must be strictly increasing per bank "
                f"(bank {key} at {cmd.issue_time} ns)")
        last_time[key] = cmd.issue_time
        state = device.decoder(*key)

        if cmd.kind in ("ACT", "PRE"):
            command = ("ACT", cmd.args[0]) if cmd.kind == "ACT" else ("PRE",)
            had_latches = state.any_latched
            state, active = decoder_step(state, command, cmd.issue_time, t)
            device.set_decoder(*key, state)
            result.bus_busy_ns += t.slot_time
            if cmd.kind == "ACT":
                if not had_latches:
                    first_open[key] = cmd.args[0]
                rng = stream(device.variation.master_seed, TAG_EXPERIMENT,
                             experiment_seed, *key, min(active) // 4,
                             int(cmd.issue_time * 1000))
                row_buffer[key] = _sense(device, *key, active,
                                         first_open.get(key, min(active)),
                                         temperature, rng)
            elif not active:
                row_buffer.pop(key, None)
                first_open.pop(key, None)
            result.outcomes.append((cmd.issue_time, cmd.kind, active))

        elif cmd.kind == "WRITE_ROW":
            row, fill = cmd.args
            device.write_row(*key, row, fill)
            result.bus_busy_ns += t.slot_time \
                + device.geometry.blocks_per_row * t.burst_time
            result.outcomes.append((cmd.issue_time, cmd.kind, None))

        elif cmd.kind == "READ_BLOCK":
            state = device.decoder(*key)
            if not state.active_rows():
                raise TimingViolation("READ_BLOCK with no open row")
            if cmd.issue_time - state.wordline_enable_time < t.tRCD:
                raise TimingViolation("READ_BLOCK before tRCD elapsed")
            block = cmd.args[0]
            if not 0 <= block < device.geometry.blocks_per_row:
                raise ValueError(
                    f"READ_BLOCK block {block} outside the row's "
                    f"{device.geometry.blocks_per_row} blocks")
            cb = device.geometry.cache_block_bits
            bits = row_buffer[key][block * cb:(block + 1) * cb]
            result.payloads.append(bits.copy())
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
