"""A deliberately slow model of the device, with no cache, table or
shortcut: rows are float32 arrays, a segment's offsets are drawn at every
use, and sensing is ``uniform < P(1)``, the contract ``raw_threshold``
documents. A new fast path extends this model, not a test of its own."""

import numpy as np
from scipy.special import ndtr

from quactrng.config import DataPattern, DramGeometry, SegmentAddress
from quactrng.device import DecoderState, decoder_step
from quactrng.engine import Command
from quactrng.entropy import binary_entropy
from quactrng.rng import (TAG_CHIP_TRAITS, TAG_EXPERIMENT, TAG_SEGMENT_PARAMS,
                          stream)

SMALL = DramGeometry(bank_groups=2, banks_per_group=1, subarrays_per_bank=2,
                     segments_per_bank=8, bitlines_per_row=8192)


def segment_draw(v, n, address):
    """A segment's offsets and weight multiplier under variation ``v``, as
    first written: N(0, 1) deviates times a sigma row, and the jitter drawn
    as N(0, jitter)."""
    rng = stream(v.master_seed, TAG_SEGMENT_PARAMS, address.bank_group,
                 address.bank, address.segment_index)
    sigma = v.sa_offset_sigma * (1.0 + v.column_sigma_wave_amplitude
                                 * np.sin(np.pi * np.arange(n) / n))
    offsets = rng.normal(0.0, 1.0, n) * sigma
    mult = 1.0 + rng.normal(0.0, v.segment_weight_jitter_sigma) \
        + v.spatial_wave_amplitude * np.sin(
            2.0 * np.pi * address.segment_index / v.spatial_wave_period)
    return offsets, mult


def quac_commands(segment, pattern, first_row=0, second_row=3, start=0.0):
    """The pattern's writes (none for ``None``), ACT, early PRE and ACT."""
    bg, bank, base = segment.bank_group, segment.bank, segment.base_row
    fills = DataPattern(pattern).fills if pattern else ()
    return [Command(start + i, "WRITE_ROW", bg, bank, (base + i, fill))
            for i, fill in enumerate(fills)] + [
        Command(start + 4.0, "ACT", bg, bank, (base + first_row,)),
        Command(start + 6.5, "PRE", bg, bank),
        Command(start + 9.0, "ACT", bg, bank, (base + second_row,))]


class Reference:
    """Rows, decoders and physics of one device, computed slowly."""

    def __init__(self, geometry, timings, variation):
        self.geometry, self.timings, self.variation = \
            geometry, timings, variation
        self.n, self.rows, self.decoders, self.first = \
            geometry.bitlines_per_row, {}, {}, {}
        self.trend = 1 if stream(variation.master_seed, TAG_CHIP_TRAITS) \
            .uniform() < variation.trend_sign_fraction else -1

    def fork(self):
        return Reference(self.geometry, self.timings, self.variation)

    def write(self, bg, bank, row, value):
        self.rows[bg, bank, row] = np.full(self.n, value, np.float32)

    def read_cells(self, bg, bank, row):
        return self.rows.get((bg, bank, row), np.full(self.n, 0.5, np.float32))

    def p_one(self, bg, bank, rows, first_row, temperature):
        """P(1) per bitline with ``rows`` open, ``first_row`` first."""
        v, rows = self.variation, sorted(rows)
        offsets, mult = segment_draw(v, self.n,
                                     SegmentAddress(bg, bank, rows[0] // 4))
        weights = np.where(np.array(rows) == first_row, v.first_row_weight,
                           float(v.later_row_weight))
        cells = np.array([self.read_cells(bg, bank, r) for r in rows],
                         dtype=np.float64)
        adjust = 1.0 - self.trend * v.temp_coefficient_per_chip \
            * (temperature - 50.0)
        return ndtr((mult * (weights @ (cells - 0.5)) + offsets) * adjust
                    / v.thermal_noise_sigma)

    def run(self, commands, seed=0, temperature=50.0):
        """Payloads and sensed rows of a trace that keeps the timings."""
        buffers, streams, payloads, sensed = {}, {}, [], []

        def sense(key):
            if key not in buffers:
                rows = sorted(self.decoders[key].active_rows())
                rng = streams.setdefault((*key, rows[0] // 4), stream(
                    self.variation.master_seed, TAG_EXPERIMENT, seed, *key,
                    rows[0] // 4))
                p = self.p_one(*key, rows, self.first[key], temperature)
                buffers[key] = (rng.uniform(size=p.size) < p).astype(np.uint8)
                for r in rows:
                    self.write(*key, r, buffers[key])
                sensed.append(buffers[key])
            return buffers[key]

        for cmd in commands:
            key, args = (cmd.bank_group, cmd.bank), cmd.args
            state = self.decoders.get(key, DecoderState())
            if cmd.kind in ("ACT", "PRE"):
                new, active = decoder_step(state, (cmd.kind, *args),
                                           cmd.issue_time, self.timings)
                if cmd.kind == "ACT":
                    buffers.pop(key, None)
                    if not state.any_latched:
                        self.first[key] = args[0]
                elif not active and state.any_latched:
                    sense(key)
                self.decoders[key] = new
            elif cmd.kind == "WRITE_ROW":
                self.write(*key, *args)
            elif cmd.kind == "COPY_ROW":
                self.write(*key, args[1], self.read_cells(*key, args[0]))
            else:
                cb = self.geometry.cache_block_bits
                payloads.append(sense(key)[args[0] * cb:(args[0] + 1) * cb])
        return payloads, sensed

    def quac(self, segment, pattern=None, seed=0, temperature=50.0):
        close = Command(9.0 + self.timings.tRAS, "PRE", segment.bank_group,
                        segment.bank)
        return self.run(quac_commands(segment, pattern) + [close], seed,
                        temperature)[1][-1]

    def entropy_map(self, pattern, segments, trials, temperature, method):
        """Each segment's pattern written on a fork, all four rows opened
        with row 0 first, and H of P(1) or of the ones counted."""
        maps = []
        for s in segments:
            local, key = self.fork(), (s.bank_group, s.bank)
            if method == "exact":
                p = sum(local.quac(s, pattern, t + 1, temperature)
                        .astype(np.int64) for t in range(trials)) / trials
            else:
                for row, fill in zip(s.rows, DataPattern(pattern).fills):
                    local.write(*key, row, fill)
                p = local.p_one(*key, s.rows, s.base_row, temperature)
            if method == "binomial":
                p = stream(self.variation.master_seed, TAG_EXPERIMENT, 0,
                           *key, s.segment_index).binomial(trials, p) / trials
            maps.append(binary_entropy(p))
        return np.stack(maps).astype(np.float32)
