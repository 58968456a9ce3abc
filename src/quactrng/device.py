"""Simulated DRAM device: static variation parameters, cell array state,
the row-decoder latch state machine, and the sense-amplifier sampling model.

The physical model is a weighted charge-sharing + Gaussian-noise probit:
each open cell pulls the bitline away from the precharge level with a
weight (the first-activated row pulls hardest because its cells share
charge the longest), a per-bitline sense-amplifier offset is added, and
the amplifier resolves 1 with probability Phi(deviation / noise_sigma).
Sensing makes that probit compare in integer form: each bitline takes one
raw 64-bit Philox word and resolves 1 when ``(raw >> 11) <
ceil(P(1) * 2**53)``, which is exactly ``uniform < P(1)`` for the uniform
numpy derives from the same word.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .config import (ConfigError, DeviceConfig, DramGeometry, SegmentAddress,
                     TimingParams, VariationProfile)
from .rng import TAG_CHIP_TRAITS, TAG_SEGMENT_PARAMS, stream

__all__ = [
    "DecoderState",
    "DecoderError",
    "SegmentParams",
    "DeviceState",
    "build_device",
    "decoder_step",
    "charge_share_deviation",
    "raw_threshold",
    "sample_sense_amp",
    "success_probability",
]

PRECHARGE_LEVEL = 0.5
REFERENCE_TEMP_C = 50.0
# A device's cache of drawn sense-amp offsets is cleared once it holds more
# than this many segments: 512 KiB of offsets each at 64K bitlines.
PARAM_CACHE_ENTRIES = 32
# Entries of a device's table of each drawn segment's weight multiplier and
# offset extremes: one bank's segments, about 3 MB when full (some 370
# bytes an entry); cleared when full.
EXTREMES_TABLE_ENTRIES = 8192
# scipy's ndtr is exactly 0.0 at or below -38 and exactly 1.0 at or above
# +38: erfc underflows once x**2 / 2 passes log(DBL_MAX), at |x| = 37.68.
PROBIT_SATURATION = 38.0


class DecoderError(RuntimeError):
    """Command sequence the decoder model does not define."""


# ---------------------------------------------------------------------------
# Row decoder latch state machine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecoderState:
    """Latch state of the hierarchical row decoder for one bank.

    The four select lines are pure functions of the latches:
    S0 = A0b & A1b, S1 = A0 & A1b, S2 = A0b & A1, S3 = A0 & A1.
    ``first_row`` is the row whose ACT found the latches clear.
    """

    a0: bool = False
    a0b: bool = False
    a1: bool = False
    a1b: bool = False
    active_master_wordline: int | None = None
    wordline_enable_time: float | None = None
    first_row: int | None = None

    def select_lines(self):
        return (self.a0b and self.a1b, self.a0 and self.a1b,
                self.a0b and self.a1, self.a0 and self.a1)

    @property
    def any_latched(self):
        return self.a0 or self.a0b or self.a1 or self.a1b

    def active_rows(self):
        if self.active_master_wordline is None:
            return frozenset()
        base = self.active_master_wordline * 4
        return frozenset(base + i for i, s in enumerate(self.select_lines()) if s)


def decoder_step(state, command, now, timings):
    """Apply one command to the decoder; returns (new_state, active_row_set).

    ``command`` is ``("ACT", row)`` or ``("PRE",)``. A PRE that arrives
    before tRAS has elapsed fails to reset the latches (the state is
    unchanged); a subsequent ACT then adds its latches to the ones
    already set, which is what opens all four rows of a segment when the
    two ACT addresses have inverted low bits.
    """
    kind = command[0]
    if kind == "ACT":
        row = command[1]
        master = row >> 2
        if state.any_latched and state.active_master_wordline is not None \
                and master != state.active_master_wordline:
            raise DecoderError(
                "cross-segment sequence undefined: second ACT selects master "
                f"wordline {master} while {state.active_master_wordline} is latched")
        bit0, bit1 = row & 1, (row >> 1) & 1
        new = replace(
            state,
            a0=state.a0 or bool(bit0),
            a0b=state.a0b or not bit0,
            a1=state.a1 or bool(bit1),
            a1b=state.a1b or not bit1,
            active_master_wordline=master,
            wordline_enable_time=now,
            first_row=state.first_row if state.any_latched else row,
        )
        return new, new.active_rows()
    if kind == "PRE":
        if state.wordline_enable_time is None or \
                now - state.wordline_enable_time >= timings.tRAS:
            return DecoderState(), frozenset()
        # tRAS violated: the precharge cannot reset the latches.
        return state, state.active_rows()
    raise ValueError(f"unknown decoder command {command!r}")


# ---------------------------------------------------------------------------
# Physical model
# ---------------------------------------------------------------------------

def charge_share_deviation(cells, first_row_weight, later_row_weight,
                           weight_multiplier, sa_offset, first_row=0):
    """Pre-sense bitline deviation from the precharge level.

    ``cells`` holds the normalized charges of the open rows in row order:
    a (rows, n) array, or a (rows,) vector of row fills that broadcasts
    against the offsets. The row activated first (index ``first_row``)
    contributes with ``first_row_weight``; the others with
    ``later_row_weight``. The per-segment ``weight_multiplier`` scales the
    charge term only; the per-bitline ``sa_offset`` is added afterwards.
    """
    cells = np.asarray(cells, dtype=np.float64)
    weights = np.full(cells.shape[0], later_row_weight, dtype=np.float64)
    weights[first_row] = first_row_weight
    shared = weights @ (cells - PRECHARGE_LEVEL)
    return weight_multiplier * shared + sa_offset


def raw_threshold(p_one):
    """Integer form of P(1) for sensing: ``ceil(P(1) * 2**53)`` as uint64.

    numpy turns a raw Philox word into the uniform ``(raw >> 11) * 2**-53``,
    so ``uniform < P(1)`` holds exactly when ``(raw >> 11)`` is below this
    threshold: P(1) = 0 gives 0 (never 1) and P(1) = 1 gives 2**53 (always
    1). Scaling by a power of two and ``ceil`` are exact in float64.

    A float64 array ``p_one`` is scaled in place, which spares a 512 KiB
    temporary per row at 64K bitlines; pass a P(1) no longer needed.
    """
    scaled = np.asarray(p_one, dtype=np.float64)
    np.multiply(scaled, 2.0 ** 53, out=scaled)
    return np.ceil(scaled, out=np.empty(scaled.shape, np.uint64),
                   casting="unsafe")


def sample_sense_amp(threshold, raw):
    """Resolve the sense amplifiers to bits: 1 where the word's uniform is
    below P(1).

    ``threshold`` is the per-bitline :func:`raw_threshold` of P(1); ``raw``
    holds one raw 64-bit word of the experiment stream per bitline. A
    uint64 array ``raw`` is shifted in place, which spares a 512 KiB
    temporary per row at 64K bitlines.
    """
    words = np.asarray(raw, dtype=np.uint64)
    return (np.right_shift(words, 11, out=words) < threshold).astype(np.uint8)


def _probit_argument(deviation, thermal_noise_sigma, temperature_adjust):
    """Adjusted deviation / sigma, the argument of Phi, as a new float64
    array; the caller's ``deviation`` is never written.
    """
    if thermal_noise_sigma <= 0:
        raise ValueError("thermal_noise_sigma must be > 0")
    x = np.array(deviation, dtype=np.float64)
    np.multiply(x, temperature_adjust, out=x)
    return np.divide(x, thermal_noise_sigma, out=x)


def success_probability(deviation, thermal_noise_sigma, temperature_adjust=1.0):
    """P(1) = Phi(adjusted deviation / sigma); sensing compares raw words
    against its :func:`raw_threshold`.

    Works in place on its own float64 copy of ``deviation``, so the
    caller's array is never written; a scalar in gives a scalar out.
    """
    p = _probit_argument(deviation, thermal_noise_sigma, temperature_adjust)
    return ndtr(p, out=p)[()]


def _saturated_probability(deviation_range, thermal_noise_sigma,
                           temperature_adjust):
    """The P(1) that every bitline shares, 0.0 or 1.0, when the whole
    ``(lowest, highest)`` range of a row's deviations clears the sensing
    margin; None when some bitline may resolve randomly.

    Rounding is monotone, so with ``temperature_adjust > 0`` the probit
    arguments of the two ends bound those of every bitline in between, and
    ``ndtr`` is exactly 0.0 at or below ``-PROBIT_SATURATION`` and exactly
    1.0 at or above it. A ``temperature_adjust <= 0`` gives None.
    """
    if temperature_adjust <= 0:
        return None
    low, high = _probit_argument(deviation_range, thermal_noise_sigma,
                                 temperature_adjust)
    if high <= -PROBIT_SATURATION:
        return 0.0
    if low >= PROBIT_SATURATION:
        return 1.0
    return None


# ---------------------------------------------------------------------------
# Device state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentParams:
    """Deterministic per-segment electrical parameters, from which
    :meth:`DeviceState.deviation` gives every deviation of the segment.

    A device's extremes table holds a second form: ``sa_offset`` is then
    the segment's ``[lowest, highest]`` offsets, from which
    :meth:`DeviceState.deviation_extremes` gives the lowest and highest
    deviations of a fills vector.
    """

    sa_offset: np.ndarray          # per-bitline SA offset, normalized volts
    weight_multiplier: float       # per-segment charge-sharing multiplier


class DeviceState:
    """A simulated device: immutable derived parameters plus mutable cell
    and decoder state.

    Static parameters are derived lazily (a full device is 8K segments x
    64K bitlines per bank; materializing every offset array up front would
    be gigabytes) from splittable streams keyed by
    (master_seed, bank_group, bank, segment_index), so any evaluation
    order reproduces identical values.

    Two caches keep what a draw made. The offsets cache holds each drawn
    segment's :class:`SegmentParams` and is cleared once it holds more
    than ``PARAM_CACHE_ENTRIES``. The extremes table keeps each drawn
    segment's multiplier and lowest and highest offsets for up to
    ``EXTREMES_TABLE_ENTRIES`` segments, so a segment's deviation extremes
    outlive its offsets. Both start empty on :meth:`fork`.
    """

    def __init__(self, geometry, timings, variation):
        self.geometry = geometry
        self.timings = timings
        self.variation = variation
        self._param_cache = {}
        # (bg, bank, segment) -> SegmentParams of the [lowest, highest] offsets
        self._extremes = {}
        # (bg, bank, row) -> fill level (float) or read-only float32 array
        self._cells = {}
        # (bg, bank) -> ((rows, fills, first, temperature), threshold) of the
        # bank's last constant-fill sense; ``fork`` starts empty
        self._bank_thresholds = {}
        self._decoders = {}  # (bg, bank) -> DecoderState
        traits = stream(variation.master_seed, TAG_CHIP_TRAITS)
        # +1: entropy rises with temperature (deviation shrinks); -1: falls.
        self.temperature_trend = 1 if traits.uniform() < variation.trend_sign_fraction else -1

    # -- static parameters --------------------------------------------------

    def segment_params(self, address):
        key = (address.bank_group, address.bank, address.segment_index)
        cached = self._param_cache.get(key)
        if cached is not None:
            return cached
        v = self.variation
        rng = stream(v.master_seed, TAG_SEGMENT_PARAMS, *key)
        n = self.geometry.bitlines_per_row
        sigma = v.sa_offset_sigma
        if v.column_sigma_wave_amplitude:
            col = np.arange(n)
            sigma = sigma * (1.0 + v.column_sigma_wave_amplitude
                             * np.sin(np.pi * col / n))
        offsets = rng.standard_normal(n) * sigma
        mult = 1.0 + v.segment_weight_jitter_sigma * rng.standard_normal() \
            + v.spatial_wave_amplitude * np.sin(
                2.0 * np.pi * address.segment_index / v.spatial_wave_period)
        params = SegmentParams(sa_offset=offsets, weight_multiplier=mult)
        if len(self._param_cache) > PARAM_CACHE_ENTRIES:
            self._param_cache.clear()
        if len(self._extremes) >= EXTREMES_TABLE_ENTRIES:
            self._extremes.clear()
            self._param_cache.clear()  # every cached segment has its extremes
        self._param_cache[key] = params
        self._extremes[key] = SegmentParams(
            sa_offset=np.array([offsets.min(), offsets.max()]),
            weight_multiplier=mult)
        return params

    def _deviation_of(self, params, cells, first_row):
        """The one join of a segment's parameters to the kernel."""
        v = self.variation
        return charge_share_deviation(
            cells, v.first_row_weight, v.later_row_weight,
            params.weight_multiplier, params.sa_offset, first_row)

    def deviation(self, address, cells, first_row=0):
        """Charge-sharing deviation of the segment's open rows.

        ``cells`` is a (rows,) fills vector or a stacked (rows, n) array of
        row charges; the row at index ``first_row`` was activated first.
        """
        return self._deviation_of(self.segment_params(address), cells,
                                  first_row)

    def deviation_extremes(self, address, fills, first_row=0):
        """The lowest and highest of ``deviation(address, fills,
        first_row)``, bit for bit, as a float64 pair.

        For a (rows,) ``fills`` vector the deviation is ``c + sa_offset``
        with one scalar ``c``, and rounding is monotone, so the deviations
        of the lowest and highest offsets are its extremes. They come from
        the extremes table, which draws the segment only on a miss.
        """
        key = (address.bank_group, address.bank, address.segment_index)
        if key not in self._extremes:
            self.segment_params(address)
        return self._deviation_of(self._extremes[key], fills, first_row)

    def sense_threshold(self, bank_group, bank, rows, first_row,
                        temperature):
        """Per-bitline :func:`raw_threshold` of the P(1) of the open
        ``rows``; ``first_row`` is the one activated first.

        When every open row holds a constant fill, the deviation comes from
        the fills vector, and the bank keeps the threshold of its last such
        key (rows, fills, first row, temperature) for the next sense.
        """
        rows = tuple(sorted(rows))
        first = rows.index(first_row)
        fills = tuple(self.row_fill(bank_group, bank, r) for r in rows)
        key = (rows, fills, first, temperature)
        kept = self._bank_thresholds.get((bank_group, bank))
        if kept and kept[0] == key:
            return kept[1]
        # cells hold float32 charges, so a fill enters as a float32
        cells = np.array(fills, dtype=np.float32) if None not in fills \
            else np.stack([self.read_cells(bank_group, bank, r) for r in rows])
        threshold = raw_threshold(success_probability(
            self.deviation(SegmentAddress(bank_group, bank, rows[0] // 4),
                           cells, first),
            self.variation.thermal_noise_sigma,
            self.temperature_adjust(temperature)))
        if None not in fills:
            self._bank_thresholds[(bank_group, bank)] = (key, threshold)
        return threshold

    def temperature_adjust(self, temperature_c):
        """Multiplicative factor on deviation magnitude at a temperature."""
        if not np.isfinite(temperature_c):
            raise ValueError(f"temperature: {temperature_c} C is not finite")
        k = self.variation.temp_coefficient_per_chip
        return 1.0 - self.temperature_trend * k * (temperature_c - REFERENCE_TEMP_C)

    # -- mutable cell / decoder state ---------------------------------------

    def validate_address(self, address):
        g = self.geometry
        if not (address.bank_group < g.bank_groups
                and address.bank < g.banks_per_group
                and address.segment_index < g.segments_per_bank):
            raise ConfigError(
                f"segment address {address} outside device geometry")

    def write_row(self, bank_group, bank, row, value):
        """Write a full row; ``value`` is a fill level or a per-bitline array.

        A fill is kept as a scalar. An array is kept as a read-only float32
        copy, except that a read-only float32 array (a row from
        :meth:`read_cells`, or a sensed row) is kept as it is, so every row
        it is written to shares it.
        """
        if np.isscalar(value):
            self._cells[(bank_group, bank, row)] = float(value)
            return
        n = self.geometry.bitlines_per_row
        shared = isinstance(value, np.ndarray) and value.dtype == np.float32 \
            and not value.flags.writeable
        data = value if shared else np.array(value, dtype=np.float32)
        if data.shape != (n,):
            raise ValueError(f"row data must have shape ({n},)")
        data.flags.writeable = False
        self._cells[(bank_group, bank, row)] = data

    def row_fill(self, bank_group, bank, row):
        """The row's constant fill level (the precharge level for an
        unwritten row), or None when it holds a per-bitline array."""
        data = self._cells.get((bank_group, bank, row), PRECHARGE_LEVEL)
        return data if isinstance(data, float) else None

    def read_cells(self, bank_group, bank, row):
        """Current charges of a row as a read-only float32 array
        (uninitialized rows read precharge level)."""
        fill = self.row_fill(bank_group, bank, row)
        if fill is None:
            return self._cells[(bank_group, bank, row)]
        data = np.full(self.geometry.bitlines_per_row, fill, dtype=np.float32)
        data.flags.writeable = False
        return data

    def decoder(self, bank_group, bank):
        return self._decoders.get((bank_group, bank)) or DecoderState()

    def set_decoder(self, bank_group, bank, state):
        self._decoders[(bank_group, bank)] = state

    def fork(self):
        """Fresh device sharing the same static description (clean cells)."""
        return DeviceState(self.geometry, self.timings, self.variation)


def build_device(geometry=None, timings=None, variation=None):
    """Construct a DeviceState, validating all configuration invariants."""
    if isinstance(geometry, DeviceConfig):
        cfg = geometry
        return DeviceState(cfg.geometry, cfg.timings, cfg.variation)
    return DeviceState(geometry or DramGeometry(),
                       timings or TimingParams(),
                       variation or VariationProfile())
