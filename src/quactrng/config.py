"""Static device description: geometry, timings, variation profile, patterns.

All configuration objects are plain dataclasses that validate their
invariants on construction. ``DeviceConfig`` round-trips through a
JSON-compatible dict (``to_dict`` / ``from_dict``) and loads from a file with
``from_json``, which ignores top-level keys other than its three sections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict, fields, replace

__all__ = [
    "ConfigError",
    "DramGeometry",
    "TimingParams",
    "SegmentAddress",
    "DataPattern",
    "VariationProfile",
    "DeviceConfig",
    "calibrated_variation",
]


class ConfigError(ValueError):
    """Raised when a configuration invariant is violated; names the field."""


def _require(cond, field_name, message):
    if not cond:
        raise ConfigError(f"{field_name}: {message}")


@dataclass(frozen=True)
class DramGeometry:
    """Bank/segment/bitline organization of the simulated device."""

    bank_groups: int = 4
    banks_per_group: int = 4
    subarrays_per_bank: int = 64
    segments_per_bank: int = 8192
    rows_per_segment: int = 4
    bitlines_per_row: int = 65536
    cache_block_bits: int = 512

    def __post_init__(self):
        for name in ("bank_groups", "banks_per_group", "subarrays_per_bank",
                     "segments_per_bank", "bitlines_per_row", "cache_block_bits"):
            _require(getattr(self, name) >= 1, name, "must be a positive count")
        _require(self.rows_per_segment == 4, "rows_per_segment",
                 "must be exactly 4 (a segment is four rows)")
        _require(self.bitlines_per_row % self.cache_block_bits == 0,
                 "bitlines_per_row",
                 "must be divisible by cache_block_bits")
        _require(self.rows_per_bank % self.subarrays_per_bank == 0,
                 "subarrays_per_bank",
                 "must evenly divide the rows in a bank")

    @property
    def rows_per_bank(self):
        return self.segments_per_bank * self.rows_per_segment

    @property
    def rows_per_subarray(self):
        return self.rows_per_bank // self.subarrays_per_bank

    @property
    def blocks_per_row(self):
        return self.bitlines_per_row // self.cache_block_bits

    def subarray_of_row(self, row):
        return row // self.rows_per_subarray


@dataclass(frozen=True)
class TimingParams:
    """DDR4 timing parameters in nanoseconds plus bus transfer rate.

    ``command_slot`` is the command-bus occupancy of one command; when left
    as ``None`` it is derived from the transfer rate (four clocks of the
    half-rate command clock).
    """

    tRAS: float = 32.0
    tRP: float = 13.5
    tRCD: float = 13.5
    tRRD_S: float = 3.0
    tRRD_L: float = 4.9
    CL: float = 13.75
    transfer_rate: float = 2400.0  # MT/s
    burst_length: int = 8
    command_slot: float | None = None

    def __post_init__(self):
        for name in ("tRAS", "tRP", "tRCD", "tRRD_S", "tRRD_L", "CL"):
            _require(getattr(self, name) > 0, name, "duration must be > 0")
        _require(self.transfer_rate > 0, "transfer_rate", "must be > 0")
        _require(self.burst_length >= 1, "burst_length", "must be >= 1")
        _require(self.tRRD_S <= self.tRRD_L, "tRRD_S",
                 "must not exceed tRRD_L")
        if self.command_slot is not None:
            _require(self.command_slot > 0, "command_slot", "must be > 0")

    @property
    def burst_time(self):
        """Data-bus time of one burst in ns (one cache block)."""
        return 1000.0 * self.burst_length / self.transfer_rate

    @property
    def slot_time(self):
        """Command-bus slot time in ns."""
        if self.command_slot is not None:
            return self.command_slot
        # 4 clocks of the command clock, which runs at half the transfer rate
        return 1000.0 * 4.0 / (self.transfer_rate / 2.0)

    def scaled_to(self, transfer_rate):
        """Same fixed latencies at a different bus transfer rate."""
        return replace(self, transfer_rate=transfer_rate)


@dataclass(frozen=True)
class SegmentAddress:
    """One four-row segment: (bank group, bank, segment index)."""

    bank_group: int
    bank: int
    segment_index: int

    def __post_init__(self):
        for name in ("bank_group", "bank", "segment_index"):
            _require(getattr(self, name) >= 0, name, "must be >= 0")

    @property
    def base_row(self):
        return 4 * self.segment_index

    @property
    def rows(self):
        return tuple(self.base_row + i for i in range(4))


@dataclass(frozen=True)
class DataPattern:
    """Four-symbol fill pattern; symbol i is the fill of row i of a segment.

    Pattern "0111" means row 0 all-0s and rows 1..3 all-1s.
    """

    symbols: str

    def __post_init__(self):
        _require(isinstance(self.symbols, str) and len(self.symbols) == 4,
                 "symbols", "must be a string of 4 symbols")
        _require(set(self.symbols) <= {"0", "1"}, "symbols",
                 "symbols must be '0' or '1'")

    @property
    def fills(self):
        return tuple(int(c) for c in self.symbols)

    def __str__(self):
        return self.symbols

    @staticmethod
    def all_patterns():
        return [DataPattern(format(i, "04b")) for i in range(16)]


@dataclass(frozen=True)
class VariationProfile:
    """Stochastic model parameters, all derived deterministically from
    ``master_seed``.

    Voltages are normalized: cell charge 1.0 is the supply rail and the
    bitline precharge level is 0.5. ``sa_offset_sigma`` and
    ``thermal_noise_sigma`` are in those normalized units.
    ``column_sigma_wave_amplitude`` optionally modulates the offset sigma
    along the column axis (half sine, peak mid-segment) so that devices
    with a position-dependent entropy profile can be constructed.
    """

    master_seed: int = 0x5EED
    sa_offset_sigma: float = 0.02
    thermal_noise_sigma: float = 0.02
    first_row_weight: float = 3.0
    later_row_weight: float = 1.0
    segment_weight_jitter_sigma: float = 0.0
    spatial_wave_amplitude: float = 0.0
    spatial_wave_period: float = 512.0
    column_sigma_wave_amplitude: float = 0.0
    temp_coefficient_per_chip: float = 0.002
    trend_sign_fraction: float = 24.0 / 40.0

    def __post_init__(self):
        for n in (f.name for f in fields(self) if f.name != "master_seed"):
            _require(math.isfinite(getattr(self, n)), n, "must be finite")
        for name in ("sa_offset_sigma", "segment_weight_jitter_sigma"):
            _require(getattr(self, name) >= 0, name, "sigma must be >= 0")
        for name in ("thermal_noise_sigma", "first_row_weight",
                     "later_row_weight", "spatial_wave_period"):
            _require(getattr(self, name) > 0, name, "must be > 0")
        _require(0.0 <= self.trend_sign_fraction <= 1.0, "trend_sign_fraction",
                 "must be in [0, 1]")
        _require(0 <= self.master_seed < 2 ** 64, "master_seed",
                 "must fit in 64 bits")


def calibrated_variation(master_seed=0x5EED):
    """Variation profile fitted so that the "0111" entropy statistics land
    on the published characterization scale (average cache-block entropy
    near 11 bits, best-segment entropy near 1.9 kbit, wave period 512).

    The fit is reproduced by :func:`quactrng.calibrate.fit_variation`.
    """
    return VariationProfile(
        master_seed=master_seed,
        sa_offset_sigma=0.02,
        thermal_noise_sigma=0.02,
        first_row_weight=3.1526,
        later_row_weight=1.0,
        segment_weight_jitter_sigma=0.004,
        spatial_wave_amplitude=0.045,
        spatial_wave_period=512.0,
    )


@dataclass(frozen=True)
class DeviceConfig:
    """Full declarative device configuration (JSON-compatible)."""

    geometry: DramGeometry = field(default_factory=DramGeometry)
    timings: TimingParams = field(default_factory=TimingParams)
    variation: VariationProfile = field(default_factory=VariationProfile)

    def to_dict(self):
        return {
            "geometry": asdict(self.geometry),
            "timings": asdict(self.timings),
            "variation": asdict(self.variation),
        }

    @staticmethod
    def from_dict(data):
        if not isinstance(data, dict):
            raise ConfigError("config: must be a JSON object")

        def build(cls, name):
            section = data.get(name, {})
            if not isinstance(section, dict):
                raise ConfigError(f"{name}: must be a JSON object")
            known = {f.name for f in fields(cls)}
            unknown = set(section) - known
            if unknown:
                raise ConfigError(
                    f"{cls.__name__}: unknown fields {sorted(unknown)}")
            try:
                return cls(**section)
            except TypeError as exc:   # a value of the wrong type
                raise ConfigError(f"{name}: {exc}") from None

        return DeviceConfig(
            geometry=build(DramGeometry, "geometry"),
            timings=build(TimingParams, "timings"),
            variation=build(VariationProfile, "variation"),
        )

    @staticmethod
    def from_json(path):
        with open(path) as fh:
            return DeviceConfig.from_dict(json.load(fh))

    def config_hash(self):
        """Stable short hash of the configuration, embedded in reports."""
        import hashlib

        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
