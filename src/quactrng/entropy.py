"""Entropy characterization: per-bitline Shannon entropy over repeated
quadruple-activation trials, spatial profiles, and hash-input-block plans.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .config import ConfigError, DataPattern, SegmentAddress, _require
from .device import _saturated_probability, success_probability
from .engine import run_quac
from .rng import TAG_EXPERIMENT, stream

__all__ = [
    "binary_entropy",
    "bitline_entropy",
    "EntropyMap",
    "characterize",
    "spatial_profile",
    "SibPlan",
    "build_sib_plan",
    "default_temperature_bins",
]

# Entropy bits per hash input range; a float, as plans serialize it.
MIN_BLOCK_ENTROPY = 256.0


def binary_entropy(p):
    """H(p) = -p*log2(p) - (1-p)*log2(1-p) in bits, elementwise, with
    0*log2(0) = 0.
    """
    p = np.asarray(p, dtype=np.float64)
    return -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / np.log(2.0)


def bitline_entropy(ones_count, trials):
    """Shannon entropy (bits) of a bitline that produced ``ones_count`` ones
    in ``trials`` trials: the plug-in estimate H(ones_count / trials).

    Accepts arrays of counts for vectorized evaluation. An integer array
    with more counts than ``trials`` is looked up in the table of
    H(k / trials) for k = 0..trials: the same values, with H evaluated once
    per possible count rather than once per bitline. Fewer counts, such as
    one count out of 10**9 trials, are evaluated directly, since the table
    would be larger than they are.
    """
    ones = np.asarray(ones_count)
    if np.any(ones < 0) or np.any(ones > trials):
        raise ValueError("ones_count must be in [0, trials]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if ones.dtype.kind in "iu" and ones.size > trials:
        h = binary_entropy(np.arange(trials + 1) / trials)[ones]
    else:
        h = binary_entropy(ones / trials)
    return h if h.ndim else float(h)


@dataclass
class EntropyMap:
    """Per-bitline entropy of a set of segments under one configuration.

    ``bitline`` is a float32 array of shape (n_segments, bitlines_per_row);
    block and segment entropies are derived sums over that array.
    """

    segments: list                      # SegmentAddress, row order of `bitline`
    bitline: np.ndarray                 # (n_segments, n_bitlines) float32
    cache_block_bits: int
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.bitline < -1e-6) or np.any(self.bitline > 1.0 + 1e-6):
            raise ValueError("bitline entropies must lie in [0, 1]")

    @property
    def block_entropy(self):
        """(n_segments, blocks_per_row) sums of bitline entropies."""
        n_seg, n_bit = self.bitline.shape
        blocks = n_bit // self.cache_block_bits
        return self.bitline.astype(np.float64).reshape(
            n_seg, blocks, self.cache_block_bits).sum(axis=2)

    @property
    def segment_entropy(self):
        """(n_segments,) sums of bitline entropies."""
        return self.bitline.astype(np.float64).sum(axis=1)

    def segment_series_to_csv(self, path):
        """Per-segment entropy series (for spatial-profile plots)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bank_group", "bank", "segment_index",
                        "segment_entropy"])
            for seg, h in zip(self.segments, self.segment_entropy):
                w.writerow([seg.bank_group, seg.bank, seg.segment_index,
                            f"{h:.4f}"])


def _as_addresses(segments):
    out = []
    for s in segments:
        out.append(s if isinstance(s, SegmentAddress)
                   else SegmentAddress(0, 0, int(s)))
    return out


def _pattern_probabilities(device, address, pattern, temperature):
    """Analytic per-bitline P(1) for a fixed fill pattern on one segment,
    or the scalar 0.0 or 1.0 when the pattern's deviation clears the
    sensing margin on every bitline, so that each one has exactly that P(1).

    The margin test reads only the lowest and highest deviations, from the
    device's extremes table, so a saturated visit to a segment drawn
    before draws nothing; the full deviation, and with it the segment's
    offsets, is fetched only when the test gives None.
    """
    sigma = device.variation.thermal_noise_sigma
    adjust = device.temperature_adjust(temperature)
    p = _saturated_probability(
        device.deviation_extremes(address, pattern.fills), sigma, adjust)
    if p is None:
        p = success_probability(device.deviation(address, pattern.fills),
                                sigma, adjust)
    return p


def characterize(device, pattern, segments, trials=1000, temperature=50.0,
                 method="binomial", workers=None):
    """Measure per-bitline entropy for a pattern over a set of segments.

    Methods:

    - ``"binomial"`` (default): computes each bitline's analytic success
      probability and draws its ones-count from Binomial(trials, p). Trials
      are independent (the pattern is rewritten before every activation),
      so this is distributionally identical to the exact loop and orders of
      magnitude faster.
    - ``"exact"``: performs ``trials`` full quadruple activations per
      segment and counts ones directly; trial ``t`` senses with experiment
      seed ``t + 1``.
    - ``"analytic"``: no sampling; entropy is the exact H(p) per bitline
      (the infinite-trial limit).

    Under ``"binomial"`` and ``"analytic"``, P(1) comes from the segment's
    ``device.deviation``, as in sensing. A segment whose lowest and highest
    deviations (``device.deviation_extremes``) both lie past the sensing
    margin (P(1) exactly 0 or 1 on every bitline) gets its row of H = 0
    directly, with the bytes the full path gives but without its P(1),
    draws or entropy arrays; most fill patterns do so on a calibrated
    device. Such a segment's offsets are drawn only if the device has not
    drawn it before, so a sweep of every pattern draws each segment once
    for the first pattern and then only for the patterns that do not
    saturate.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    addresses = _as_addresses(segments)
    if not addresses:
        raise ValueError("segments must be non-empty")
    if isinstance(pattern, str):
        pattern = DataPattern(pattern)
    if method not in ("binomial", "exact", "analytic"):
        raise ValueError(f"unknown method {method!r}")

    n = device.geometry.bitlines_per_row

    def one_segment(address):
        device.validate_address(address)
        if method == "exact":
            local = device.fork()
            ones = np.zeros(n, dtype=np.int64)
            for t in range(trials):
                ones += run_quac(local, address, pattern=pattern,
                                 experiment_seed=t + 1,
                                 temperature=temperature)
            return bitline_entropy(ones, trials).astype(np.float32)
        p = _pattern_probabilities(device, address, pattern, temperature)
        if np.ndim(p) == 0:
            # every trial of every bitline senses the same value: H = -0.0
            return np.full(n, binary_entropy(p), dtype=np.float32)
        if method == "analytic":
            return binary_entropy(p).astype(np.float32)
        rng = stream(device.variation.master_seed, TAG_EXPERIMENT, 0,
                     address.bank_group, address.bank, address.segment_index)
        return bitline_entropy(rng.binomial(trials, p),
                               trials).astype(np.float32)

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one_segment, addresses))
    else:
        rows = [one_segment(a) for a in addresses]

    return EntropyMap(
        segments=addresses,
        bitline=np.stack(rows),
        context={
            "pattern": str(pattern),
            "temperature_c": temperature,
            "trials": trials,
            "method": method,
            "master_seed": device.variation.master_seed,
        },
        cache_block_bits=device.geometry.cache_block_bits,
    )


def _autocorrelation(series):
    """Normalized autocorrelation r(lag) for lags 0..n//2 (biased
    length-n normalization, which damps spurious long-lag noise peaks).
    """
    x = np.asarray(series, dtype=np.float64)
    x = x - x.mean()
    n = len(x)
    denom = float(x @ x)
    if denom == 0.0:
        return np.zeros(n // 2 + 1)
    return np.array([float(x[:n - k] @ x[k:]) / denom
                     for k in range(n // 2 + 1)])


def spatial_profile(emap):
    """Spatial summary of an entropy map.

    Returns a dict with the per-segment entropy series, the detected
    dominant spatial period (autocorrelation peak past the first zero
    crossing; None when that peak is below 0.2), the peak autocorrelation
    value, and the per-cache-block entropy curve averaged over segments.
    """
    if len(emap.segments) < 2:
        raise ValueError("spatial profile needs at least 2 segments")
    series = emap.segment_entropy
    r = _autocorrelation(series)
    period = None
    peak = 0.0
    # skip the trivial short-lag correlation of any smooth series: look for
    # the first lag where correlation has decayed through zero, then take
    # the strongest revival after it (the fundamental period)
    negative = np.nonzero(r < 0.0)[0]
    if len(negative) and negative[0] + 1 < len(r):
        zero = int(negative[0])
        lag = zero + int(np.argmax(r[zero:]))
        peak = float(r[lag])
        if peak >= 0.2:
            period = lag
    return {
        "segment_entropy": series,
        "detected_period": period,
        "autocorrelation_peak": peak,
        "block_curve": emap.block_entropy.mean(axis=0),
    }


def default_temperature_bins(low=30.0, high=90.0, count=10):
    """Non-overlapping equal-width temperature bins (°C) from low to high."""
    _require(high > low, "temperature range", f"high {high} C must lie "
             f"above low {low} C")
    edges = np.linspace(low, high, count + 1)
    return [(float(edges[i]), float(edges[i + 1])) for i in range(count)]


@dataclass
class SibPlan:
    """Per-temperature-bin extraction plan: which segment to activate and
    which contiguous column ranges each carry >= 256 measured entropy bits.
    """

    bins: list          # (low_c, high_c) tuples
    entries: list       # per bin: dict(segment=SegmentAddress, ranges=[(s,e,h)])
    pattern: str = "0111"
    min_block_entropy: float = MIN_BLOCK_ENTROPY

    def bin_for(self, temperature):
        for i, (lo, hi) in enumerate(self.bins):
            if lo <= temperature <= hi:
                return i
        raise ValueError(
            f"uncharacterized temperature {temperature} C: outside all bins")

    def sib(self, bin_index):
        return len(self.entries[bin_index]["ranges"])

    def to_dict(self):
        return {
            "pattern": self.pattern,
            "min_block_entropy": self.min_block_entropy,
            "bins": [list(b) for b in self.bins],
            "entries": [
                {
                    "segment": [e["segment"].bank_group, e["segment"].bank,
                                e["segment"].segment_index],
                    "ranges": [[int(s), int(t), float(h)]
                               for s, t, h in e["ranges"]],
                }
                for e in self.entries
            ],
        }

    @staticmethod
    def from_dict(data):
        """The plan :meth:`to_dict` gave; a plan of another shape raises
        ``ConfigError`` naming the part that is malformed."""
        _require(isinstance(data, dict), "plan", "must be a JSON object")
        bins, entries = data.get("bins"), data.get("entries")
        _require(isinstance(bins, list) and all(
            _numbers(b, 2, (int, float)) and b[0] <= b[1] for b in bins),
            "plan bins", "must be a list of [low_c, high_c] pairs with "
            "low_c <= high_c")
        _require(isinstance(entries, list) and len(entries) == len(bins),
                 "plan entries", "must be a list with one entry per bin")
        for i, e in enumerate(entries):
            _require(isinstance(e, dict)
                     and _numbers(e.get("segment"), 3, int)
                     and isinstance(e.get("ranges"), list)
                     and all(_numbers(r, 3, (int, float))
                             and _numbers(r[:2], 2, int)
                             for r in e["ranges"]),
                     f"plan entries[{i}]", "must hold a [bank_group, bank, "
                     "segment_index] segment and [start, end, entropy] ranges")
        pattern = data.get("pattern", "0111")
        try:
            DataPattern(pattern)
        except ConfigError as exc:
            raise ConfigError(f"plan pattern: {exc}") from None
        return SibPlan(
            bins=[tuple(b) for b in bins],
            entries=[{"segment": SegmentAddress(*e["segment"]),
                      "ranges": [tuple(r) for r in e["ranges"]]}
                     for e in entries],
            pattern=pattern,
            min_block_entropy=data.get("min_block_entropy",
                                       MIN_BLOCK_ENTROPY))

    @staticmethod
    def from_json(path):
        with open(path) as fh:
            return SibPlan.from_dict(json.load(fh))


def _numbers(value, count, kinds):
    """Whether ``value`` is a list of ``count`` numbers of ``kinds``."""
    return isinstance(value, list) and len(value) == count and all(
        isinstance(x, kinds) and not isinstance(x, bool) for x in value)


def _cut_ranges(bitline, min_entropy):
    """Greedy left-to-right contiguous cuts; close a range as soon as its
    accumulated entropy reaches ``min_entropy``; drop the short tail.
    """
    ranges = []
    start = 0
    acc = 0.0
    for i, h in enumerate(np.asarray(bitline, dtype=np.float64)):
        acc += h
        if acc >= min_entropy:
            ranges.append((start, i + 1, acc))
            start = i + 1
            acc = 0.0
    return ranges


def build_sib_plan(maps, bins):
    """Build a :class:`SibPlan` from one entropy map per temperature bin;
    ``bins`` holds the ``(low_c, high_c)`` of each map, in order.

    For each bin the highest-entropy segment is selected and its bitline
    entropies are cut into contiguous column ranges of >= 256 bits each.
    """
    if not maps:
        raise ValueError("need at least one entropy map")
    if len(bins) != len(maps):
        raise ValueError("need exactly one entropy map per temperature bin")
    pattern = maps[0].context.get("pattern", "0111")
    entries = []
    for emap in maps:
        if emap.context.get("pattern", pattern) != pattern:
            raise ValueError("all maps in a plan must share one pattern")
        segment_entropy = emap.segment_entropy
        idx = int(np.argmax(segment_entropy))
        total = float(segment_entropy[idx])
        if total < MIN_BLOCK_ENTROPY:
            raise ValueError(
                f"insufficient entropy: best segment carries {total:.1f} bits "
                f"(< {MIN_BLOCK_ENTROPY})")
        ranges = _cut_ranges(emap.bitline[idx], MIN_BLOCK_ENTROPY)
        entries.append({"segment": emap.segments[idx], "ranges": ranges})
    return SibPlan(bins=list(bins), entries=entries, pattern=pattern)
