"""Entropy characterization tests: estimator, maps, spatial profile, and
input-block planning.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import quactrng.device
from quactrng import build_device, calibrated_variation, entropy
from quactrng.config import ConfigError, DataPattern, SegmentAddress, \
    VariationProfile
from quactrng.device import PROBIT_SATURATION, DeviceState
from quactrng.entropy import (EntropyMap, SibPlan, binary_entropy,
                              bitline_entropy, build_sib_plan, characterize,
                              default_temperature_bins, spatial_profile)
from quactrng.rng import TAG_SEGMENT_PARAMS

# High-precision oracle for H(0.11), computed independently with 40-digit
# arithmetic.
H_011 = 0.4999159581645280


def test_bitline_entropy_balanced():
    assert bitline_entropy(500, 1000) == pytest.approx(1.0)


def test_bitline_entropy_deterministic():
    assert bitline_entropy(0, 1000) == 0.0
    assert bitline_entropy(1000, 1000) == 0.0


def test_bitline_entropy_skewed_oracle():
    assert bitline_entropy(110, 1000) == pytest.approx(H_011, abs=1e-12)


def test_bitline_entropy_guards():
    with pytest.raises(ValueError):
        bitline_entropy(1001, 1000)
    with pytest.raises(ValueError):
        bitline_entropy(-1, 1000)
    with pytest.raises(ValueError):
        bitline_entropy(0, 0)


@given(st.integers(0, 1000))
@settings(max_examples=100, deadline=None)
def test_bitline_entropy_symmetric_and_bounded(k):
    h = bitline_entropy(k, 1000)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(bitline_entropy(1000 - k, 1000))


@given(st.sampled_from([1, 2, 999, 1000, 1001, 65535, 65536]),
       st.integers(0, 2 ** 32), st.integers(1, 64),
       st.sampled_from([np.int64, np.int32, np.uint32, np.float64]))
@settings(max_examples=60, deadline=None)
def test_bitline_entropy_table_matches_direct_form(trials, seed, extra,
                                                   dtype):
    """A single count and more counts than ``trials`` (the table's side of
    the size selection) give the bytes of H(ones / trials)."""
    rng = np.random.default_rng(seed)
    many = rng.integers(0, trials + 1, trials + extra)
    many[:2] = (0, trials)
    for ones in (many[:1], many[-1:], many):
        ones = ones.astype(dtype)
        h = bitline_entropy(ones, trials)
        assert h.shape == ones.shape
        assert h.tobytes() == binary_entropy(ones / trials).tobytes()


@pytest.fixture(scope="module")
def device():
    return build_device(variation=calibrated_variation())


@pytest.fixture(scope="module")
def small_map(device):
    return characterize(device, "0111", range(32), trials=1000)


def test_map_aggregation_identity(small_map):
    """Segment entropy equals the sum of its 128 cache-block entropies."""
    np.testing.assert_allclose(small_map.block_entropy.sum(axis=1),
                               small_map.segment_entropy, rtol=1e-10)


def test_map_bounds(small_map):
    assert small_map.bitline.min() >= 0.0
    assert small_map.bitline.max() <= 1.0
    assert small_map.block_entropy.max() <= 512.0
    assert small_map.segment_entropy.max() <= 65536.0


def test_map_aggregation_permutation_invariant(small_map):
    perm = np.random.default_rng(0).permutation(65536)
    shuffled = small_map.bitline[:, perm]
    np.testing.assert_allclose(shuffled.astype(np.float64).sum(axis=1),
                               small_map.segment_entropy, rtol=1e-10)


def test_characterize_rejects_bad_args(device):
    with pytest.raises(ValueError, match="non-empty"):
        characterize(device, "0111", [])
    with pytest.raises(ValueError, match="trials"):
        characterize(device, "0111", [0], trials=1)
    with pytest.raises(ValueError, match="unknown method"):
        characterize(device, "0111", [0], method="magic")


def test_characterize_exact_matches_binomial_statistics(device):
    """The fast binomial path and the explicit activation loop agree on
    the distribution: segment entropies within a few percent.
    """
    fast = characterize(device, "0111", [3], trials=300, method="binomial")
    slow = characterize(device, "0111", [3], trials=300, method="exact")
    assert slow.segment_entropy[0] == pytest.approx(
        fast.segment_entropy[0], rel=0.05)


def test_characterize_analytic_zero_variance_device():
    """With all variation disabled the deviation is exactly zero under
    "0111": every bitline carries a full bit of entropy.
    """
    dev = build_device(variation=VariationProfile(sa_offset_sigma=0.0))
    emap = characterize(dev, "0111", [0, 1], method="analytic")
    np.testing.assert_allclose(emap.bitline, 1.0)
    np.testing.assert_allclose(emap.segment_entropy, 65536.0)


def test_characterize_workers_deterministic(device):
    for pattern in ("0111", "1011"):    # random, then saturated
        serial = characterize(device, pattern, range(8), trials=500)
        threaded = characterize(device, pattern, range(8), trials=500,
                                workers=4)
        assert serial.bitline.tobytes() == threaded.bitline.tobytes()


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call appends its arguments to the
    returned list."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


@given(st.floats(max_value=-PROBIT_SATURATION),
       st.floats(min_value=PROBIT_SATURATION))
@example(-1e300, 1e300)
@example(-np.inf, np.inf)
@example(-PROBIT_SATURATION, PROBIT_SATURATION)
@settings(max_examples=200, deadline=None)
def test_ndtr_saturates_past_the_margin(low, high):
    assert ndtr(low) == 0.0
    assert ndtr(high) == 1.0


def test_sweep_draws_offsets_only_for_random_patterns(monkeypatch):
    """Characterizing every pattern over more segments than the offsets
    cache holds fetches each segment's parameters once, on the first
    pattern; after that only the two patterns that do not clear the
    sensing margin fetch them, and only they reach the probit."""
    device = build_device(variation=calibrated_variation())
    segments = range(80)
    param_calls = count_calls(monkeypatch, DeviceState, "segment_params")
    probit_calls = count_calls(monkeypatch, entropy, "success_probability")
    patterns = DataPattern.all_patterns()
    for pattern in patterns:
        characterize(device, pattern, segments)
    assert [a[1].segment_index for a in param_calls] == \
        [s for i, p in enumerate(patterns)
         if i == 0 or str(p) in ("0111", "1000") for s in segments]
    assert len(probit_calls) == 2 * len(segments)


def test_four_bin_characterization_draws_each_segment_once(monkeypatch):
    """A four-bin plan's "0111" characterization over 32 segments revisits
    them from the offsets cache: each segment is drawn exactly once."""
    drawn = []
    draw = quactrng.device.stream

    def counted(seed, tag, *key):
        if tag == TAG_SEGMENT_PARAMS:
            drawn.append(key)
        return draw(seed, tag, *key)
    monkeypatch.setattr(quactrng.device, "stream", counted)
    device = build_device(variation=calibrated_variation())
    for low, high in default_temperature_bins(40.0, 60.0, 4):
        characterize(device, "0111", range(32),
                     temperature=(low + high) / 2)
    assert drawn == [(0, 0, s) for s in range(32)]


def test_estimator_converges_to_analytic():
    """Bitlines configured with P(1)=p measure H(p) within 3 standard
    errors at 1000 trials (criterion includes the quadratic term at the
    entropy maximum, where the first-order error vanishes).
    """
    rng = np.random.default_rng(42)
    trials = 1000
    for p in (0.1, 0.3, 0.5):
        k = rng.binomial(trials, p)
        measured = bitline_entropy(k, trials)
        analytic = bitline_entropy(int(round(p * 1e9)), int(1e9))
        sigma_p = np.sqrt(p * (1 - p) / trials)
        slope = abs(np.log2((1 - p) / p))
        bound = 3 * slope * sigma_p + (9 * sigma_p ** 2) / np.log(2)
        assert abs(measured - analytic) <= bound


def test_spatial_profile_detects_configured_period(wave_map):
    prof = spatial_profile(wave_map)
    assert prof["detected_period"] is not None
    assert abs(prof["detected_period"] - 512) <= 51     # within 10%
    assert prof["autocorrelation_peak"] >= 0.2


def test_spatial_profile_flat_device_no_period():
    dev = build_device(variation=VariationProfile(
        first_row_weight=3.1526, spatial_wave_amplitude=0.0))
    emap = characterize(dev, "0111", range(512), trials=1000)
    prof = spatial_profile(emap)
    assert prof["detected_period"] is None
    assert prof["autocorrelation_peak"] < 0.2


def test_spatial_profile_mid_segment_peak():
    """A device whose sense-amp offset spread peaks mid-segment shows the
    highest per-block entropy in the middle third of the column range.
    """
    dev = build_device(variation=VariationProfile(
        first_row_weight=3.1526, column_sigma_wave_amplitude=2.0))
    emap = characterize(dev, "0111", range(16), trials=1000)
    curve = spatial_profile(emap)["block_curve"]
    peak_block = int(np.argmax(curve))
    assert 128 / 3 <= peak_block <= 2 * 128 / 3


def test_spatial_profile_needs_two_segments(device):
    emap = characterize(device, "0111", [0], trials=100)
    with pytest.raises(ValueError, match="at least 2 segments"):
        spatial_profile(emap)


def _uniform_map(per_bitline, n_segments=1):
    return EntropyMap(
        segments=[SegmentAddress(0, 0, i) for i in range(n_segments)],
        bitline=np.full((n_segments, 65536), per_bitline, dtype=np.float32),
        cache_block_bits=512, context={"pattern": "0111"})


def test_plan_uniform_half_entropy():
    """Uniform 0.5 bits/bitline: every range spans exactly 512 bitlines
    (512 x 0.5 = 256 bits each), 65536/512 = 128 input blocks.
    """
    plan = build_sib_plan([_uniform_map(0.5)], bins=[(30.0, 90.0)])
    ranges = plan.entries[0]["ranges"]
    assert len(ranges) == 128
    assert all(e - s == 512 for s, e, _ in ranges)


def test_plan_sib_matches_floor_for_uniform_maps():
    # uniform per-bitline entropy summing to ~1688 bits -> 6 input blocks
    h = 1688.1 / 65536
    plan = build_sib_plan([_uniform_map(h)], bins=[(30.0, 90.0)])
    assert plan.sib(0) == 6


def test_plan_ranges_reverified_by_summation(device):
    emap = characterize(device, "0111", range(64), trials=1000)
    plan = build_sib_plan([emap], bins=[(30.0, 90.0)])
    idx = emap.segments.index(plan.entries[0]["segment"])
    prev_end = 0
    for start, end, claimed in plan.entries[0]["ranges"]:
        assert start >= prev_end          # disjoint and sorted
        prev_end = end
        total = float(emap.bitline[idx, start:end].astype(np.float64).sum())
        assert total >= 256.0
        assert total == pytest.approx(claimed, rel=1e-6)
    assert plan.sib(0) <= int(emap.segment_entropy[idx] // 256)


def test_plan_sib_monotone_in_entropy():
    sibs = [len(build_sib_plan([_uniform_map(h)],
                               bins=[(0.0, 1.0)]).entries[0]["ranges"])
            for h in (0.1, 0.2, 0.4, 0.8)]
    assert sibs == sorted(sibs)


def test_plan_insufficient_entropy():
    with pytest.raises(ValueError, match="insufficient entropy"):
        build_sib_plan([_uniform_map(0.001)], bins=[(30.0, 90.0)])


def test_plan_per_bin_selection(device):
    maps = [characterize(device, "0111", range(64), trials=1000,
                         temperature=t) for t in (35.0, 85.0)]
    plan = build_sib_plan(maps, bins=[(30.0, 60.0), (60.0, 90.0)])
    assert plan.bin_for(35.0) == 0
    assert plan.bin_for(85.0) == 1
    with pytest.raises(ValueError, match="uncharacterized temperature"):
        plan.bin_for(95.0)


def test_plan_json_roundtrip(tmp_path, device):
    emap = characterize(device, "0111", range(16), trials=500)
    plan = build_sib_plan([emap], bins=[(30.0, 90.0)])
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    loaded = type(plan).from_json(path)
    assert loaded.to_dict() == plan.to_dict()


@pytest.mark.parametrize("data", [
    [], {"bins": [[30.0]], "entries": [{}]},
    {"bins": [[30.0, 90.0]], "entries": [{"segment": [0, 0, 1.5],
                                          "ranges": []}]},
    {"bins": [[30.0, 90.0]], "entries": [{"segment": [0, 0, 1],
                                          "ranges": [[0, "512", 300.0]]}]},
])
def test_plan_from_dict_rejects_malformed(data):
    with pytest.raises(ConfigError, match="^plan"):
        SibPlan.from_dict(data)


def test_default_temperature_bins():
    bins = default_temperature_bins()
    assert len(bins) == 10
    assert bins[0][0] == 30.0 and bins[-1][1] == 90.0
    assert all(a[1] == b[0] for a, b in zip(bins, bins[1:]))


def test_map_csv_export(tmp_path, small_map):
    path = tmp_path / "series.csv"
    small_map.segment_series_to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(small_map.segments)
