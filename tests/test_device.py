"""Device model tests: configuration validation, decoder latch behavior,
charge sharing, and sense-amplifier sampling.
"""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from quactrng.config import (ConfigError, DataPattern, DeviceConfig,
                             DramGeometry, SegmentAddress, TimingParams,
                             calibrated_variation)
from quactrng.device import (DecoderError, DecoderState, build_device,
                             charge_share_deviation, decoder_step,
                             raw_threshold, sample_sense_amp,
                             success_probability)
from quactrng.rng import TAG_EXPERIMENT, stream


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_geometry_defaults_valid():
    g = DramGeometry()
    assert g.rows_per_bank == 32768
    assert g.blocks_per_row == 128
    assert g.rows_per_subarray == 512


def test_geometry_rejects_bad_segment_rows():
    with pytest.raises(ConfigError, match="rows_per_segment"):
        DramGeometry(rows_per_segment=2)


def test_geometry_rejects_indivisible_blocks():
    with pytest.raises(ConfigError, match="bitlines_per_row"):
        DramGeometry(bitlines_per_row=1000)


def test_timings_reject_nonpositive():
    with pytest.raises(ConfigError, match="tRAS"):
        TimingParams(tRAS=0.0)


def test_timings_burst_and_slot_times():
    t = TimingParams()
    assert t.burst_time == pytest.approx(8000.0 / 2400.0)
    assert t.slot_time == pytest.approx(8000.0 / 2400.0)
    assert t.scaled_to(4800).burst_time == pytest.approx(t.burst_time / 2)


def test_timings_scaled_to_keeps_every_other_field():
    t = TimingParams(tRAS=30.0, tRP=12.0, tRCD=14.0, tRRD_S=3.5, tRRD_L=6.0,
                     CL=15.0, burst_length=16, command_slot=2.0)
    scaled = t.scaled_to(4800)
    assert scaled.transfer_rate == 4800
    for f in fields(TimingParams):
        if f.name != "transfer_rate":
            assert getattr(scaled, f.name) == getattr(t, f.name), f.name


def test_pattern_validation():
    assert DataPattern("0111").fills == (0, 1, 1, 1)
    assert len(DataPattern.all_patterns()) == 16
    with pytest.raises(ConfigError):
        DataPattern("012")
    with pytest.raises(ConfigError):
        DataPattern("01a1")


def test_config_json_roundtrip(tmp_path):
    cfg = DeviceConfig(variation=calibrated_variation())
    path = tmp_path / "device.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = DeviceConfig.from_json(path)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown fields"):
        DeviceConfig.from_dict({"geometry": {"bank_groupz": 4}})


@pytest.mark.parametrize("data, section", [
    ([], "config"),
    ({"geometry": 5}, "geometry"),
    ({"variation": [1]}, "variation"),
    ({"timings": {"tRAS": "x"}}, "timings"),
    ({"geometry": {"bank_groups": None}}, "geometry"),
])
def test_config_rejects_malformed_sections(data, section):
    with pytest.raises(ConfigError, match=f"^{section}: "):
        DeviceConfig.from_dict(data)


def test_segment_address_rows():
    a = SegmentAddress(0, 0, 10)
    assert a.base_row == 40
    assert a.rows == (40, 41, 42, 43)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

TIMINGS = TimingParams()


def _quac_sequence(first_row, second_row, t1=2.5, t2=2.5):
    state = DecoderState()
    state, _ = decoder_step(state, ("ACT", first_row), 0.0, TIMINGS)
    state, _ = decoder_step(state, ("PRE",), t1, TIMINGS)
    return decoder_step(state, ("ACT", second_row), t1 + t2, TIMINGS)


@pytest.mark.parametrize("first", range(4))
@pytest.mark.parametrize("second", range(4))
def test_decoder_truth_table_violated_timing(first, second):
    """All 16 ordered low-bit pairs: four rows open exactly when the two
    addresses have inverted low bits.
    """
    _, active = _quac_sequence(first, second)
    if second == 3 - first:
        assert len(active) == 4
        assert active == frozenset({0, 1, 2, 3})
    else:
        assert len(active) < 4


@pytest.mark.parametrize("first", range(4))
@pytest.mark.parametrize("second", range(4))
def test_decoder_legal_timing_single_row(first, second):
    """With tRAS respected, the precharge resets the latches and at most
    one row is ever open.
    """
    state = DecoderState()
    state, active = decoder_step(state, ("ACT", first), 0.0, TIMINGS)
    assert active == frozenset({first})
    state, active = decoder_step(state, ("PRE",), TIMINGS.tRAS, TIMINGS)
    assert active == frozenset()
    state, active = decoder_step(state, ("ACT", second),
                                 TIMINGS.tRAS + TIMINGS.tRP, TIMINGS)
    assert active == frozenset({second})


def test_decoder_cross_segment_rejected():
    with pytest.raises(DecoderError, match="cross-segment"):
        _quac_sequence(0, 7)


def test_decoder_select_lines_match_latches():
    # latches for row 2 (bits 10): a0b and a1 set -> only S2 asserted
    state, _ = decoder_step(DecoderState(), ("ACT", 2), 0.0, TIMINGS)
    assert state.select_lines() == (False, False, True, False)


# ---------------------------------------------------------------------------
# physical model
# ---------------------------------------------------------------------------

def test_charge_share_zero_pattern_0111_with_balanced_weights():
    # first row weight exactly 3x later weight cancels for "0111"
    cells = np.array([[0.0], [1.0], [1.0], [1.0]])
    dev = charge_share_deviation(cells, 3.0, 1.0, 1.0, 0.0)
    assert dev == pytest.approx(0.0)


def test_charge_share_offset_and_multiplier():
    cells = np.array([[1.0], [1.0], [1.0], [1.0]])
    dev = charge_share_deviation(cells, 3.0, 1.0, 2.0, 0.25)
    assert dev == pytest.approx(2.0 * 3.0 + 0.25)


def test_charge_share_deviation_has_one_caller(package_callers):
    """Every deviation, in sensing and in characterization, and every
    deviation extreme comes from one join of a segment's parameters to the
    kernel: the quantity has one implementation."""
    assert package_callers("charge_share_deviation") == \
        {"device.DeviceState._deviation_of"}
    assert package_callers("_deviation_of") == \
        {"device.DeviceState.deviation",
         "device.DeviceState.deviation_extremes"}


def test_sample_sense_amp_matches_analytic_probability():
    rng = np.random.default_rng(7)
    dev = np.full(200000, 0.01)
    bits = sample_sense_amp(raw_threshold(success_probability(dev, 0.02)),
                            rng.bit_generator.random_raw(dev.size))
    p = success_probability(0.01, 0.02)
    assert bits.mean() == pytest.approx(p, abs=3 / np.sqrt(dev.size))


def _experiment_stream(seed):
    return stream(seed, TAG_EXPERIMENT, 0, 1, 2, 3)


def test_numpy_uniform_is_top_53_bits_of_raw_word():
    # the contract raw_threshold relies on; a numpy release that changes
    # the double conversion fails here by name
    n = 65536
    uniforms = _experiment_stream(7).uniform(size=n)
    raw = _experiment_stream(7).bit_generator.random_raw(n)
    np.testing.assert_array_equal(uniforms, (raw >> 11) * 2.0 ** -53)


EDGE_P_ONE = (0.0, 5e-324, 2.0 ** -60, 2.0 ** -53, 0.5, 1 - 2.0 ** -53, 1.0)


@given(st.integers(0, 2 ** 32),
       st.lists(st.one_of(st.sampled_from(EDGE_P_ONE), st.floats(0.0, 1.0),
                          st.integers(-1, 1)),
                min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_raw_threshold_compare_matches_uniform_compare(seed, picks):
    """A float pick is a bitline's P(1). An integer pick -1, 0 or 1 sets it
    one ulp below, at or one ulp above the uniform the bitline draws, so
    the compare is tested on both sides of equality."""
    n = len(picks)
    uniforms = _experiment_stream(seed).uniform(size=n)
    p_one = np.array([
        pick if isinstance(pick, float)
        else np.nextafter(u, (0.0, u, 1.0)[pick + 1])
        for u, pick in zip(uniforms, picks)])
    bits = sample_sense_amp(raw_threshold(p_one.copy()),
                            _experiment_stream(seed).bit_generator.random_raw(n))
    np.testing.assert_array_equal(bits, (uniforms < p_one).astype(np.uint8))


def test_success_probability_rejects_zero_sigma():
    with pytest.raises(ValueError, match="thermal_noise_sigma"):
        success_probability(np.zeros(4), 0.0)


@given(st.floats(-0.2, 0.2), st.floats(0.001, 0.1))
@settings(max_examples=50, deadline=None)
def test_success_probability_bounds_and_monotonicity(dev, sigma):
    p = success_probability(dev, sigma)
    assert 0.0 <= p <= 1.0
    assert success_probability(dev + 0.01, sigma) >= p


@pytest.mark.parametrize("deviation", [0.01, -0.03, 0, np.float64(0.02),
                                       np.float32(0.02)])
def test_success_probability_of_scalar_is_scalar(deviation):
    p = success_probability(deviation, 0.02, 0.9)
    assert not isinstance(p, np.ndarray)
    assert isinstance(p, (float, np.floating))


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4), (2, 3, 5)])
def test_success_probability_keeps_shape_and_leaves_input(shape):
    deviation = np.random.default_rng(3).normal(0.0, 0.05, shape)
    before = deviation.copy()
    p = success_probability(deviation, 0.02, 1.1)
    assert np.shape(p) == shape
    np.testing.assert_array_equal(deviation, before)


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
       st.floats(1e-4, 0.1), st.floats(0.5, 1.5),
       st.sampled_from([np.float64, np.float32]))
@settings(max_examples=100, deadline=None)
def test_success_probability_matches_out_of_place_form(values, sigma, adjust,
                                                       dtype):
    deviation = np.array(values, dtype=dtype)
    expected = ndtr(np.asarray(deviation, dtype=np.float64) * adjust / sigma)
    np.testing.assert_array_equal(
        success_probability(deviation, sigma, adjust), expected)


# ---------------------------------------------------------------------------
# device state
# ---------------------------------------------------------------------------

def test_different_seeds_give_different_params():
    a = build_device(variation=calibrated_variation(1))
    b = build_device(variation=calibrated_variation(2))
    addr = SegmentAddress(0, 0, 0)
    assert not np.array_equal(a.segment_params(addr).sa_offset,
                              b.segment_params(addr).sa_offset)


def test_temperature_adjust_trend():
    dev = build_device(variation=calibrated_variation())
    sign = dev.temperature_trend
    hot = dev.temperature_adjust(90.0)
    cold = dev.temperature_adjust(30.0)
    assert dev.temperature_adjust(50.0) == pytest.approx(1.0)
    if sign > 0:
        assert hot < 1.0 < cold   # weaker deviation -> more entropy when hot
    else:
        assert cold < 1.0 < hot


def test_trend_sign_fraction_population():
    """Across many chips, the entropy-vs-temperature trend splits roughly
    60/40 toward rising-with-temperature.
    """
    signs = [build_device(variation=calibrated_variation(s)).temperature_trend
             for s in range(200)]
    frac_up = sum(s > 0 for s in signs) / len(signs)
    assert 0.5 < frac_up < 0.7


def test_rows_read_back_written_values():
    dev = build_device()
    dev.write_row(0, 0, 12, 1)
    assert dev.read_cells(0, 0, 12).min() == 1.0
    # uninitialized rows float at the precharge level
    assert dev.read_cells(0, 0, 13).max() == 0.5
    assert dev.row_fill(0, 0, 12) == 1.0
    assert dev.row_fill(0, 0, 13) == 0.5
    assert dev.fork().row_fill(0, 0, 12) == 0.5


def test_rows_are_read_only_and_not_aliased():
    dev = build_device()
    n = dev.geometry.bitlines_per_row
    source = np.zeros(n, dtype=np.float32)
    dev.write_row(0, 0, 12, 1)
    dev.write_row(0, 0, 13, source)
    source[:] = 1.0     # the device keeps its own copy
    assert dev.read_cells(0, 0, 13).max() == 0.0
    for row in (12, 13, 14):    # fill, per-bitline array, unwritten
        before = dev.read_cells(0, 0, row).copy()
        with pytest.raises(ValueError, match="read-only"):
            dev.read_cells(0, 0, row)[:] = 0.25
        np.testing.assert_array_equal(dev.read_cells(0, 0, row), before)
    assert dev.row_fill(0, 0, 12) == 1.0
    assert dev.row_fill(0, 0, 13) is None
    assert dev.row_fill(0, 0, 14) == 0.5


def test_validate_address_bounds():
    dev = build_device()
    with pytest.raises(ConfigError, match="outside device geometry"):
        dev.validate_address(SegmentAddress(9, 0, 0))
