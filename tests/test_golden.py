"""Golden outputs: pinned bytes and exact values of the generation,
characterization, trace, calibration and timing-model paths.

A change that keeps behaviour leaves every value here unchanged. A
deliberate change to any output re-pins the affected value and records
why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from quactrng import build_device, calibrated_variation
from quactrng.calibrate import expected_bitline_entropy
from quactrng.config import SegmentAddress
from quactrng.engine import Command, execute_trace, run_quac
from quactrng.entropy import (build_sib_plan, characterize,
                              default_temperature_bins)
from quactrng.perf import baseline, schedule
from quactrng.pipeline import ReservedLayout, RngBuffer, pack_bits, stream_bits


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture()
def device():
    return build_device(variation=calibrated_variation())


def test_golden_stream(device):
    emap = characterize(device, "0111", range(0, 1024, 16))
    plan = build_sib_plan([emap], bins=[(30.0, 90.0)])
    assert plan.entries[0]["segment"].segment_index == 928
    assert plan.sib(0) == 7
    bits, next_iteration = stream_bits(device, ReservedLayout(), plan, 2 ** 20)
    assert next_iteration == 148
    assert sha256_hex(pack_bits(bits)) == (
        "f689700f9f676b5f6c946c63e4b96492d3c748faee52d6d4dc86027658ebe391")


# (bits, temperature) per request: the temperature moves within a bin and
# crosses between the two bins in both directions.
DRIFT_REQUESTS = [(40000, 44.0), (40000, 47.5), (40000, 44.0), (60000, 53.0),
                  (30000, 58.5), (50000, 45.0), (40000, 55.0)]


def test_golden_stream_drift(device):
    bins = default_temperature_bins(40.0, 60.0, 2)
    maps = [characterize(device, "0111", range(start, start + 512, 32),
                         temperature=(lo + hi) / 2.0)
            for start, (lo, hi) in zip((0, 512), bins)]
    plan = build_sib_plan(maps, bins)
    assert [e["segment"].segment_index for e in plan.entries] == [352, 928]
    layout, buffer = ReservedLayout(), RngBuffer()
    out, iteration = [], 0
    for n_bits, temperature in DRIFT_REQUESTS:
        bits, iteration = stream_bits(device, layout, plan, n_bits, buffer,
                                      temperature, iteration)
        out.append(bits)
    assert iteration == 44
    assert sha256_hex(pack_bits(np.concatenate(out))) == (
        "9f462d6e79967ad237bd3c55c5d849ffc1c10471b4186340c3fe32e43a564b2f")


def key_sized_requests():
    """About 3000 seeded key-sized requests of 1-300 bits, with the word
    edges 1, 255, 256, 257 and 512 among them."""
    sizes = np.random.default_rng(2021).integers(1, 301, 3000).tolist()
    for position, n_bits in zip((0, 700, 1400, 2100, 2800),
                                (1, 255, 256, 257, 512)):
        sizes.insert(position, n_bits)
    return sizes


def test_golden_key_sized_requests(device):
    emap = characterize(device, "0111", range(0, 1024, 16))
    plan = build_sib_plan([emap], bins=[(30.0, 90.0)])
    layout, buffer = ReservedLayout(), RngBuffer()
    out, iteration = [], 0
    for n_bits in key_sized_requests():
        bits, iteration = stream_bits(device, layout, plan, n_bits, buffer,
                                      50.0, iteration)
        assert bits.shape == (n_bits,)
        out.append(bits)
    assert iteration == 124
    assert sha256_hex(pack_bits(np.concatenate(out))) == (
        "d07ed170bd8d6c68f2fd6575fb02e13fe9ad310e8fda10b8d3aa1e1386e28bca")


@pytest.mark.parametrize("method,trials,digest", [
    pytest.param(
        "exact", 50,
        "60367f1eb5238e660e04bce8c8d7b2de1b95115ba2c0503d58f1a0a3d467e3d0",
        id="exact"),
    pytest.param(
        "binomial", 1000,
        "115c006fb3e781e562750aa118c1de9f98f8af6ab91942d76066a348cf803605",
        id="binomial"),
    pytest.param(
        "analytic", 1000,
        "eec8c34443deaafc655064b3bdee17e2a27eed99521e702b9f27d78af0392efc",
        id="analytic"),
])
def test_golden_bitline_map(device, method, trials, digest):
    emap = characterize(device, "0111", range(0, 512, 32), trials=trials,
                        method=method)
    assert emap.bitline.dtype == np.float32
    assert sha256_hex(emap.bitline.tobytes()) == digest


# 16 x 65536 float32 -0.0: every bitline of these patterns senses the same
# value on every trial, and H(0) comes out as -0.0.
SATURATED_MAP = (
    "a98912497768f8c3bebf5b45c21c6073a81f63d9e34f50e75d278c1e343facc8")


@pytest.mark.parametrize("method", ["binomial", "analytic"])
@pytest.mark.parametrize("pattern", ["1011", "0000"])
def test_golden_saturated_map(device, pattern, method):
    emap = characterize(device, pattern, range(0, 512, 32), method=method)
    assert sha256_hex(emap.bitline.tobytes()) == SATURATED_MAP


def test_golden_trace_payload(device):
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
    result = execute_trace(device.fork(), cmds)
    assert sha256_hex(pack_bits(result.payload_bits())) == (
        "6f24dbacb849729c4bfa8f97c3be37f69d7a4915e5a8bfa4d3238806902d6658")
    # the trace senses the QUAC once, on the stream run_quac draws from
    np.testing.assert_array_equal(
        result.payload_bits(),
        run_quac(device, SegmentAddress(0, 0, 3), "0111")[:512])
    assert result.bus_busy_ns == 1739.9999999999998


BIASES = [0.0, 1.0, 2.5, 4.0, 6.0]


def test_golden_expected_entropy_finite_trials():
    assert expected_bitline_entropy(BIASES, trials=1000).tolist() == [
        0.7206245061537075, 0.5665141821342595, 0.15958265756649306,
        0.01486987759000149, 0.00010365881315608897]


def test_golden_expected_entropy_analytic():
    assert expected_bitline_entropy(BIASES, trials=None).tolist() == [
        0.7213475204444808, 0.5672384588693415, 0.16024530356954955,
        0.015179695108504636, 0.00011719437267006527]


@pytest.mark.parametrize("mode,iteration_ns", [
    ("one-bank", 3413.5833333333335),
    ("bgp", 8619.916666666666),
    ("rc-bgp", 1958.9166666666667),
])
def test_golden_schedule_iteration(mode, iteration_ns):
    assert schedule(mode).iteration_ns == iteration_ns


@pytest.mark.parametrize("mode,iteration_ns", [
    ("drange-basic", 19.333333333333336),
    ("drange-enhanced", 116.00000000000001),
    ("talukder-basic", 391.75),
    ("talukder-enhanced", 490.9166666666667),
])
def test_golden_baseline_iteration(mode, iteration_ns):
    assert baseline(mode).iteration_ns == iteration_ns
