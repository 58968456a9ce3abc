"""Pipeline tests: debiasing, hashing, bit packing, generation, buffering."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quactrng import build_device, calibrated_variation
from quactrng.config import ConfigError, SegmentAddress
from quactrng.engine import run_quac
from quactrng.entropy import build_sib_plan, characterize
from quactrng.pipeline import (ReservedLayout, RngBuffer, generate_iteration,
                               pack_bits, sha256_digest, stream_bits,
                               unpack_bits, vnc, write_ascii, write_binary)

# ---------------------------------------------------------------------------
# Von Neumann corrector
# ---------------------------------------------------------------------------


def test_vnc_documented_example():
    np.testing.assert_array_equal(vnc([0, 0, 1, 0]), [0])


def test_vnc_all_same_pairs_removed():
    assert len(vnc([0, 0, 0, 0])) == 0
    assert len(vnc([1, 1, 1, 1])) == 0


def test_vnc_mixed_pairs():
    np.testing.assert_array_equal(vnc([0, 1, 1, 0, 1, 0]), [1, 0, 0])


def test_vnc_drops_odd_trailing_bit():
    np.testing.assert_array_equal(vnc([0, 1, 1]), [1])


@given(st.lists(st.integers(0, 1), max_size=200))
@settings(max_examples=100, deadline=None)
def test_vnc_never_longer_than_half(bits):
    assert len(vnc(bits)) <= len(bits) // 2


def test_vnc_debiases_biased_source():
    rng = np.random.default_rng(123)
    bits = (rng.uniform(size=2_000_000) < 0.8).astype(np.uint8)
    out = vnc(bits)
    assert abs(out.mean() - 0.5) < 0.01


# ---------------------------------------------------------------------------
# SHA-256 and packing
# ---------------------------------------------------------------------------


def test_sha256_empty_vector():
    digest = pack_bits(sha256_digest([]))
    assert digest.hex() == ("e3b0c44298fc1c149afbf4c8996fb924"
                            "27ae41e4649b934ca495991b7852b855")


def test_sha256_abc_vector():
    bits = np.unpackbits(np.frombuffer(b"abc", dtype=np.uint8))
    digest = pack_bits(sha256_digest(bits))
    assert digest.hex() == ("ba7816bf8f01cfea414140de5dae2223"
                            "b00361a396177a9cb410ff61f20015ad")


def test_sha256_avalanche():
    rng = np.random.default_rng(7)
    base = rng.integers(0, 2, 512).astype(np.uint8)
    ref = sha256_digest(base)
    distances = []
    for _ in range(1000):
        flipped = base.copy()
        i = rng.integers(0, 512)
        flipped[i] ^= 1
        distances.append(int((sha256_digest(flipped) != ref).sum()))
    assert np.mean(distances) == pytest.approx(128, abs=8)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_pack_unpack_roundtrip(bits):
    packed = pack_bits(bits)
    np.testing.assert_array_equal(unpack_bits(packed, len(bits)), bits)


def test_unpack_too_short():
    with pytest.raises(ValueError):
        unpack_bits(b"\x00", 9)


# ---------------------------------------------------------------------------
# layout, generation, buffering
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def device():
    return build_device(variation=calibrated_variation())


def test_layout_reserves_six_rows_per_bank(device):
    layout = ReservedLayout()
    zeros, ones = layout.source_rows(device.geometry, 100)
    rows = set(SegmentAddress(0, 0, 100).rows) | {zeros, ones}
    assert len(rows) == 6
    sub = device.geometry.subarray_of_row
    assert sub(zeros) == sub(ones) == sub(400)


def test_layout_source_rows_at_subarray_edge(device):
    # last segment of a subarray: sources must fall back inside it
    seg = 127                      # rows 508..511, subarray boundary at 512
    zeros, ones = ReservedLayout().source_rows(device.geometry, seg)
    sub = device.geometry.subarray_of_row
    assert sub(zeros) == sub(ones) == sub(4 * seg)


def test_generate_iteration_word_count(device, plan):
    words = generate_iteration(device, ReservedLayout(), plan, 50.0, 0)
    sib = plan.sib(0)
    assert len(words) == 4 * sib
    assert all(w.shape == (256,) for w in words)
    assert 6514 <= 256 * len(words) <= 8814   # 7664 +/- 15%


def test_generate_iteration_deterministic(device, plan):
    a = generate_iteration(device.fork(), ReservedLayout(), plan, 50.0, 3)
    b = generate_iteration(device.fork(), ReservedLayout(), plan, 50.0, 3)
    for wa, wb in zip(a, b):
        np.testing.assert_array_equal(wa, wb)


@pytest.mark.parametrize("segments", [(100, 101), (126, 127)],
                         ids=["neighbours", "subarray-edge"])
def test_iterations_do_not_depend_on_history(device, segments):
    """Two bins on neighbouring segments: each QUAC senses into rows the
    other bin copies its pattern from. Iteration i gives the same words
    after the other bin's iterations as on a fresh device, and after every
    iteration the sources it copied from hold their 0 and 1 fills."""
    plan = build_sib_plan([characterize(device, "0111", [s])
                           for s in segments],
                          bins=[(30.0, 50.0), (50.0, 70.0)])
    assert [e["segment"].segment_index for e in plan.entries] == \
        list(segments)
    layout, busy = ReservedLayout(), device.fork()
    for i, temperature in enumerate([40.0, 60.0, 40.0, 60.0, 60.0, 40.0]):
        words = generate_iteration(busy, layout, plan, temperature, i)
        np.testing.assert_array_equal(
            words, generate_iteration(device.fork(), layout, plan,
                                      temperature, i))
        segment = segments[plan.bin_for(temperature)]
        sources = layout.source_rows(device.geometry, segment)
        for bg, bank in layout.banks:
            assert [busy.row_fill(bg, bank, r) for r in sources] == [0, 1]


@pytest.mark.parametrize("pattern", ["0111", "1000"])
def test_generate_iteration_initializes_plan_pattern(device, plan, pattern):
    """Copy initialization writes the plan's pattern: each word hashes a
    plan range of a QUAC on a segment written with that pattern."""
    if pattern != plan.pattern:
        emap = characterize(device, pattern, range(0, 1024, 64))
        plan = build_sib_plan([emap], bins=[(30.0, 90.0)])
    assert plan.pattern == pattern
    entry = plan.entries[0]
    for i in (0, 1):
        expected = []
        for bg, bank in ReservedLayout().banks:
            address = SegmentAddress(bg, bank, entry["segment"].segment_index)
            bits = run_quac(device.fork(), address, pattern=plan.pattern,
                            experiment_seed=i)
            expected += [sha256_digest(bits[start:end])
                         for start, end, _ in entry["ranges"]]
        words = generate_iteration(device.fork(), ReservedLayout(), plan,
                                   50.0, i)
        np.testing.assert_array_equal(words, expected)


@pytest.mark.parametrize("bad", ["011", "01101", "0121", ""])
def test_generate_refuses_bad_pattern(device, plan, bad):
    edited = copy.deepcopy(plan)
    edited.pattern = bad
    with pytest.raises(ConfigError, match="symbols"):
        generate_iteration(device.fork(), ReservedLayout(), edited, 50.0, 0)


def test_generate_iteration_outside_bins(device, plan):
    with pytest.raises(ValueError, match="uncharacterized temperature"):
        generate_iteration(device, ReservedLayout(), plan, 120.0, 0)


def test_generate_refuses_empty_plan(device, plan):
    crippled = copy.deepcopy(plan)
    crippled.entries[0]["ranges"] = []
    with pytest.raises(ValueError, match="insufficient entropy"):
        generate_iteration(device, ReservedLayout(), crippled, 50.0, 0)


@pytest.mark.parametrize("bad", [(0, 65537), (512, 512), (900, 400),
                                 (-256, 256)])
def test_generate_refuses_range_outside_row(device, plan, bad):
    edited = copy.deepcopy(plan)
    edited.entries[0]["ranges"][1] = (*bad, 300.0)
    with pytest.raises(ConfigError, match=rf"range \[{bad[0]}, {bad[1]}\)"):
        generate_iteration(device, ReservedLayout(), edited, 50.0, 0)


def test_buffer_invariants():
    buf = RngBuffer(capacity_bits=1024)
    word = np.zeros(256, dtype=np.uint8)
    assert buf.needs_refill
    for _ in range(4):
        assert buf.push(word)
    assert not buf.push(word)       # full
    assert buf.fill_bits == 1024
    assert not buf.needs_refill
    buf.pop()
    buf.pop()
    buf.pop()
    assert buf.needs_refill
    with pytest.raises(ValueError):
        RngBuffer(capacity_bits=100)


@given(st.integers(256, 65536))
@example(1024)                  # a mark of exactly two words
@example(1000)                  # a mark of 500 bits, between two words
@example(256)                   # a mark of half a word
@example(257)                   # an odd capacity: a mark of 128.5 bits
@settings(max_examples=100, deadline=None)
def test_needs_refill_is_the_low_water_compare(capacity_bits):
    buf = RngBuffer(capacity_bits)
    word = np.zeros(256, dtype=np.uint8)
    while True:
        assert buf.needs_refill == (buf.fill_bits < 0.5 * capacity_bits)
        if not buf.push(word):
            break
    # the mark is positive, so an empty buffer always needs a refill
    assert RngBuffer(capacity_bits).needs_refill


# key-sized requests, with the word edges
KEY_SIZES = [1, 32, 255, 256, 257, 128, 512, 64, 300] * 20


@pytest.mark.parametrize("capacity_bits", [256, None])
def test_returned_bits_alias_no_buffered_word(device, plan, capacity_bits):
    """A returned array shares no memory with a buffered word, so writing
    into it changes no later request's bits."""
    def serve(scribble):
        buf = RngBuffer() if capacity_bits is None \
            else RngBuffer(capacity_bits)
        replay, iteration, served = device.fork(), 0, []
        for n_bits in KEY_SIZES:
            bits, iteration = stream_bits(replay, ReservedLayout(), plan,
                                          n_bits, buf, 50.0, iteration)
            assert not any(np.shares_memory(bits, w) for w in buf._words)
            served.append(bits.copy())
            if scribble:
                bits ^= 1
        return served

    for clean, scribbled in zip(serve(False), serve(True)):
        np.testing.assert_array_equal(clean, scribbled)


def test_stream_exact_length(device, plan):
    bits, _ = stream_bits(device.fork(), ReservedLayout(), plan, 256)
    assert bits.shape == (256,)
    bits, _ = stream_bits(device.fork(), ReservedLayout(), plan, 10_001)
    assert bits.shape == (10_001,)


def test_stream_rejects_nonpositive(device, plan):
    with pytest.raises(ValueError):
        stream_bits(device, ReservedLayout(), plan, 0)


def test_stream_refill_cycles_logged(device, plan):
    """A burst read of twice the buffer capacity needs at least two refill
    cycles; each is recorded in the buffer event log.
    """
    buf = RngBuffer(capacity_bits=8192)
    stream_bits(device.fork(), ReservedLayout(), plan, 16384, buffer=buf)
    refills = [e for e in buf.events if e[0] == "refill"]
    assert len(refills) >= 2


@pytest.mark.parametrize("capacity_bits", [256, 1024, 4096, None])
def test_stream_preserves_production_order(device, plan, capacity_bits):
    """The buffer is FIFO: with or without spills, the stream is the
    generated words in the order the iterations produced them.
    """
    buf = RngBuffer() if capacity_bits is None else RngBuffer(capacity_bits)
    n_bits = 20_000
    bits, next_iteration = stream_bits(device.fork(), ReservedLayout(), plan,
                                       n_bits, buffer=buf)
    replay = device.fork()
    words = [w for i in range(next_iteration)
             for w in generate_iteration(replay, ReservedLayout(), plan,
                                         50.0, i)]
    np.testing.assert_array_equal(bits, np.concatenate(words)[:n_bits])


def test_stream_deterministic(device, plan):
    a, _ = stream_bits(device.fork(), ReservedLayout(), plan, 20_000)
    b, _ = stream_bits(device.fork(), ReservedLayout(), plan, 20_000)
    np.testing.assert_array_equal(a, b)


def test_file_outputs(tmp_path):
    bits = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
    bin_path = tmp_path / "bits.bin"
    txt_path = tmp_path / "bits.txt"
    write_binary(bin_path, bits)
    write_ascii(txt_path, bits)
    assert bin_path.read_bytes() == bytes([0b10110001, 0b10000000])
    assert txt_path.read_text().strip() == "101100011"


def _joined_ascii(bits):
    """The character-by-character export ``write_ascii`` must match."""
    return ("".join("1" if b else "0" for b in bits) + "\n").encode()


@pytest.mark.parametrize("bits", [
    pytest.param(np.random.default_rng(3).integers(0, 2, 10_001,
                                                   dtype=np.uint8), id="random"),
    pytest.param(np.zeros(4096, dtype=np.uint8), id="zeros"),
    pytest.param(np.ones(4096, dtype=np.uint8), id="ones"),
    pytest.param(np.array([0], dtype=np.uint8), id="single-0"),
    pytest.param(np.array([1], dtype=np.uint8), id="single-1"),
])
def test_write_ascii_matches_character_join(tmp_path, bits):
    path = tmp_path / "bits.txt"
    write_ascii(path, bits)
    assert path.read_bytes() == _joined_ascii(bits)
