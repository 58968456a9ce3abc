"""End-to-end random number pipeline: reserved-row initialization by
in-DRAM copy, quadruple activation across four bank groups, plan-driven
block extraction, SHA-256 whitening, and a small FIFO output buffer.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, DataPattern, SegmentAddress
from .engine import copy_row, run_quac

__all__ = [
    "ReservedLayout",
    "RngBuffer",
    "generate_iteration",
    "vnc",
    "sha256_digest",
    "stream_bits",
    "pack_bits",
    "unpack_bits",
    "write_binary",
    "write_ascii",
]

WORD_BITS = 256


def pack_bits(bits):
    """Pack a 0/1 array into bytes, MSB first; the last byte is zero-padded."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits).tobytes()


def unpack_bits(data, n_bits):
    """Unpack bytes (MSB first) into a 0/1 uint8 array of length n_bits."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if n_bits > len(bits):
        raise ValueError("not enough bytes for the requested bit count")
    return bits[:n_bits]


def sha256_digest(message_bits):
    """SHA-256 digest of a bit message, returned as a 256-bit 0/1 array.

    The message is byte-packed MSB first (zero-padding any final partial
    byte) and hashed with the standard library's FIPS 180-4 implementation.
    """
    digest = hashlib.sha256(pack_bits(message_bits)).digest()
    return unpack_bits(digest, WORD_BITS)


def vnc(bits):
    """Von Neumann corrector: scan non-overlapping pairs, emit 1 for "01",
    0 for "10", nothing for "00"/"11"; an odd trailing bit is dropped.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = len(bits) - (len(bits) % 2)
    first, second = bits[0:n:2], bits[1:n:2]
    return second[first != second].copy()


class ReservedLayout:
    """Rows the pipeline owns: in each of the four bank groups, one bank
    contributes one four-row segment plus two source rows (one all-0s, one
    all-1s) in the same subarray — six reserved rows per bank.
    """

    banks = ((0, 0), (1, 0), (2, 0), (3, 0))

    def source_rows(self, geometry, segment_index):
        """(all_zeros_row, all_ones_row) in the segment's subarray."""
        base = 4 * segment_index
        zeros, ones = base + 4, base + 5
        if geometry.subarray_of_row(ones) != geometry.subarray_of_row(base):
            zeros, ones = base - 2, base - 1
        return zeros, ones

    def ensure_sources(self, device, segment_index):
        """Write each source row that does not hold its fill (never
        written, or overwritten since, e.g. by a QUAC on a neighbouring
        segment); returns the :meth:`source_rows` pair ``(zeros, ones)``."""
        sources = self.source_rows(device.geometry, segment_index)
        for bg, bank in self.banks:
            for fill, row in enumerate(sources):
                if device.row_fill(bg, bank, row) != fill:
                    device.write_row(bg, bank, row, fill)
        return sources


def generate_iteration(device, layout, plan, temperature=50.0, iteration=0):
    """Run one full pipeline iteration; returns a list of 256-bit words
    (0/1 uint8 arrays), 4 x SIB of them.

    Per bank: each segment row is initialized to the plan's pattern by
    in-DRAM copy from the all-0s or all-1s source row (row 0 from all-0s
    and rows 1-3 from all-1s for "0111"), a quadruple activation is
    performed, the plan's column ranges are read out, and each range is
    hashed into one 256-bit word.
    """
    bin_index = plan.bin_for(temperature)
    entry = plan.entries[bin_index]
    ranges = entry["ranges"]
    if not ranges:
        raise ValueError("insufficient entropy: plan bin has zero input blocks")
    n = device.geometry.bitlines_per_row
    for start, end, _ in ranges:
        if not 0 <= start < end <= n:
            raise ConfigError(
                f"plan bin {bin_index}: range [{start}, {end}) is not a "
                f"non-empty column range of the {n}-bitline row")
    fills = DataPattern(plan.pattern).fills
    seg_index = entry["segment"].segment_index
    sources = layout.ensure_sources(device, seg_index)

    words = []
    for bg, bank in layout.banks:
        address = SegmentAddress(bg, bank, seg_index)
        for row, fill in zip(address.rows, fills):
            copy_row(device, bg, bank, sources[fill], row)
        bits = run_quac(device, address, pattern=None,
                        experiment_seed=iteration, temperature=temperature)
        for start, end, _ in ranges:
            words.append(sha256_digest(bits[start:end]))
    return words


@dataclass
class RngBuffer:
    """Bounded FIFO of 256-bit words with a low-water refill policy.

    The buffer needs a refill while it holds fewer than half of
    ``capacity_bits``, so an empty buffer always needs one. While the buffer
    is at or above that mark, :func:`stream_bits` serves a request by
    popping words and does no refill work.
    """

    capacity_bits: int = 16384
    _words: deque = field(default_factory=deque)
    events: list = field(default_factory=list)

    def __post_init__(self):
        if self.capacity_bits < WORD_BITS:
            raise ValueError("capacity_bits must hold at least one word")

    @property
    def fill_bits(self):
        return WORD_BITS * len(self._words)

    @property
    def needs_refill(self):
        # fill < capacity / 2, in integers
        return 2 * WORD_BITS * len(self._words) < self.capacity_bits

    def push(self, word):
        if self.fill_bits + WORD_BITS > self.capacity_bits:
            return False
        self._words.append(word)
        return True

    def pop(self):
        if not self._words:
            raise IndexError("buffer empty")
        return self._words.popleft()


def stream_bits(device, layout, plan, n_bits, buffer=None, temperature=50.0,
                start_iteration=0):
    """Produce exactly ``n_bits`` of output through the FIFO buffer.

    A request is served by popping whole words. While the buffer is at or
    above its refill mark that is all it costs, and a one-word request
    returns a view of the popped word, which no buffered word shares.
    Whenever the buffer drops below the mark, full iterations run until the
    buffer is full again (each refill is recorded in ``buffer.events``).
    Words leave in the order they were generated: a word that finds the
    buffer full pushes out the oldest buffered word. Returns (bits,
    next_iteration).

    Iterations are numbered from ``start_iteration``, and each number fixes
    its words, on a multi-bin plan too: each iteration rewrites the source
    rows a QUAC on a neighbouring segment overwrote. A caller making
    several requests must pass the returned ``next_iteration`` back in:
    otherwise a later request replays words already served (two fresh
    calls return identical bits).
    """
    if n_bits <= 0:
        raise ValueError("n_bits must be > 0")
    if buffer is None:
        buffer = RngBuffer()
    out = []
    n_words = -(-n_bits // WORD_BITS)
    iteration = start_iteration
    while len(out) < n_words:
        if buffer.needs_refill:
            buffer.events.append(("refill", iteration))
            while True:
                words = generate_iteration(device, layout, plan,
                                           temperature=temperature,
                                           iteration=iteration)
                iteration += 1
                full = False
                for w in words:
                    if not buffer.push(w):
                        # buffer full: the oldest word spills to the output
                        out.append(buffer.pop())
                        buffer.push(w)
                        full = True
                if full or not buffer.needs_refill:
                    break
        out.append(buffer.pop())
    bits = out[0] if len(out) == 1 else np.concatenate(out)
    return bits[:n_bits], iteration


def write_binary(path, bits):
    """Write a bitstream as packed flat binary (MSB first)."""
    with open(path, "wb") as fh:
        fh.write(pack_bits(bits))


def write_ascii(path, bits):
    """Write a bitstream as ASCII '0'/'1' characters (external test suites)."""
    digits = (np.asarray(bits, dtype=np.uint8) != 0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write((digits + ord("0")).tobytes())
        fh.write(b"\n")
