"""Slot-accurate analytic performance model: iteration latency and
throughput for the quadruple-activation generator in three scheduling
modes, four baseline DRAM-TRNG configurations, transfer-rate projection,
and the controller storage budget.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .config import DramGeometry, TimingParams
from .engine import DEFAULT_T1, DEFAULT_T2
from .pipeline import WORD_BITS

__all__ = [
    "ScheduleReport",
    "QUAC_MODES",
    "BASELINE_MODES",
    "schedule",
    "baseline",
    "project",
    "idle_scaled_throughput",
    "storage_bits",
]

QUAC_MODES = ("one-bank", "bgp", "rc-bgp")
BASELINE_MODES = ("drange-basic", "drange-enhanced",
                  "talukder-basic", "talukder-enhanced")

# Fixed model constants (ns unless noted).
TCCD_L = 5.0          # same-bank-group column-to-column spacing
TWR = 15.0            # write recovery
TRCD_REDUCED = 2.5    # reduced activation-to-read delay (failure-mode reads)
COLUMN_FLOOR = 0.9    # minimum column access spacing (array-limited)
CHANNELS = 4
HASH_LATENCY_NS = 65 / 5.15   # hashing engine: 65 cycles at 5.15 GHz
HASH_GBPS = 19.7              # hashing engine throughput ceiling

READ_BLOCKS = DramGeometry().blocks_per_row   # cache blocks read out per row


@dataclass(frozen=True)
class ScheduleReport:
    """Per-iteration schedule outcome for one channel."""

    mode: str
    iteration_ns: float
    bits_per_iteration: int
    latency_256_ns: float
    hash_bottleneck: bool = False

    @property
    def throughput_gbps(self):
        return self.bits_per_iteration / self.iteration_ns


def _col_time(t):
    """Per-block column access time: bus burst, floored by the array."""
    return max(t.burst_time, COLUMN_FLOOR)


def _copy_time(t):
    """One in-DRAM row copy: the violating ACT-PRE-ACT plus full restore."""
    return DEFAULT_T1 + DEFAULT_T2 + t.tRAS + t.tRP


def _quac_core(t, banks):
    """Quadruple-activation core, interleaved over bank groups."""
    spread = (banks - 1) * t.tRRD_S if banks > 1 else 0.0
    return DEFAULT_T1 + DEFAULT_T2 + spread + t.tRCD


def schedule(mode, timings=None, sib=7):
    """Iteration latency/throughput for a quadruple-activation mode.

    one-bank: everything serialized in a single bank; writes and reads
    paced at the same-bank column spacing. bgp: four banks in four bank
    groups; initialization writes and readout share the data bus. rc-bgp:
    initialization replaced by four in-DRAM copies per bank. An iteration
    faster than the ``HASH_GBPS`` hash engine is stretched to its rate.
    """
    t = timings or TimingParams()
    if sib < 1:
        raise ValueError("sib must be >= 1")
    if mode not in QUAC_MODES:
        raise ValueError(f"unknown schedule mode {mode!r}")
    tccd = max(TCCD_L, t.burst_time)   # same-bank spacing, burst-floored
    col = _col_time(t)

    if mode == "one-bank":
        banks = 1
        init = 4 * (t.slot_time + t.tRCD + READ_BLOCKS * tccd + TWR + t.tRP)
        read = READ_BLOCKS * tccd + t.CL
        init_first = init
    elif mode == "bgp":
        banks = 4
        init = 4 * 4 * READ_BLOCKS * t.burst_time \
            + t.slot_time + t.tRCD + TWR + t.tRP
        read = banks * READ_BLOCKS * col + t.CL
        init_first = 4 * READ_BLOCKS * t.burst_time \
            + t.slot_time + t.tRCD + TWR + t.tRP
    else:  # rc-bgp
        banks = 4
        init = 4 * _copy_time(t) + (banks - 1) * t.tRRD_S
        read = banks * READ_BLOCKS * col + t.CL
        init_first = 4 * _copy_time(t)
    iteration = init + _quac_core(t, banks) + read

    # first 256-bit word: init one bank, activate, read enough blocks to
    # cover one hash input, then the pipelined hash latency
    blocks_per_word = -(-READ_BLOCKS // sib)   # ceil
    latency = init_first + (DEFAULT_T1 + DEFAULT_T2 + t.tRCD) \
        + blocks_per_word * col + t.CL + HASH_LATENCY_NS

    bits = WORD_BITS * sib * banks
    hash_bottleneck = bits / iteration > HASH_GBPS
    if hash_bottleneck:
        iteration = bits / HASH_GBPS
    return ScheduleReport(mode, iteration, bits, latency, hash_bottleneck)


def baseline(mode, timings=None):
    """Iteration latency/throughput for a baseline DRAM TRNG, computed
    with the same slot-accurate accounting.

    drange-basic: 4 metastable bits per reduced-tRCD block read, four bank
    groups in parallel. drange-enhanced: 46.55 entropy bits per block, six
    reads hashed into each 256-bit output. talukder-basic: three
    failure-mode rows (130.6 bits each) per 256-bit output, single bank,
    write-init in the cycle. talukder-enhanced: copy-initialized rows of
    1023.64 bits across four banks, bus-bound readout, hashed.
    """
    t = timings or TimingParams()
    if mode not in BASELINE_MODES:
        raise ValueError(f"unknown baseline mode {mode!r}")
    col = _col_time(t)
    burst = t.burst_time
    # reduced-tRCD read cycle of one cache block
    cycle = TRCD_REDUCED + col + t.tRP
    # one failure-mode row pass: activate under reduced timing, read back
    fail = DEFAULT_T2 + t.tRCD + t.slot_time

    if mode == "drange-basic":
        # 4 bits/block x 4 bank groups per cycle, no post-processing
        iteration = cycle
        bits = 16
        latency = 15 * cycle + TRCD_REDUCED + burst
    elif mode == "drange-enhanced":
        # 6 blocks x 46.55 bits -> 256 hashed bits, 4 bank groups
        iteration = 6 * cycle
        bits = 1024
        latency = 5 * max(t.tRRD_S, burst) + TRCD_REDUCED + burst \
            + HASH_LATENCY_NS
    elif mode == "talukder-basic":
        # 3 rows of 16 blocks each: write, fail-activate, read back
        per_row = 16 * burst + fail + 16 * burst
        iteration = 3 * per_row + t.CL
        bits = 256
        latency = 3 * (fail + 16 * burst) + t.CL
    else:  # talukder-enhanced
        # 4 banks x 32 blocks, copy-initialized; one copy exposed per cycle
        iteration = 4 * 32 * col + t.CL + _copy_time(t)
        bits = 4 * 3 * WORD_BITS
        latency = _copy_time(t) + fail + 32 * burst + t.CL + HASH_LATENCY_NS

    return ScheduleReport(mode, iteration, bits, latency)


def project(modes, transfer_rates, timings=None, sib=7):
    """Throughput per mode per transfer rate, plus ratios of the full
    ``CHANNELS``-channel quadruple-activation generator over each baseline.
    """
    t = timings or TimingParams()
    if any(r <= 0 for r in transfer_rates):
        raise ValueError("transfer rates must be > 0")
    table = {}
    for rate in transfer_rates:
        scaled = t.scaled_to(rate)
        row = {m: (schedule(m, scaled, sib) if m in QUAC_MODES
                   else baseline(m, scaled)).throughput_gbps for m in modes}
        if "rc-bgp" in modes:
            quac_all = CHANNELS * row["rc-bgp"]
            for m in modes:
                if m in BASELINE_MODES:
                    row[f"quac_vs_{m}"] = quac_all / row[m]
        table[rate] = row
    return table


def project_to_csv(path, table):
    rates = sorted(table)
    cols = list(table[rates[0]])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["transfer_rate_mts"] + cols)
        for rate in rates:
            w.writerow([rate] + [f"{table[rate][c]:.4f}" for c in cols])


def idle_scaled_throughput(per_channel_gbps, idle_fraction):
    """System throughput of ``CHANNELS`` channels when generation runs only
    during idle periods."""
    if not 0.0 <= idle_fraction <= 1.0:
        raise ValueError("idle_fraction must be in [0, 1]")
    return CHANNELS * per_channel_gbps * idle_fraction


def storage_bits(row_addr_bits=18, col_addr_bits=10, temp_ranges=10,
                 sib_max=11):
    """Controller storage for the extraction plan: 12 row addresses (four
    segments + eight source rows) plus one column address per input block
    per temperature range.
    """
    for name, val in (("row_addr_bits", row_addr_bits),
                      ("col_addr_bits", col_addr_bits),
                      ("temp_ranges", temp_ranges), ("sib_max", sib_max)):
        if val < 1:
            raise ValueError(f"{name} must be >= 1")
    return 12 * row_addr_bits + sib_max * temp_ranges * col_addr_bits
