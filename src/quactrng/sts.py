"""Statistical randomness tests (a closed-form subset of NIST SP 800-22)
with p-value computation and the population pass-rate criterion.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, gammaincc
from scipy.stats import norm

__all__ = [
    "TestReport",
    "run_tests",
    "population_pass",
    "monobit",
    "block_frequency",
    "runs_test",
    "longest_run",
    "cumulative_sums",
    "serial",
    "approximate_entropy",
]

DEFAULT_ALPHA = 0.001
# Block and pattern lengths: the NIST SP 800-22 reference tool's defaults.
BLOCK_FREQUENCY_M = 128
SERIAL_M = 16
APEN_M = 10


def _as_bits(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size == 0:
        raise ValueError("bit sequence must be non-empty")
    if np.any(bits > 1):
        raise ValueError("bits must be 0 or 1")
    return bits


def monobit(bits):
    """Frequency (monobit) test p-value."""
    bits = _as_bits(bits)
    n = len(bits)
    s = abs(int(2 * int(bits.sum()) - n))
    return float(erfc(s / math.sqrt(n) / math.sqrt(2.0)))


def block_frequency(bits):
    """Frequency-within-block test p-value on ``BLOCK_FREQUENCY_M`` bits."""
    bits = _as_bits(bits)
    m = BLOCK_FREQUENCY_M
    n_blocks = len(bits) // m
    if n_blocks < 1:
        raise ValueError("sequence shorter than one block")
    pi = bits[:n_blocks * m].reshape(n_blocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(((pi - 0.5) ** 2).sum())
    return float(gammaincc(n_blocks / 2.0, chi2 / 2.0))


def runs_test(bits):
    """Runs test p-value (total number of runs against expectation)."""
    bits = _as_bits(bits)
    n = len(bits)
    pi = float(bits.mean())
    # a constant sequence of 15 bits or fewer passes the frequency
    # prerequisite (2 / sqrt(n) > 1/2) but has no variance: erfc(+inf) = 0
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi in (0.0, 1.0):
        return 0.0
    v = 1 + int((bits[1:] != bits[:-1]).sum())
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(erfc(num / den))


# (min_length, block_size, max-run class edges, class probabilities)
_LONGEST_RUN_TABLES = [
    (750000, 10000, (10, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, (4, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, (1, 4),
     (0.2148, 0.3672, 0.2305, 0.1875)),
]


def longest_run(bits):
    """Longest-run-of-ones-in-a-block test p-value."""
    bits = _as_bits(bits)
    n = len(bits)
    for min_n, m, (lo, hi), pis in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    else:
        raise ValueError("sequence too short for the longest-run test")
    n_blocks = n // m
    blocks = bits[:n_blocks * m].reshape(n_blocks, m)
    # longest run of ones per block via a vectorized running-run counter
    longest = np.zeros(n_blocks, dtype=np.int64)
    run = np.zeros(n_blocks, dtype=np.int64)
    for j in range(m):
        run = np.where(blocks[:, j] == 1, run + 1, 0)
        longest = np.maximum(longest, run)
    classes = np.clip(longest, lo, hi) - lo
    v = np.bincount(classes, minlength=hi - lo + 1)
    expected = n_blocks * np.asarray(pis)
    chi2 = float(((v - expected) ** 2 / expected).sum())
    k = len(pis) - 1
    return float(gammaincc(k / 2.0, chi2 / 2.0))


def cumulative_sums(bits, forward=True):
    """Cumulative-sums test p-value in one direction."""
    bits = _as_bits(bits)
    n = len(bits)
    x = 2.0 * bits.astype(np.float64) - 1.0
    if not forward:
        x = x[::-1]
    s = np.cumsum(x)
    z = float(np.abs(s).max())   # >= |s[0]| = 1
    sqrt_n = math.sqrt(n)
    k1 = np.arange(int((-n / z + 1) // 4), int((n / z - 1) // 4) + 1)
    term1 = (norm.cdf((4 * k1 + 1) * z / sqrt_n)
             - norm.cdf((4 * k1 - 1) * z / sqrt_n)).sum()
    k2 = np.arange(int((-n / z - 3) // 4), int((n / z - 1) // 4) + 1)
    term2 = (norm.cdf((4 * k2 + 3) * z / sqrt_n)
             - norm.cdf((4 * k2 + 1) * z / sqrt_n)).sum()
    p = 1.0 - term1 + term2
    return float(min(max(p, 0.0), 1.0))


def _overlap_counts(bits, m):
    """Counts of all overlapping m-bit words with wraparound."""
    n = len(bits)
    ext = np.concatenate([bits, bits[:m - 1]]).astype(np.int64)
    words = np.zeros(n, dtype=np.int64)
    for i in range(m):
        words = (words << 1) | ext[i:i + n]
    return np.bincount(words, minlength=2 ** m)


def _psi_sq(bits, m):
    counts = _overlap_counts(bits, m)
    n = len(bits)
    return float((counts.astype(np.float64) ** 2).sum() * (2 ** m) / n - n)


def serial(bits):
    """Serial test at m = ``SERIAL_M``; returns (p_value_1, p_value_2)."""
    bits = _as_bits(bits)
    m = SERIAL_M
    psi_m = _psi_sq(bits, m)
    psi_m1 = _psi_sq(bits, m - 1)
    psi_m2 = _psi_sq(bits, m - 2)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = float(gammaincc(2 ** (m - 2), d1 / 2.0))
    p2 = float(gammaincc(2 ** (m - 3), d2 / 2.0))
    return p1, p2


def approximate_entropy(bits):
    """Approximate-entropy test p-value at m = ``APEN_M``."""
    bits = _as_bits(bits)
    n, m = len(bits), APEN_M

    def phi(mm):
        counts = _overlap_counts(bits, mm)
        c = counts[counts > 0].astype(np.float64) / n
        return float((c * np.log(c)).sum())

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return float(gammaincc(2 ** (m - 1), chi2 / 2.0))


@dataclass
class TestReport:
    """Results of one sequence under the test subset."""

    results: list                      # (name, p_value) tuples
    alpha: float = DEFAULT_ALPHA
    context: dict = field(default_factory=dict)

    def p_value(self, name):
        for n, p in self.results:
            if n == name:
                return p
        raise KeyError(name)

    @property
    def all_pass(self):
        return all(p > self.alpha for _, p in self.results)

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "context": self.context,
            "results": [
                {"test": n, "p_value": p, "pass": bool(p > self.alpha)}
                for n, p in self.results
            ],
        }


def run_tests(bits, alpha=DEFAULT_ALPHA):
    """Run the full subset on one sequence and return a TestReport.

    Sequences shorter than 1 Mbit run only the length-appropriate tests;
    the report's context records any skipped tests.
    """
    bits = _as_bits(bits)
    n = len(bits)
    results = [("monobit", monobit(bits))]
    skipped = []
    if n >= BLOCK_FREQUENCY_M:
        results.append(("block-frequency", block_frequency(bits)))
        results.append(("longest-run", longest_run(bits)))
    else:
        skipped += ["block-frequency", "longest-run"]
    results.append(("runs", runs_test(bits)))
    results.append(("cumulative-sums-forward", cumulative_sums(bits, True)))
    results.append(("cumulative-sums-backward", cumulative_sums(bits, False)))
    if n >= 1000000:
        p1, p2 = serial(bits)
        results.append(("serial-1", p1))
        results.append(("serial-2", p2))
        results.append(("approximate-entropy", approximate_entropy(bits)))
    else:
        skipped += ["serial-1", "serial-2", "approximate-entropy"]
    return TestReport(results=results, alpha=alpha,
                      context={"length": n, "skipped": skipped})


def population_pass(reports, alpha_pop=0.005):
    """Judge a population of sequences: per test, the pass fraction must
    clear (1 - alpha_pop) - 3*sqrt(alpha_pop*(1 - alpha_pop)/k).

    Returns (verdict, details) where details maps each test name to
    (pass_fraction, threshold).
    """
    if len(reports) < 2:
        raise ValueError("population criterion needs at least 2 sequences")
    k = len(reports)
    threshold = (1.0 - alpha_pop) \
        - 3.0 * math.sqrt(alpha_pop * (1.0 - alpha_pop) / k)
    names = [n for n, _ in reports[0].results]
    details = {}
    verdict = True
    for name in names:
        frac = sum(r.p_value(name) > alpha_pop for r in reports) / k
        details[name] = (frac, threshold)
        if frac < threshold:
            verdict = False
    return verdict, details


def reports_to_csv(path, reports):
    """Table-shaped CSV: per test, mean p-value over all sequences and over
    passing sequences only.
    """
    names = [n for n, _ in reports[0].results]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["test", "mean_p_value_all", "mean_p_value_passing",
                    "pass_fraction"])
        for name in names:
            ps = np.array([r.p_value(name) for r in reports])
            alpha = reports[0].alpha
            passing = ps[ps > alpha]
            w.writerow([
                name,
                f"{ps.mean():.6f}",
                f"{passing.mean():.6f}" if len(passing) else "",
                f"{(ps > alpha).mean():.6f}",
            ])
