"""Statistical test suite checks against published worked examples,
closed-form sequences, and a reference PRNG.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from quactrng.sts import (approximate_entropy, block_frequency,
                          cumulative_sums, longest_run, monobit,
                          population_pass, reports_to_csv, run_tests,
                          runs_test, serial)

# 100-bit binary expansion of pi, the SP 800-22 worked example input.
PI_BITS = np.array([int(c) for c in
                    "1100100100001111110110101010001000100001011010001100"
                    "001000110100110001001100011001100010100010111000"],
                   dtype=np.uint8)

# 128-bit worked example input for the longest-run test.
LONGRUN_BITS = np.array([int(c) for c in
                         "11001100000101010110110001001100111000000000001001"
                         "00110101010001000100111101011010000000110101111100"
                         "1100111001101101100010110010"], dtype=np.uint8)


def test_monobit_worked_example():
    assert monobit(PI_BITS) == pytest.approx(0.109599, abs=1e-6)


def test_block_frequency_worked_example():
    # two 128-bit blocks holding 80 and 64 ones: chi^2 = 4 * 128 * 0.125^2
    # = 8 on two degrees of freedom, so p = exp(-8 / 2)
    bits = np.zeros(256, dtype=np.uint8)
    bits[:80] = bits[128:192] = 1
    assert block_frequency(bits) == pytest.approx(math.exp(-4.0), rel=1e-12)
    with pytest.raises(ValueError, match="shorter than one block"):
        block_frequency(PI_BITS)


def test_runs_worked_example():
    assert runs_test(PI_BITS) == pytest.approx(0.500798, abs=1e-6)


def test_cumulative_sums_worked_example():
    assert cumulative_sums(PI_BITS, True) == pytest.approx(0.219194, abs=1e-6)
    assert cumulative_sums(PI_BITS, False) == pytest.approx(0.114866,
                                                            abs=1e-6)


def test_longest_run_worked_example():
    assert longest_run(LONGRUN_BITS) == pytest.approx(0.1806, abs=5e-4)


def test_alternating_sequence():
    """Perfectly alternating bits: exactly balanced (monobit p = 1) but a
    run on every bit, so the runs test fails catastrophically.
    """
    bits = np.tile([0, 1], 500_000).astype(np.uint8)
    assert monobit(bits) == pytest.approx(1.0)
    assert runs_test(bits) < 1e-6


def test_all_zeros_fails_monobit():
    bits = np.zeros(1_000_000, dtype=np.uint8)
    assert monobit(bits) < 1e-6


@pytest.mark.parametrize("fill", [0, 1])
@pytest.mark.parametrize("n", range(1, 17))
def test_runs_constant_short_sequence(n, fill):
    """A constant sequence of 15 bits or fewer passes the frequency
    prerequisite; its runs p-value is still 0, as erfc(+inf) gives."""
    bits = np.full(n, fill, dtype=np.uint8)
    assert runs_test(bits) == 0.0
    assert run_tests(bits).p_value("runs") == 0.0


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        monobit(np.array([], dtype=np.uint8))


def test_monobit_complement_invariant():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, 10_000).astype(np.uint8)
    assert monobit(bits) == pytest.approx(monobit(1 - bits))


@given(st.lists(st.integers(0, 1), min_size=200, max_size=400))
@settings(max_examples=50, deadline=None)
def test_p_values_in_unit_interval(bits):
    bits = np.array(bits, dtype=np.uint8)
    for p in (monobit(bits), runs_test(bits), block_frequency(bits),
              cumulative_sums(bits, True), cumulative_sums(bits, False)):
        assert 0.0 <= p <= 1.0


def test_run_tests_full_subset_on_long_input():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, 1_000_000).astype(np.uint8)
    report = run_tests(bits)
    names = {n for n, _ in report.results}
    assert names == {"monobit", "block-frequency", "longest-run", "runs",
                     "cumulative-sums-forward", "cumulative-sums-backward",
                     "serial-1", "serial-2", "approximate-entropy"}
    assert report.all_pass
    assert report.context["skipped"] == []


def test_run_tests_short_input_flags_skips():
    rng = np.random.default_rng(2)
    report = run_tests(rng.integers(0, 2, 10_000).astype(np.uint8))
    assert "serial-1" in report.context["skipped"]
    assert "approximate-entropy" in report.context["skipped"]


def test_reference_prng_p_values_uniform():
    """Self-calibration: over 200 reference-PRNG sequences, each test's
    p-values are uniform by a 10-bin chi-square at alpha = 0.001.
    """
    rng = np.random.default_rng(20240824)
    names = ["monobit", "runs", "block-frequency",
             "cumulative-sums-forward", "longest-run"]
    collected = {n: [] for n in names}
    for _ in range(200):
        bits = rng.integers(0, 2, 50_000).astype(np.uint8)
        collected["monobit"].append(monobit(bits))
        collected["runs"].append(runs_test(bits))
        collected["block-frequency"].append(block_frequency(bits))
        collected["cumulative-sums-forward"].append(
            cumulative_sums(bits, True))
        collected["longest-run"].append(longest_run(bits))
    for name, ps in collected.items():
        counts, _ = np.histogram(ps, bins=10, range=(0.0, 1.0))
        _, p = chisquare(counts)
        assert p > 0.001, f"{name} p-values not uniform (GOF p={p:.2g})"


def test_serial_and_apen_on_reference_prng():
    rng = np.random.default_rng(99)
    bits = rng.integers(0, 2, 1_000_000).astype(np.uint8)
    p1, p2 = serial(bits)
    assert p1 > 0.001 and p2 > 0.001
    assert approximate_entropy(bits) > 0.001


def test_population_threshold_value():
    reports = [run_tests(np.random.default_rng(s).integers(0, 2, 2000)
                         .astype(np.uint8)) for s in range(4)]
    _, details = population_pass(reports, alpha_pop=0.005)
    # the published threshold at k=1024, alpha=0.005
    import math
    k = 1024
    thr = (1 - 0.005) - 3 * math.sqrt(0.005 * 0.995 / k)
    assert thr == pytest.approx(0.9884, abs=5e-5)


def test_population_pass_verdicts():
    rng = np.random.default_rng(3)
    good = [run_tests(rng.integers(0, 2, 20_000).astype(np.uint8))
            for _ in range(8)]
    verdict, details = population_pass(good)
    assert verdict
    assert all(f >= t for f, t in details.values())
    bad = good[:-1] + [run_tests(np.zeros(20_000, dtype=np.uint8))]
    verdict, _ = population_pass(bad)
    assert not verdict


def test_population_requires_two(recwarn):
    with pytest.raises(ValueError):
        population_pass([run_tests(np.random.default_rng(0)
                                   .integers(0, 2, 2000).astype(np.uint8))])


def test_report_serialization(tmp_path):
    rng = np.random.default_rng(8)
    reports = [run_tests(rng.integers(0, 2, 20_000).astype(np.uint8))
               for _ in range(3)]
    json_path = tmp_path / "report.json"
    json_path.write_text(json.dumps(reports[0].to_dict()))
    assert "results" in json_path.read_text()
    csv_path = tmp_path / "report.csv"
    reports_to_csv(csv_path, reports)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("test,mean_p_value_all,mean_p_value_passing")
    assert len(lines) == 1 + len(reports[0].results)
