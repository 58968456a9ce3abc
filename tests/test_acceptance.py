"""Acceptance suite: end-to-end checks of the calibrated simulator against
the published characterization scale, output quality, and the performance
model, each with its stated tolerance.
"""

import math

import numpy as np
import pytest

from quactrng import build_device, calibrated_variation
from quactrng.config import DataPattern, TimingParams
from quactrng.device import DecoderState, decoder_step
from quactrng.entropy import bitline_entropy, characterize, spatial_profile
from quactrng.perf import baseline, idle_scaled_throughput, project, schedule
from quactrng.pipeline import (ReservedLayout, pack_bits, sha256_digest,
                               stream_bits, vnc)
from quactrng.sts import monobit, population_pass, run_tests

TIMINGS = TimingParams()


def _report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def device():
    return build_device(variation=calibrated_variation())


def test_01_decoder_truth(device):
    """All 16 ordered low-bit pairs under violated timings; all pairs
    under legal timings."""
    quad_pairs = 0
    for first in range(4):
        for second in range(4):
            state = DecoderState()
            state, _ = decoder_step(state, ("ACT", first), 0.0, TIMINGS)
            state, _ = decoder_step(state, ("PRE",), 2.5, TIMINGS)
            try:
                _, active = decoder_step(state, ("ACT", second), 5.0, TIMINGS)
            except Exception:
                continue
            if len(active) == 4:
                quad_pairs += 1
                assert second == 3 - first
    legal_ok = True
    for first in range(4):
        for second in range(4):
            state = DecoderState()
            state, a1 = decoder_step(state, ("ACT", first), 0.0, TIMINGS)
            state, a2 = decoder_step(state, ("PRE",), TIMINGS.tRAS, TIMINGS)
            state, a3 = decoder_step(state, ("ACT", second),
                                     TIMINGS.tRAS + TIMINGS.tRP, TIMINGS)
            legal_ok &= max(len(a1), len(a2), len(a3)) <= 1
    _report(1, quad_pairs == 4 and legal_ok,
            f"{quad_pairs}/4 complementary pairs quad-activate; "
            f"legal timing max 1 row: {legal_ok}")


def test_02_pattern_ordering(device):
    """Pattern sweep over a 512-segment bank: "0111"/"1000" rank top-2;
    "0111" mean cache-block entropy in 11.07 +/- 20%; "1011" <= 1 bit."""
    means = {}
    for pattern in DataPattern.all_patterns():
        emap = characterize(device, pattern, range(512), trials=1000)
        means[str(pattern)] = float(emap.block_entropy.mean())
    ranked = sorted(means, key=means.get, reverse=True)
    top2_ok = set(ranked[:2]) == {"0111", "1000"}
    mean_0111 = means["0111"]
    in_band = 11.07 * 0.8 <= mean_0111 <= 11.07 * 1.2
    low_1011 = means["1011"] <= 1.0
    _report(2, top2_ok and in_band and low_1011,
            f"top2={ranked[:2]}, 0111 mean={mean_0111:.2f} bits, "
            f"1011 mean={means['1011']:.3f} bits")


def test_03_segment_entropy_scale(wave_map):
    """Max segment entropy in [1370, 2850], average in [1137, 1854], and a
    dominant spatial period detected (autocorrelation peak >= 0.2)."""
    seg = wave_map.segment_entropy
    prof = spatial_profile(wave_map)
    max_ok = 1370.0 <= seg.max() <= 2850.0
    avg_ok = 1137.0 <= seg.mean() <= 1854.0
    period_ok = prof["detected_period"] is not None \
        and prof["autocorrelation_peak"] >= 0.2
    _report(3, max_ok and avg_ok and period_ok,
            f"max={seg.max():.1f}, avg={seg.mean():.1f}, "
            f"period={prof['detected_period']}, "
            f"peak={prof['autocorrelation_peak']:.2f}")


def test_04_entropy_estimator():
    """Measured entropy vs analytic H(p) within 3 standard errors at 1000
    trials for p in {0.1, 0.3, 0.5}."""
    rng = np.random.default_rng(2024)
    trials = 1000
    ok = True
    details = []
    for p in (0.1, 0.3, 0.5):
        k = rng.binomial(trials, p)
        measured = bitline_entropy(k, trials)
        analytic = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        sigma_p = math.sqrt(p * (1 - p) / trials)
        slope = abs(math.log2((1 - p) / p))
        bound = 3 * slope * sigma_p + 9 * sigma_p ** 2 / math.log(2)
        ok &= abs(measured - analytic) <= bound
        details.append(f"p={p}: |{measured:.4f}-{analytic:.4f}|<={bound:.4f}")
    _report(4, ok, "; ".join(details))


def test_05_vnc():
    """"0010" -> "0" exactly; debiasing within 0.5 +/- 0.01 on 10^6 biased
    pairs at P(1)=0.8; output never more than half the input."""
    exact = list(vnc([0, 0, 1, 0])) == [0]
    rng = np.random.default_rng(77)
    biased = (rng.uniform(size=2_000_000) < 0.8).astype(np.uint8)
    out = vnc(biased)
    debiased = abs(float(out.mean()) - 0.5) <= 0.01
    half = len(out) <= len(biased) // 2
    _report(5, exact and debiased and half,
            f"0010->{list(vnc([0, 0, 1, 0]))}, ones={out.mean():.4f}, "
            f"len {len(out)}<= {len(biased) // 2}")


def test_06_sha256():
    """FIPS vectors exact; avalanche mean Hamming distance 128 +/- 8 over
    1000 single-bit flips."""
    empty_ok = pack_bits(sha256_digest([])).hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    abc_bits = np.unpackbits(np.frombuffer(b"abc", dtype=np.uint8))
    abc_ok = pack_bits(sha256_digest(abc_bits)).hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    rng = np.random.default_rng(6)
    base = rng.integers(0, 2, 512).astype(np.uint8)
    ref = sha256_digest(base)
    dist = []
    for _ in range(1000):
        flipped = base.copy()
        flipped[rng.integers(0, 512)] ^= 1
        dist.append(int((sha256_digest(flipped) != ref).sum()))
    mean = float(np.mean(dist))
    _report(6, empty_ok and abc_ok and abs(mean - 128) <= 8,
            f"vectors ok={empty_ok and abc_ok}, avalanche mean={mean:.2f}")


def test_07_statistical_quality(device, plan):
    """64 x 1 Mbit pipeline sequences clear the population pass criterion
    at alpha_pop=0.005; an all-zeros control fails monobit."""
    bits, _ = stream_bits(device.fork(), ReservedLayout(), plan,
                          64 * 1_000_000)
    reports = [run_tests(bits[i * 1_000_000:(i + 1) * 1_000_000])
               for i in range(64)]
    verdict, details = population_pass(reports, alpha_pop=0.005)
    worst = min(f for f, _ in details.values())
    thr = next(iter(details.values()))[1]
    control = monobit(np.zeros(1_000_000, dtype=np.uint8)) < 1e-6
    _report(7, verdict and control,
            f"worst pass fraction={worst:.4f} vs threshold={thr:.4f}, "
            f"all-zeros control fails monobit={control}")


def test_08_throughput_model(plan):
    """Mode throughputs/latencies at DDR4-2400 with the calibrated SIB,
    all +/- 15%; throughput x latency identity exact."""
    sib = plan.sib(0)
    one = schedule("one-bank", TIMINGS, sib=sib)
    bgp = schedule("bgp", TIMINGS, sib=sib)
    rc = schedule("rc-bgp", TIMINGS, sib=sib)
    checks = {
        "one-bank": (one.throughput_gbps, 0.49),
        "bgp": (bgp.throughput_gbps, 0.75),
        "rc-bgp": (rc.throughput_gbps, 3.44),
        "iteration": (rc.iteration_ns, 1940.0),
        "latency256": (rc.latency_256_ns, 274.0),
    }
    ok = all(abs(v - t) <= 0.15 * t for v, t in checks.values())
    identity = all(
        r.throughput_gbps * r.iteration_ns
        == pytest.approx(r.bits_per_iteration, rel=1e-12)
        for r in (one, bgp, rc))
    _report(8, ok and identity,
            "; ".join(f"{k}={v:.3f} (target {t})"
                      for k, (v, t) in checks.items())
            + f"; sib={sib}; identity={identity}")


def test_09_baselines_and_projection():
    """Baseline throughputs/latencies +/- 15%; speedup ratio points
    +/- 20%; reduced-timing baseline plateaus (<5% gain 4800->12000)."""
    db = baseline("drange-basic", TIMINGS)
    de = baseline("drange-enhanced", TIMINGS)
    tb = baseline("talukder-basic", TIMINGS)
    te = baseline("talukder-enhanced", TIMINGS)
    bands = {
        "drange-basic": (db.throughput_gbps, 0.9169, 0.15),
        "drange-enh": (de.throughput_gbps, 9.73, 0.15),
        "drange-enh-lat": (de.latency_256_ns, 36.0, 0.15),
        "talukder-basic": (tb.throughput_gbps, 0.6812, 0.15),
        "talukder-basic-lat": (tb.latency_256_ns, 249.0, 0.15),
        "talukder-enh": (te.throughput_gbps, 6.13, 0.15),
        "talukder-enh-lat": (te.latency_256_ns, 201.0, 0.15),
    }
    table = project(["rc-bgp", "drange-basic", "drange-enhanced",
                     "talukder-basic", "talukder-enhanced"],
                    [2400, 4800, 12000], sib=7)
    bands.update({
        "r-tb-2400": (table[2400]["quac_vs_talukder-basic"], 20.20, 0.2),
        "r-db-2400": (table[2400]["quac_vs_drange-basic"], 15.08, 0.2),
        "r-te-2400": (table[2400]["quac_vs_talukder-enhanced"], 2.24, 0.2),
        "r-de-2400": (table[2400]["quac_vs_drange-enhanced"], 1.41, 0.2),
        "r-te-12000": (table[12000]["quac_vs_talukder-enhanced"], 2.03, 0.2),
        "r-de-12000": (table[12000]["quac_vs_drange-enhanced"], 3.99, 0.2),
    })
    ok = all(abs(v - t) <= tol * t for v, t, tol in bands.values())
    plateau = abs(table[12000]["drange-enhanced"]
                  - table[4800]["drange-enhanced"]) \
        / table[4800]["drange-enhanced"]
    _report(9, ok and plateau <= 0.05,
            "; ".join(f"{k}={v:.3f}/{t}" for k, (v, t, _) in bands.items())
            + f"; plateau={plateau:.3%}")


def test_10_idle_scaling():
    """4 channels x 3.44 Gb/s x 0.7413 = 10.2 Gb/s +/- 1%."""
    total = idle_scaled_throughput(3.44, 0.7413)
    _report(10, abs(total - 10.2) <= 0.102, f"total={total:.3f} Gb/s")


def test_11_reproducibility(plan):
    """Identical seed and configuration give byte-identical bitstreams and
    characterization data across runs and worker counts."""
    dev_a = build_device(variation=calibrated_variation())
    dev_b = build_device(variation=calibrated_variation())
    bits_a, _ = stream_bits(dev_a, ReservedLayout(), plan, 100_000)
    bits_b, _ = stream_bits(dev_b, ReservedLayout(), plan, 100_000)
    stream_ok = pack_bits(bits_a) == pack_bits(bits_b)
    map_1 = characterize(dev_a.fork(), "0111", range(16), trials=500,
                         workers=1)
    map_4 = characterize(dev_b.fork(), "0111", range(16), trials=500,
                         workers=4)
    map_ok = np.array_equal(map_1.bitline, map_4.bitline)
    _report(11, stream_ok and map_ok,
            f"bitstreams identical={stream_ok}, "
            f"maps identical across workers={map_ok}")
