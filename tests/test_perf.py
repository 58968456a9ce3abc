"""Performance model tests: mode throughput/latency bands, baselines,
rate projection, idle scaling, and the storage budget.
"""

import pytest

from quactrng.config import TimingParams
from quactrng.perf import (BASELINE_MODES, HASH_GBPS, QUAC_MODES, baseline,
                           idle_scaled_throughput, project, schedule,
                           storage_bits)


def test_throughput_identity_exact():
    for mode in QUAC_MODES:
        r = schedule(mode, sib=7)
        assert r.throughput_gbps * r.iteration_ns == pytest.approx(
            r.bits_per_iteration, rel=1e-12)


def test_mode_ordering():
    t = TimingParams()
    one = schedule("one-bank", t, sib=7).throughput_gbps
    bgp = schedule("bgp", t, sib=7).throughput_gbps
    rc = schedule("rc-bgp", t, sib=7).throughput_gbps
    assert rc >= bgp >= one


def test_doubling_rate_strictly_reduces_latency():
    t = TimingParams()
    for mode in QUAC_MODES:
        slow = schedule(mode, t, sib=1)
        fast = schedule(mode, t.scaled_to(4800), sib=1)
        assert fast.iteration_ns < slow.iteration_ns


def test_bandwidth_bound_scaling_sublinear_to_linear():
    t = TimingParams()
    for mode in ("rc-bgp", "talukder-enhanced"):
        if mode in QUAC_MODES:
            lo = schedule(mode, t, sib=7).throughput_gbps
            hi = schedule(mode, t.scaled_to(4800), sib=7).throughput_gbps
        else:
            lo = baseline(mode, t).throughput_gbps
            hi = baseline(mode, t.scaled_to(4800)).throughput_gbps
        assert 1.0 < hi / lo <= 2.0


def test_schedule_guards():
    with pytest.raises(ValueError):
        schedule("rc-bgp", sib=0)
    with pytest.raises(ValueError):
        schedule("warp-speed")
    with pytest.raises(ValueError):
        baseline("rc-bgp")


def test_hash_bottleneck_clamps():
    # at 12000 MT/s, 14 blocks per bank outrun the hashing engine
    fast = TimingParams().scaled_to(12000)
    assert not schedule("rc-bgp", fast, sib=13).hash_bottleneck
    r = schedule("rc-bgp", fast, sib=14)
    assert r.hash_bottleneck
    assert r.throughput_gbps == pytest.approx(HASH_GBPS)


def test_quac_internal_ratio_independent_of_sib():
    t = TimingParams()

    def ratio(sib):
        return schedule("rc-bgp", t, sib=sib).throughput_gbps \
            / schedule("bgp", t, sib=sib).throughput_gbps

    assert ratio(3) == pytest.approx(ratio(9))


def test_project_table_shape():
    table = project(list(QUAC_MODES) + list(BASELINE_MODES), [2400, 4800])
    assert set(table) == {2400, 4800}
    row = table[2400]
    for m in QUAC_MODES + BASELINE_MODES:
        assert row[m] > 0
    for m in BASELINE_MODES:
        assert f"quac_vs_{m}" in row


def test_project_rejects_bad_rates():
    with pytest.raises(ValueError):
        project(["rc-bgp"], [0])


def test_idle_scaling_endpoints():
    assert idle_scaled_throughput(3.44, 0.0) == 0.0
    assert idle_scaled_throughput(3.44, 1.0) == pytest.approx(13.76)
    with pytest.raises(ValueError):
        idle_scaled_throughput(3.44, 1.5)


def test_storage_bits_examples():
    assert storage_bits() == 1316
    assert storage_bits(17, 10, 1, 11) == 12 * 17 + 110
    with pytest.raises(ValueError, match="temp_ranges"):
        storage_bits(temp_ranges=0)


def test_baseline_reports_use_same_accounting():
    for mode in BASELINE_MODES:
        r = baseline(mode)
        assert r.throughput_gbps * r.iteration_ns == pytest.approx(
            r.bits_per_iteration, rel=1e-12)
        assert r.latency_256_ns > 0
