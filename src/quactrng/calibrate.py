"""Fits the variation-profile scalars so the simulated device reproduces
the published characterization scale: average cache-block entropy near
11.07 bits under the "0111" pattern and a best-segment entropy near
1.9 kbit, varying segment-to-segment as a spatial wave.

The expected *measured* entropy is used as the fitting target, not the
analytic limit: the plug-in estimator H(k/1000) has a systematic
finite-trial bias, and the published numbers come from exactly such
1000-trial measurements.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import binom

from .config import DramGeometry, calibrated_variation
from .entropy import binary_entropy, bitline_entropy

__all__ = [
    "expected_bitline_entropy",
    "fit_variation",
]

DEFAULT_TARGET_BLOCK = 11.07         # bits per 512-bit cache block, average
DEFAULT_TARGET_MAX_SEGMENT = 1920.0  # bits per segment, best segment
BLOCK_BITS = DramGeometry().cache_block_bits
SEGMENT_BITS = DramGeometry().bitlines_per_row


def expected_bitline_entropy(bias, trials=1000):
    """Expected measured entropy of one bitline whose normalized deviation
    is ``bias`` plus a standard-normal sense-amp offset (both in units of
    the thermal noise sigma).

    With ``trials=None`` the analytic infinite-trial entropy is returned;
    otherwise the expectation of the plug-in estimator H(k/trials) with
    k ~ Binomial(trials, Phi(bias + offset)) is computed by Gauss-Hermite
    quadrature over the offset at 41 nodes. Accepts an array of biases.
    """
    bias = np.atleast_1d(np.asarray(bias, dtype=np.float64))
    x, w = np.polynomial.hermite.hermgauss(41)
    z = bias[:, None] + np.sqrt(2.0) * x[None, :]
    p = ndtr(z)
    if trials is None:
        h = binary_entropy(p)
    else:
        k = np.arange(trials + 1)
        pmf = binom.pmf(k[None, None, :], trials, p[:, :, None])
        h = pmf @ bitline_entropy(k, trials)
    out = (h * w[None, :]).sum(axis=1) / np.sqrt(np.pi)
    return out if out.shape != (1,) else float(out[0])


def _mean_block_entropy(bias0, amplitude):
    """Average expected cache-block entropy over one spatial wave."""
    theta = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    biases = bias0 * (1.0 + amplitude * np.sin(theta))
    return BLOCK_BITS * float(np.mean(expected_bitline_entropy(biases)))


def _max_segment_entropy(bias0, amplitude):
    """Expected segment entropy at the wave trough (weakest bias)."""
    return SEGMENT_BITS * float(
        expected_bitline_entropy(bias0 * (1.0 - amplitude)))


def _root(func, lo, hi):
    """Root of ``func`` between ``lo`` and ``hi`` by Brent's method."""
    try:
        return brentq(func, lo, hi)
    except ValueError:   # func(lo) and func(hi) have the same sign
        raise ValueError(
            "calibration target outside the searchable range") from None


def fit_variation(master_seed=0x5EED, target_block=DEFAULT_TARGET_BLOCK,
                  target_max_segment=DEFAULT_TARGET_MAX_SEGMENT):
    """Fit first-row weight and spatial-wave amplitude against the two
    entropy targets at 1000 trials; returns
    :func:`~quactrng.config.calibrated_variation` with those two fields
    replaced, so every other field (noise sigmas, later-row weight, jitter,
    wave period) has one source.

    The first-row weight sets the mean deviation bias (entropy falls as
    the weight rises above three times the later-row weight); the wave
    amplitude sets how far the best (trough) segment rises above the
    average. The two are solved by alternating root searches.
    """
    base = calibrated_variation(master_seed)
    amplitude = 0.05
    bias0 = 3.8
    for _ in range(3):
        bias0 = _root(
            lambda b: _mean_block_entropy(b, amplitude) - target_block,
            1.0, 8.0)
        amplitude = _root(
            lambda a: _max_segment_entropy(bias0, a) - target_max_segment,
            0.0, 0.3)
    # deviation bias = 0.5 * (w_first - 3 * w_later) / noise_sigma
    first_row_weight = 3.0 + 2.0 * bias0 * base.thermal_noise_sigma
    return replace(base, first_row_weight=round(first_row_weight, 4),
                   spatial_wave_amplitude=round(amplitude, 4))
