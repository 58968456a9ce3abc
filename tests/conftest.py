"""Session fixtures shared by several test modules."""

import pytest

from quactrng import build_device, calibrated_variation
from quactrng.entropy import build_sib_plan, characterize


@pytest.fixture(scope="session")
def wave_map():
    """"0111" characterization of segments 0-1023 (two spatial wave
    periods) on the calibrated device."""
    device = build_device(variation=calibrated_variation())
    return characterize(device, "0111", range(1024), trials=1000)


@pytest.fixture(scope="session")
def plan(wave_map):
    """One-bin plan from ``wave_map``, covering 30-90 C."""
    return build_sib_plan([wave_map], bins=[(30.0, 90.0)])
