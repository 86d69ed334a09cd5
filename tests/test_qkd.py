import math

import pytest

from timebinsim.circuits import CircuitError
from timebinsim.elements import BsConvention
from timebinsim.noise import HAAR, IDENTITY
from timebinsim.qkd import Bb84Config, Bb84Stats, effective_efficiency, simulate_bb84


def test_effective_efficiency_values():
    assert effective_efficiency(1, 1.0) == pytest.approx(0.75)
    assert effective_efficiency(1, 0.2) == pytest.approx(0.15)
    assert effective_efficiency(4, 1.0) == pytest.approx(31.0 / 32.0)


def test_effective_efficiency_validation():
    with pytest.raises(ValueError):
        effective_efficiency(0, 1.0)
    with pytest.raises(ValueError):
        effective_efficiency(1, 0.0)
    with pytest.raises(ValueError):
        effective_efficiency(1, 1.5)


def test_config_validation():
    with pytest.raises(ValueError):
        Bb84Config(pulses=0)
    with pytest.raises(ValueError):
        Bb84Config(pulses=10, eta=0.0)
    with pytest.raises(ValueError):
        Bb84Config(pulses=10, refresh_every=0)
    with pytest.raises(CircuitError, match="exceed"):
        Bb84Config(pulses=10, stages=40)


def test_identity_channel_short_run():
    stats = simulate_bb84(Bb84Config(pulses=100, ensemble=IDENTITY, eta=1.0, seed=0))
    assert stats.qber == 0.0
    assert stats.errors == 0
    # basis match halves the detected events, within loose binomial slack
    assert abs(stats.sifted - 0.5 * stats.detected) < 4 * math.sqrt(stats.detected * 0.25) + 1


def test_haar_run_rate_and_zero_qber():
    pulses = 10000
    stats = simulate_bb84(Bb84Config(pulses=pulses, ensemble=HAAR, eta=1.0, seed=1))
    assert stats.qber == 0.0
    p = 0.75
    sigma = math.sqrt(p * (1 - p) / pulses)
    assert abs(stats.detection_rate - p) < 3 * sigma


def test_scaled_efficiency_with_lossy_detectors():
    pulses = 8000
    stats = simulate_bb84(Bb84Config(pulses=pulses, stages=2, ensemble=HAAR, eta=0.6, seed=2))
    p = effective_efficiency(2, 0.6)
    sigma = math.sqrt(p * (1 - p) / pulses)
    assert stats.qber == 0.0
    assert abs(stats.detection_rate - p) < 4 * sigma


def test_refresh_period_does_not_matter_for_qber():
    for refresh in (1, 50):
        stats = simulate_bb84(
            Bb84Config(pulses=2000, ensemble=HAAR, refresh_every=refresh, seed=3)
        )
        assert stats.qber == 0.0


def test_deterministic_per_seed():
    cfg = Bb84Config(pulses=500, ensemble=HAAR, seed=4)
    assert simulate_bb84(cfg) == simulate_bb84(cfg)
    other = simulate_bb84(Bb84Config(pulses=500, ensemble=HAAR, seed=5))
    assert other != simulate_bb84(cfg)


def test_surface_convention_also_error_free():
    stats = simulate_bb84(
        Bb84Config(pulses=1500, ensemble=HAAR, seed=6, convention=BsConvention.SURFACE_PHASES)
    )
    assert stats.qber == 0.0
    assert stats.detected > 0


def test_stats_accessors_and_csv():
    stats = Bb84Stats(sent=100, detected=80, sifted=40, errors=0)
    assert stats.qber == 0.0
    assert stats.detection_rate == pytest.approx(0.8)
    assert stats.csv_row().startswith("100,40,0,")
    empty = Bb84Stats(sent=10, detected=0, sifted=0, errors=0)
    assert empty.qber == 0.0  # no sifted bits means no error rate, by convention
