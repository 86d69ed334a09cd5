import math

import numpy as np
import pytest

from timebinsim.noise import (
    GENERAL,
    HAAR,
    IDENTITY,
    NoiseEnsemble,
    NoiseParams,
    apply_collective_noise,
    dephasing,
    sample_noise,
)
from timebinsim.state import PhotonState, random_qubit, random_state
from timebinsim.circuits import apply
from timebinsim.elements import Element


def two_group_train(alpha, beta, dT=64):
    amps = {}
    for t, c in ((0, alpha), (1, beta), (2, alpha), (3, beta)):
        amps[("chan", "H", t)] = c / 2
        amps[("chan", "V", t + dT)] = -1j * c / 2
    return PhotonState(amps)


def test_identity_sample():
    p = sample_noise(IDENTITY, 123)
    assert (p.d1, p.g1, p.d2, p.g2) == (1.0, 0.0, 0.0, 1.0)


def test_dephasing_pi_sample():
    p = sample_noise(dephasing(math.pi), 5)
    assert p.d1 == pytest.approx(1.0)
    assert p.g1 == 0.0 and p.d2 == 0.0
    assert p.g2 == pytest.approx(-1.0, abs=1e-15)


def test_haar_sample_is_unitary():
    p = sample_noise(HAAR, 7)
    u = p.matrix()
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12


def test_sampling_is_deterministic():
    for ens in (HAAR, GENERAL):
        assert sample_noise(ens, 99) == sample_noise(ens, 99)
        assert sample_noise(ens, 99) != sample_noise(ens, 100)


def test_params_invariant_enforced():
    with pytest.raises(ValueError):
        NoiseParams(1.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        NoiseParams(1.0, 0.0, 0.0, 0.5)
    for bad in (float("nan"), complex("nan"), float("inf")):
        with pytest.raises(ValueError):
            NoiseParams(bad, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            NoiseParams(1.0, 0.0, 0.0, bad)


def test_unknown_ensemble_rejected():
    with pytest.raises(ValueError):
        NoiseEnsemble("weather")


@pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_ensemble_phase_rejected(phi):
    for kind in ("dephasing", "haar"):
        with pytest.raises(ValueError, match="finite"):
            NoiseEnsemble(kind, phi)


def test_identity_noise_is_identity():
    rng = np.random.default_rng(0)
    s = random_state(rng, ["chan"], range(0, 6), modes=6)
    out = apply_collective_noise(s, NoiseParams.identity(), "chan")
    assert out.max_deviation(s) == 0.0


def test_four_branch_structure():
    # the collectively rotated train splits into four groups whose
    # coefficients are exactly the channel parameters over two
    rng = np.random.default_rng(1)
    q = random_qubit(rng)
    for seed in range(5):
        p = sample_noise(HAAR, seed)
        noisy = apply_collective_noise(two_group_train(q.alpha, q.beta), p, "chan")
        expected = {}
        for t, c in ((0, q.alpha), (1, q.beta), (2, q.alpha), (3, q.beta)):
            expected[("chan", "H", t)] = c * p.d1 / 2
            expected[("chan", "V", t)] = c * p.g1 / 2
            expected[("chan", "H", t + 64)] = -1j * c * p.d2 / 2
            expected[("chan", "V", t + 64)] = -1j * c * p.g2 / 2
        assert noisy.max_deviation(PhotonState(expected)) < 1e-12


def _single_pol_state(rng, modes=8):
    """Random state with at most one polarization per (channel, tick) slot."""
    amps = {}
    while len(amps) < modes:
        ch = str(rng.choice(["chan", "aux"]))
        tick = int(rng.integers(0, 10))
        pol = "H" if rng.random() < 0.5 else "V"
        amps.pop((ch, "H", tick), None)
        amps.pop((ch, "V", tick), None)
        amps[(ch, pol, tick)] = complex(rng.normal(), rng.normal())
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return PhotonState({m: a / norm for m, a in amps.items()})


def test_general_noise_conserves_norm_on_single_pol_slots():
    rng = np.random.default_rng(2)
    for i in range(300):
        s = _single_pol_state(rng)
        p = sample_noise(GENERAL, i)
        out = apply_collective_noise(s, p, {"chan", "aux"})
        assert abs(out.norm_sq() - s.norm_sq()) < 1e-12


def test_haar_noise_conserves_norm_on_arbitrary_states():
    rng = np.random.default_rng(3)
    for i in range(300):
        s = random_state(rng, ["chan"], range(0, 6), modes=int(rng.integers(1, 9)))
        out = apply_collective_noise(s, sample_noise(HAAR, i), "chan")
        assert abs(out.norm_sq() - s.norm_sq()) < 1e-12


def test_general_noise_can_change_norm_when_slots_share_pols():
    # both polarizations occupied at one slot: only row normalization holds,
    # so a non-unitary draw may shift the norm; document the boundary
    s = PhotonState({("chan", "H", 0): 1 / math.sqrt(2), ("chan", "V", 0): 1 / math.sqrt(2)})
    deviations = []
    for i in range(50):
        out = apply_collective_noise(s, sample_noise(GENERAL, i), "chan")
        deviations.append(abs(out.norm_sq() - 1.0))
    assert max(deviations) > 1e-3


def test_noise_commutes_with_delay():
    rng = np.random.default_rng(4)
    s = random_state(rng, ["chan"], range(0, 6), modes=7)
    p = sample_noise(HAAR, 11)
    delay = Element("delay", ("chan",), ("chan",), ticks=5)
    a = apply(delay, apply_collective_noise(s, p, "chan"))
    b = apply_collective_noise(apply(delay, s), p, "chan")
    assert a.max_deviation(b) < 1e-15


def test_noise_commutes_with_restrict():
    rng = np.random.default_rng(5)
    s = random_state(rng, ["chan"], range(0, 8), modes=9)
    p = sample_noise(HAAR, 13)
    a = apply_collective_noise(s, p, "chan").restrict("chan", (2, 5))
    b = apply_collective_noise(s.restrict("chan", (2, 5)), p, "chan")
    assert a.max_deviation(b) < 1e-15


def test_as_floats_order():
    p = NoiseParams(1.0, 0.0, 0.0, 1j)
    assert p.as_floats() == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
