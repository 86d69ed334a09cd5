import math

import numpy as np
import pytest

from _oracles import noise_matrix, random_state, restrict
from timebinsim import noise, qkd
from timebinsim.noise import (
    GENERAL,
    HAAR,
    IDENTITY,
    NoiseEnsemble,
    NoiseParams,
    apply_collective_noise,
    dephasing,
    sample_coefficients,
    sample_noise,
)
from timebinsim.state import PhotonState, random_qubit
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
    u = noise_matrix(p)
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12


def test_sampling_is_deterministic():
    for ens in (HAAR, GENERAL):
        assert sample_noise(ens, 99) == sample_noise(ens, 99)
        assert sample_noise(ens, 99) != sample_noise(ens, 100)


def test_general_draw_and_random_qubit_share_one_unit_vector_draw():
    # the image of |H> is drawn first, from the same four normals a qubit reads
    for seed in range(200):
        q = random_qubit(np.random.default_rng(seed))
        p = sample_noise(GENERAL, seed)
        assert np.array([q.alpha, q.beta]).tobytes() == np.array([p.d1, p.g1]).tobytes()


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
    a = restrict(apply_collective_noise(s, p, "chan"), "chan", (2, 5))
    b = apply_collective_noise(restrict(s, "chan", (2, 5)), p, "chan")
    assert a.max_deviation(b) < 1e-15


def test_as_floats_order():
    p = NoiseParams(1.0, 0.0, 0.0, 1j)
    assert p.as_floats() == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


# -- the batched draw ----------------------------------------------------------

#: the channel seeds simulate_bb84 draws, plus the edges of the seed range
BATCH_SEEDS = [qkd._derived_seed(seed, index, domain=1)
               for seed in (0, 1, 2**64 - 1) for index in range(1666)]
BATCH_SEEDS += [0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
ENSEMBLES = [IDENTITY, HAAR, GENERAL, dephasing(0.7)]


def reference_rows(ensemble, seeds):
    return np.array([sample_noise(ensemble, int(s)).coefficients() for s in seeds], dtype=complex)


@pytest.mark.parametrize("ensemble", ENSEMBLES, ids=lambda e: e.kind)
def test_batched_draws_are_sample_noise_bit_for_bit(ensemble):
    expected = reference_rows(ensemble, BATCH_SEEDS)
    for seeds in (BATCH_SEEDS, np.array(BATCH_SEEDS, dtype=np.uint64)):
        batch = sample_coefficients(ensemble, seeds)
        assert batch.shape == (len(BATCH_SEEDS), 4) and batch.dtype == complex
        assert batch.tobytes() == expected.tobytes()


def test_batched_uniforms_are_default_rng():
    batch = noise._pcg64_random4(np.array(BATCH_SEEDS, dtype=np.uint64))
    expected = np.array([np.random.default_rng(s).random(4) for s in BATCH_SEEDS])
    assert batch.tobytes() == expected.tobytes()


@pytest.mark.parametrize("ensemble", ENSEMBLES, ids=lambda e: e.kind)
def test_block_draws_on_both_sides_of_the_crossover(ensemble):
    seeds = qkd._derived_seed(9, np.arange(3 * qkd._BATCH_DRAWS, dtype=np.uint64), domain=1)
    for size in (1, 2, qkd._BATCH_DRAWS - 1, qkd._BATCH_DRAWS, qkd._BATCH_DRAWS + 1, len(seeds)):
        rows = qkd._channel_coefficients(ensemble, seeds[:size])
        assert rows.tobytes() == reference_rows(ensemble, seeds[:size]).tobytes(), size


@pytest.mark.parametrize("master", [0, 5, -3, 2**64 - 1, 2**70 + 1])
def test_derived_seed_over_index_arrays_is_the_scalar_value(master):
    indices = list(range(300)) + [2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]
    for domain in (0, 1):
        batch = qkd._derived_seed(master, np.array(indices, dtype=np.uint64), domain)
        assert batch.dtype == np.uint64
        assert batch.tolist() == [qkd._derived_seed(master, i, domain) for i in indices]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_batch_rejects_seeds_outside_64_bits(seed):
    # default_rng takes 2**64 and above, with more entropy words than the batch models
    with pytest.raises(ValueError, match="2\\*\\*64"):
        sample_coefficients(HAAR, [5, seed])


def test_batch_rejects_an_unnormalized_draw_with_its_index(monkeypatch):
    original = noise._pcg64_random4
    for column in range(4):  # the mixing angle and each of the three phases
        def nan_uniform(seeds, column=column):
            uniforms = original(seeds).copy()
            uniforms[3, column] = np.nan
            return uniforms

        monkeypatch.setattr(noise, "_pcg64_random4", nan_uniform)
        with pytest.raises(ValueError, match="draw 3 "):
            sample_coefficients(HAAR, BATCH_SEEDS[:20])


def test_a_batch_that_is_not_sample_noise_stops_the_run(monkeypatch):
    original = noise._pcg64_random4
    monkeypatch.setattr(noise, "_pcg64_random4", lambda seeds: original(np.roll(seeds, -1)))
    seeds = np.array(BATCH_SEEDS[:qkd._BATCH_DRAWS], dtype=np.uint64)
    with pytest.raises(RuntimeError, match="differs from sample_noise"):
        qkd._channel_coefficients(HAAR, seeds)
    with pytest.raises(RuntimeError, match="differs from sample_noise"):
        qkd.simulate_bb84(qkd.Bb84Config(pulses=100, ensemble=HAAR, seed=2))


# -- the seeded generators of the sweep ----------------------------------------

SEEDING_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64]
SEEDING_INDICES = [0, 1, 2**32 - 1, 2**32]


def test_seeded_generators_start_where_default_rng_does():
    entropies = SEEDING_SEEDS + [(s, i) for s in SEEDING_SEEDS for i in SEEDING_INDICES]
    # one to four 32-bit words take the vectorized hash; five, as in (2**64, 2**32), fall back
    assert {len(noise._entropy_words(e)) for e in entropies} == {1, 2, 3, 4, 5}
    gen = np.random.default_rng(0)
    for entropy, rng in zip(entropies, noise._seeded_generators(gen, entropies), strict=True):
        reference = np.random.default_rng(entropy)
        assert rng.bit_generator.state == reference.bit_generator.state, entropy
        assert rng.normal(size=4).tobytes() == reference.normal(size=4).tobytes(), entropy


@pytest.mark.parametrize("entropy", [-1, (3, -1), (-2**64, 0)])
def test_seeded_generators_reject_a_negative_seed(entropy):
    with pytest.raises(ValueError, match="non-negative"):
        list(noise._seeded_generators(np.random.default_rng(0), [5, entropy]))


def test_importing_the_package_does_not_import_numpy_random():
    # numpy.random costs 15-20 ms of import, about a fifth of a short run's set-up
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(noise.__file__).resolve().parents[1])
    code = "import sys, timebinsim; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
