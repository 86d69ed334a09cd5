import math
import os
import re
import subprocess
import sys
from pathlib import Path

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
    random_qubit,
    sample_coefficients,
    sample_noise,
    sample_qubits,
)
from timebinsim.state import PhotonState
from timebinsim.analysis import success_probability_sweep
from timebinsim.circuits import DecoderSpec, EncoderSpec, apply
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
    q = random_qubit(1)
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


# -- the channel stream and its batch ------------------------------------------

#: the channel seeds simulate_bb84 draws, plus the edges of the seed range
EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
BATCH_SEEDS = [qkd._derived_seed(seed, index, domain=1)
               for seed in (0, 1, 2**64 - 1) for index in range(6667)] + EDGE_SEEDS
ENSEMBLES = [IDENTITY, HAAR, GENERAL, dephasing(0.7)]


def reference_rows(ensemble, seeds):
    return np.array([sample_noise(ensemble, int(s)).coefficients() for s in seeds], dtype=complex)


@pytest.mark.parametrize("ensemble", ENSEMBLES, ids=lambda e: e.kind)
def test_batched_draws_are_sample_noise_bit_for_bit(ensemble):
    # over 20,000 seeds a last-bit difference between the float and array paths would show
    expected = reference_rows(ensemble, BATCH_SEEDS)
    for seeds in (BATCH_SEEDS, np.array(BATCH_SEEDS, dtype=np.uint64)):
        batch = sample_coefficients(ensemble, seeds)
        assert batch.shape == (len(BATCH_SEEDS), 4) and batch.dtype == complex
        assert batch.tobytes() == expected.tobytes()


#: n = 20,000 draws at fixed seeds, as the sweep draws them from seed 0
DRAWS = 20_000


def ks_distance(x):
    """Kolmogorov-Smirnov distance of a sample from the uniform distribution on [0, 1)."""
    x = np.sort(x)
    ranks = np.arange(1, len(x) + 1) / len(x)
    return max((ranks - x).max(), (x - ranks + 1 / len(x)).max())


#: KS critical distance at alpha = 1e-3: sqrt(-ln(alpha / 2) / 2) / sqrt(n)
KS_CRITICAL = math.sqrt(-math.log(1e-3 / 2) / 2) / math.sqrt(DRAWS)


def test_haar_draws_are_haar_distributed():
    d1, g1, d2, g2 = sample_coefficients(HAAR, np.arange(DRAWS, dtype=np.uint64)).T
    u = np.array([[d1, d2], [g1, g2]]).transpose(2, 0, 1)  # column j is the image of basis state j
    assert np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(2)).max() <= 1e-12
    assert ks_distance(np.abs(d1) ** 2) < KS_CRITICAL
    # |U_ij|^2 is uniform, so E|U_ij|^4 = 1/3 with variance 1/5 - 1/9
    sigma = math.sqrt((1 / 5 - 1 / 9) / DRAWS)
    for entry in (d1, g1, d2, g2):
        assert abs(np.mean(np.abs(entry) ** 4) - 1 / 3) < 5 * sigma
    # the phases: E|tr U|^2 = 1 on U(2), with variance E|tr U|^4 - 1 = 1
    assert abs(np.mean(np.abs(d1 + g2) ** 2) - 1.0) < 5 / math.sqrt(DRAWS)


def test_general_draws_are_independent_uniform_unit_vectors():
    d1, g1, d2, g2 = sample_coefficients(GENERAL, np.arange(DRAWS, dtype=np.uint64)).T
    for first, second in ((d1, g1), (d2, g2)):
        assert np.abs(np.abs(first) ** 2 + np.abs(second) ** 2 - 1.0).max() <= 1e-12
        assert ks_distance(np.abs(first) ** 2) < KS_CRITICAL
        for entry in (first, second):
            assert ks_distance(np.angle(entry) / (2 * math.pi) % 1.0) < KS_CRITICAL
    # the two images are drawn independently
    assert abs(np.corrcoef(np.abs(d1) ** 2, np.abs(d2) ** 2)[0, 1]) < 5 / math.sqrt(DRAWS)


@pytest.mark.parametrize("ensemble", ENSEMBLES, ids=lambda e: e.kind)
def test_block_draws_are_sample_noise_at_every_size(ensemble):
    seeds = qkd._derived_seed(9, np.arange(48, dtype=np.uint64), domain=1)
    for size in (1, 2, 15, 16, 17, len(seeds)):
        rows = qkd._channel_coefficients(ensemble, seeds[:size])
        assert rows.tobytes() == reference_rows(ensemble, seeds[:size]).tobytes(), size


@pytest.mark.parametrize("master", [0, 5, -3, 2**64 - 1, 2**70 + 1])
def test_derived_seed_over_index_arrays_is_the_scalar_value(master):
    indices = list(range(300)) + [2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]
    for domain in (0, 1):
        batch = qkd._derived_seed(master, np.array(indices, dtype=np.uint64), domain)
        assert batch.dtype == np.uint64
        assert batch.tolist() == [qkd._derived_seed(master, i, domain) for i in indices]


def test_array_mix64_is_the_int_finalizer_and_leaves_its_argument_alone():
    words = [0, 1, 2**63, 2**64 - 1]
    words += np.random.default_rng(5).integers(0, 2**64, size=10**4, dtype=np.uint64, endpoint=False).tolist()
    expected = [noise._mix64(w) for w in words]
    assert all(type(w) is int and 0 <= w < 2**64 for w in expected)
    for shape in ((len(words),), (5, len(words))):
        x = np.broadcast_to(np.array(words, dtype=np.uint64), shape).copy()
        before = x.copy()
        mixed = noise._mix64(x)
        assert mixed.dtype == np.uint64 and mixed.shape == shape
        assert all(row == expected for row in mixed.reshape(-1, len(words)).tolist())
        # the argument is a seed array a caller goes on reading
        assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_batch_rejects_seeds_outside_64_bits(seed):
    # the stream hashes the seed as one 64-bit word, so a wider seed would wrap
    for ensemble in (HAAR, GENERAL):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            sample_noise(ensemble, seed)
    for ensemble in ENSEMBLES:
        with pytest.raises(ValueError, match="2\\*\\*64"):
            sample_coefficients(ensemble, [5, seed])
    with pytest.raises(ValueError, match="2\\*\\*64"):
        random_qubit(seed)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        sample_qubits([5, seed])
    assert sample_noise(IDENTITY, seed) == NoiseParams.identity()  # reads no seed


#: Each library entry point that takes a seed, called at one seed, and the span it reads past it.
SEEDED_CALLS = {
    "sample_noise": (lambda seed: sample_noise(HAAR, seed), 0),
    "random_qubit": (random_qubit, 0),
    "sample_coefficients": (lambda seed: sample_coefficients(HAAR, [seed]), 0),
    "success_probability_sweep": (lambda seed: success_probability_sweep(
        EncoderSpec(1), DecoderSpec(0), HAAR, 3, seed), 2),
    "Bb84Config": (lambda seed: qkd.Bb84Config(pulses=1, seed=seed), 0),
}


@pytest.mark.parametrize("name", SEEDED_CALLS)
def test_every_seeded_entry_point_keeps_the_one_seed_rule(name):
    call, last = SEEDED_CALLS[name]
    call(2**64 - 1 - last)  # its last seed is 2**64 - 1
    for seed in (-1, 2**64 - last):
        message = f"seed must be in [0, 2**64), non-negative, with seed + {last} below 2**64, got {seed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(seed)


def test_batch_rejects_an_unnormalized_draw_with_its_index(monkeypatch):
    original = noise._words
    for ensemble in (HAAR, GENERAL):
        for word in range(noise._WORDS[ensemble.kind]):  # each angle and each phase
            def nan_word(seed, count, word=word):
                words = original(seed, count)
                if isinstance(seed, np.ndarray):
                    words = words.copy()
                    words[word, 3] = np.nan
                return words

            monkeypatch.setattr(noise, "_words", nan_word)
            with pytest.raises(ValueError, match="draw 3 "):
                sample_coefficients(ensemble, BATCH_SEEDS[:20])


def test_a_batch_that_is_not_sample_noise_stops_the_run(monkeypatch):
    original = noise._words
    monkeypatch.setattr(noise, "_words", lambda seed, count: original(
        np.roll(seed, -1) if isinstance(seed, np.ndarray) else seed, count))
    seeds = np.array(BATCH_SEEDS[:2], dtype=np.uint64)
    for ensemble in (HAAR, GENERAL):
        with pytest.raises(RuntimeError, match="differs from sample_noise"):
            qkd._channel_coefficients(ensemble, seeds)
        with pytest.raises(RuntimeError, match="differs from sample_noise"):
            qkd.simulate_bb84(qkd.Bb84Config(pulses=100, ensemble=ensemble, seed=2))


# -- the qubit stream and its batch --------------------------------------------

def reference_qubits(seeds):
    return np.array([(q.alpha, q.beta) for q in map(random_qubit, map(int, seeds))], dtype=complex)


def test_batched_qubits_are_random_qubit_bit_for_bit():
    expected = reference_qubits(BATCH_SEEDS)
    for seeds in (BATCH_SEEDS, np.array(BATCH_SEEDS, dtype=np.uint64)):
        batch = sample_qubits(seeds)
        assert batch.shape == (len(BATCH_SEEDS), 2) and batch.dtype == complex
        assert batch.tobytes() == expected.tobytes()


def test_qubits_are_uniform_on_the_bloch_sphere():
    alpha, beta = sample_qubits(np.arange(DRAWS, dtype=np.uint64)).T
    assert np.abs(np.abs(alpha) ** 2 + np.abs(beta) ** 2 - 1.0).max() <= 1e-12
    # Haar-random pure states: |alpha|^2 and the relative phase are independent and uniform
    assert ks_distance(np.abs(alpha) ** 2) < KS_CRITICAL
    assert ks_distance(np.angle(beta / alpha) / (2 * math.pi) % 1.0) < KS_CRITICAL


def test_a_qubit_reads_words_no_channel_reads(monkeypatch):
    reads = []
    original = noise._words

    def recording_words(seed, count, first=1):
        reads.append(range(first, first + count))
        return original(seed, count, first)

    monkeypatch.setattr(noise, "_words", recording_words)
    random_qubit(5)
    sample_qubits([5, 6])
    assert reads == [range(7, 10)] * 2
    assert max(noise._WORDS.values()) < 7


def test_a_qubit_batch_rejects_an_unnormalized_draw_with_its_index(monkeypatch):
    original = noise._words
    for word in range(3):
        def nan_word(seed, count, first=1, word=word):
            words = original(seed, count, first).copy()
            words[word, 3] = np.nan
            return words

        monkeypatch.setattr(noise, "_words", nan_word)
        with pytest.raises(ValueError, match="qubit draw 3 "):
            sample_qubits(BATCH_SEEDS[:20])


def imports_numpy_random(code: str) -> bool:
    """Whether ``code``, run in a fresh interpreter after ``import sys, timebinsim``, imports numpy.random."""
    src = str(Path(noise.__file__).resolve().parents[1])
    code = f"import sys, timebinsim; {code}; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()[-1] == "True"  # after whatever ``code`` prints


def test_importing_the_package_does_not_import_numpy_random():
    # numpy.random costs 15-20 ms of import, about a fifth of a short run's set-up
    assert not imports_numpy_random("pass")


def test_a_bb84_run_does_not_import_numpy_random():
    # the channel draws read the counter-based stream, so numpy.random's memory is never mapped
    assert not imports_numpy_random("timebinsim.simulate_bb84(timebinsim.Bb84Config(pulses=50))")


@pytest.mark.parametrize("argv", [["golden"], ["sweep", "--samples", "5", "--ensemble", "general"],
                                  ["scaling", "--max-stages", "2"]], ids=lambda argv: argv[0])
def test_a_cli_run_does_not_import_numpy_random(argv):
    # the qubits read the channel stream too
    assert not imports_numpy_random(f"import timebinsim.cli; assert timebinsim.cli.main({argv!r}) == 0")
