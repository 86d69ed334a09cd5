import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from _oracles import binomial_cdf, detection_events, gate_map, ks_uniform, one_pauli_flipped, sequential_bins
from timebinsim import qkd
from timebinsim.analysis import _PAULI_MATRICES, Correction, correction_table
from timebinsim.circuits import (CHANNEL, MAX_STAGES, CircuitError, DecoderSpec, EncoderSpec, build_decoder,
                                 build_encoder)
from timebinsim.elements import _INV_SQRT2, BsConvention
from timebinsim.noise import GENERAL, HAAR, IDENTITY, dephasing, random_qubit, sample_noise
from timebinsim.qkd import Bb84Config, Bb84Stats, effective_efficiency, simulate_bb84
from timebinsim.state import PhotonState, QubitSpec, new_state


def reference_bins(cfg: Bb84Config) -> list[tuple[int, int, int]]:
    """(detected, sifted, errors) per accepted bin, in link order, with every pulse
    run through the sparse interpreter.

    The per-pulse loop the batched ``simulate_bb84`` replaces, kept as its
    oracle; it looks ``correction_table`` up on the module, as the batched path
    does, and gates the table's accepted slots in ``windows`` order, the link's
    bin order.
    """
    table = qkd.correction_table(EncoderSpec(cfg.stages, cfg.convention), DecoderSpec(0, cfg.convention))
    gates = gate_map(table)
    position = {key: j for j, key in enumerate(gates)}
    encoder, decoder = build_encoder(table.encoder), build_decoder(table.decoder)
    # Alice's states, indexed 2 * basis + bit
    sent_states = [qkd.run(encoder, new_state(QubitSpec(*q))) for q in qkd._BB84_QUBITS.tolist()]
    tally = [[0, 0, 0] for _ in gates]
    params, params_index = None, -1
    for pulse in range(cfg.pulses):
        j = pulse // cfg.refresh_every
        if j != params_index:
            params = qkd.sample_noise(cfg.ensemble, qkd._derived_seed(cfg.seed, j, domain=1))
            params_index = j
        alice_basis = qkd._uniform(cfg.seed, pulse, 0) < 0.5
        alice_bit = qkd._uniform(cfg.seed, pulse, 1) < 0.5
        sent = sent_states[2 * alice_basis + alice_bit]
        noisy = PhotonState._from_clean(
            qkd._apply_collective_noise(sent.amplitudes, params, {CHANNEL}))
        out = qkd.run(decoder, noisy)

        u = qkd._uniform(cfg.seed, pulse, 2) / cfg.eta
        hit = None
        for key, p, c_h, c_v in detection_events(out, gates):
            if u < p:
                hit = (key, c_h, c_v)
                break
            u -= p
        if hit is None:
            continue
        key, c_h, c_v = hit
        counts_in_bin = tally[position[key]]
        counts_in_bin[0] += 1
        bob_basis = qkd._uniform(cfg.seed, pulse, 3) < 0.5
        if bob_basis != alice_basis:
            continue
        counts_in_bin[1] += 1
        norm = abs(c_h) ** 2 + abs(c_v) ** 2
        if bob_basis:
            p_one = abs((c_h - c_v) * _INV_SQRT2) ** 2 / norm
        else:
            p_one = abs(c_v) ** 2 / norm
        if p_one < 1e-12:
            p_one = 0.0
        elif p_one > 1.0 - 1e-12:
            p_one = 1.0
        if (qkd._uniform(cfg.seed, pulse, 4) < p_one) != alice_bit:
            counts_in_bin[2] += 1
    return [tuple(counts_in_bin) for counts_in_bin in tally]


def totals(per_bin: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    return tuple(sum(column) for column in zip(*per_bin))


def reference_bb84(cfg: Bb84Config) -> tuple[int, int, int]:
    """(detected, sifted, errors) of the whole run, from ``reference_bins``."""
    return totals(reference_bins(cfg))


def counts(stats: Bb84Stats) -> tuple[int, int, int]:
    return stats.detected, stats.sifted, stats.errors


def counts_per_bin(cfg: Bb84Config, bins: int, monkeypatch) -> list[tuple[int, int, int]]:
    """``simulate_bb84``'s (detected, sifted, errors) in each of the link's ``bins``, one
    run per bin, with ``_landing_bins`` narrowed to the pulses that land in that bin."""
    landing_bins = qkd._landing_bins
    per_bin = []
    for j in range(bins):
        def in_bin_j(*args, j=j):
            found, hit_bin = landing_bins(*args)
            return found[hit_bin == j], hit_bin[hit_bin == j]

        monkeypatch.setattr(qkd, "_landing_bins", in_bin_j)
        per_bin.append(counts(simulate_bb84(cfg)))
    return per_bin


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
    with pytest.raises(CircuitError, match="at least one splitter stage"):
        Bb84Config(pulses=10, stages=0)
    with pytest.raises(CircuitError, match="exceed"):
        Bb84Config(pulses=10, stages=40)
    # the draws read the seed modulo 2**64, so a seed outside it would alias another
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            Bb84Config(pulses=10, seed=seed)
    assert Bb84Config(pulses=10, seed=2**64 - 1).seed == 2**64 - 1


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
    # any period of at least the run length is one channel draw, also beyond 64 bits
    one_draw = [simulate_bb84(Bb84Config(pulses=2000, ensemble=HAAR, refresh_every=r, seed=3))
                for r in (2000, 2**70)]
    assert one_draw[0] == one_draw[1]


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


def test_binomial_cdf_is_the_exact_sum():
    for n, p in ((1, 0.5), (30, 0.3), (200, 0.45)):
        pmf = (math.comb(n, k) * Fraction(p) ** k * (1 - Fraction(p)) ** (n - k) for k in range(n + 1))
        assert binomial_cdf(n, p) == pytest.approx([float(c) for c in accumulate(pmf)], abs=1e-13)


def _randomized_pit(rng, cdf, x):
    """A uniform draw on [F(x - 1), F(x)): exactly U(0, 1) when x follows ``cdf``."""
    below = cdf[x - 1] if x else 0.0
    return below + rng.random() * (cdf[x] - below)


#: sqrt(m) times the KS distance that m uniforms exceed with chance 1 %, for large m.
_KS_1_PERCENT = 1.63


@pytest.mark.parametrize("stages", [1, 3])
def test_counts_follow_their_exact_laws(stages):
    """Across 300 seeds, detected ~ Binomial(n, eta (N - 1)/N) and sifted given detected
    ~ Binomial(d, 1/2), by the KS distance of their randomized PIT values; errors are 0.

    One run within a few sigma cannot see a stream that keeps each mean but breaks
    independence, such as Bob's basis word equal to Alice's; the law of 300 runs can.
    """
    pulses, eta = 2000, 0.6
    detected_cdf = binomial_cdf(pulses, effective_efficiency(stages, eta))
    rng = np.random.default_rng(2026)
    detected_pit, sifted_pit = [], []
    for seed in range(300):
        stats = simulate_bb84(Bb84Config(pulses=pulses, stages=stages, ensemble=HAAR, eta=eta, seed=seed))
        assert stats.errors == 0, seed
        detected_pit.append(_randomized_pit(rng, detected_cdf, stats.detected))
        sifted_pit.append(_randomized_pit(rng, binomial_cdf(stats.detected, 0.5), stats.sifted))
    assert ks_uniform(detected_pit) < _KS_1_PERCENT
    assert ks_uniform(sifted_pit) < _KS_1_PERCENT


def test_stats_accessors_and_csv():
    stats = Bb84Stats(sent=100, detected=80, sifted=40, errors=0)
    assert stats.qber == 0.0
    assert stats.detection_rate == pytest.approx(0.8)
    assert stats.csv_row().startswith("100,40,0,")
    empty = Bb84Stats(sent=10, detected=0, sifted=0, errors=0)
    assert empty.qber == 0.0  # no sifted bits means no error rate, by convention


@pytest.mark.parametrize("stages", [1, 3])
@pytest.mark.parametrize("convention", list(BsConvention))
def test_compiled_bins_match_the_interpreter(convention, stages):
    encoder, decoder = EncoderSpec(stages, convention), DecoderSpec(0, convention)
    table = correction_table(encoder, decoder)
    branch, maps = qkd._compile_link(table)
    gates = gate_map(table)
    for seed in range(5):
        params = sample_noise(GENERAL, seed)
        q = random_qubit(10 * stages + seed)
        coefficients = np.array(params.coefficients())
        compiled = coefficients[branch, None] * (maps @ np.array([q.alpha, q.beta]))
        events = detection_events(table.transmit(q, params), gates)
        # bins are compared order-free: by their probabilities and their summed amplitudes
        assert len(events) == len(compiled)
        assert sorted((np.abs(compiled) ** 2).sum(axis=1)) == pytest.approx(
            sorted(p for _key, p, _h, _v in events), abs=1e-12)
        assert compiled.sum(axis=0) == pytest.approx(
            np.sum([(c_h, c_v) for _key, _p, c_h, c_v in events], axis=0), abs=1e-12)


@pytest.mark.parametrize("stages", range(1, MAX_STAGES + 1))
@pytest.mark.parametrize("convention", list(BsConvention))
def test_compiled_link_reads_the_accepted_slots_in_windows_order(convention, stages):
    table = correction_table(EncoderSpec(stages, convention), DecoderSpec(0, convention))
    accepted = table.slot_correction >= 0
    branch, maps = qkd._compile_link(table)
    assert branch.tolist() == table.slot_branch[accepted].tolist()
    # bit for bit up to the sign of a zero, which a matmul and the gather may round apart; no count
    # can see that sign, as detection weights and ``p_one`` read only squared magnitudes
    corrected = _PAULI_MATRICES[table.slot_correction[accepted]] @ table.slot_maps[accepted]
    assert (maps + 0.0).tobytes() == (corrected + 0.0).tobytes()


#: Each Pauli and the one the benchmark's wrong-correction test swaps it for.
_FLIPPED = {Correction.IDENTITY: Correction.BIT_FLIP, Correction.BIT_FLIP: Correction.IDENTITY,
            Correction.PHASE_FLIP: Correction.BIT_PHASE_FLIP,
            Correction.BIT_PHASE_FLIP: Correction.PHASE_FLIP}


@pytest.mark.parametrize("stages", [1, 3])
@pytest.mark.parametrize("convention", list(BsConvention))
def test_one_flipped_gate_changes_exactly_that_bins_compiled_map(convention, stages, monkeypatch):
    # the benchmark's wrong-correction test flips one _gate_map entry and expects sifted errors
    table = correction_table(EncoderSpec(stages, convention), DecoderSpec(0, convention))
    branch, maps = qkd._compile_link(table)
    original = qkd._gate_map
    gates = original(table, table.encoder, table.decoder)
    keys = list(gates)
    for key in (min(keys), keys[len(keys) // 2], max(keys)):
        def one_flipped(table, encoder, decoder):
            flipped = original(table, encoder, decoder)
            flipped[key] = _FLIPPED[flipped[key]]
            return flipped

        monkeypatch.setattr(qkd, "_gate_map", one_flipped)
        flipped_branch, flipped_maps = qkd._compile_link(table)
        j = keys.index(key)
        assert flipped_branch.tolist() == branch.tolist()
        assert (flipped_maps != maps).any(axis=(1, 2)).tolist() == [i == j for i in range(len(maps))]
        pauli = _PAULI_MATRICES[list(Correction).index(_FLIPPED[gates[key]])]
        expected = pauli @ table.slot_maps[list(table.windows).index(key)]
        assert (flipped_maps[j] + 0.0).tobytes() == (expected + 0.0).tobytes()


@pytest.mark.parametrize("stages", [1, 2, 3, 4])
@pytest.mark.parametrize("convention", list(BsConvention))
@pytest.mark.parametrize("ensemble", [IDENTITY, HAAR, GENERAL, dephasing(1.0)],
                         ids=lambda e: e.kind)
def test_batched_counts_equal_the_per_pulse_interpreter(ensemble, convention, stages, monkeypatch):
    # 80 pulses in blocks of 32: channel draws of 7 and 50 pulses straddle block edges
    monkeypatch.setattr(qkd, "_BLOCK_PULSES", 32)
    for refresh in (1, 7, 50):
        for eta in (1.0, 0.3):
            cfg = Bb84Config(pulses=80, stages=stages, ensemble=ensemble, refresh_every=refresh,
                             eta=eta, seed=11 * stages + refresh, convention=convention)
            assert counts(simulate_bb84(cfg)) == reference_bb84(cfg), cfg


def _link_weights(stages, convention):
    """(branch per bin, (bin, state) probability at unit coefficient) of a link, as simulate_bb84 reads it."""
    table = correction_table(EncoderSpec(stages, convention), DecoderSpec(0, convention))
    branch, maps = qkd._compile_link(table)
    return branch, (np.abs(np.einsum("jab,sb->sja", maps, qkd._BB84_QUBITS)) ** 2).sum(axis=2).T


def _landing_bins(keys, totals, branch_weight, state, u):
    """``qkd._landing_bins`` as the oracle reports it: each pulse's bin, -1 if undetected."""
    found, bins = qkd._landing_bins(keys, totals, branch_weight, state, u)
    hit = np.full(len(u), -1)
    hit[found] = bins
    return hit


def _draws(ensemble, count):
    """(branch, draw) weights |coefficient|^2 of ``count`` channel draws."""
    return np.abs(np.array([sample_noise(ensemble, seed).coefficients() for seed in range(count)]).T) ** 2


@pytest.mark.parametrize("stages", range(1, 9))
@pytest.mark.parametrize("convention", list(BsConvention))
def test_landing_bins_equal_the_sequential_walk(convention, stages):
    branch, weights = _link_weights(stages, convention)
    keys, totals = qkd._link_keys(branch, weights)
    rng = np.random.default_rng(stages)
    for ensemble in (IDENTITY, HAAR, GENERAL, dephasing(1.0)):
        draws = _draws(ensemble, 16)
        for eta in (1.0, 0.3):
            branch_weight = draws[:, rng.integers(16, size=10**4)]
            state, u = rng.integers(4, size=10**4), rng.random(10**4) / eta
            hit = _landing_bins(keys, totals, branch_weight, state, u)
            assert hit.tolist() == sequential_bins(branch, weights, branch_weight, state, u).tolist()


@pytest.mark.parametrize("per", [1, 3, 8])
def test_landing_bins_follow_each_states_own_weights(per):
    # bin weights that differ by state and by bin, unlike a real link's equal ones
    rng = np.random.default_rng(per)
    branch, weights = np.repeat(np.arange(4), per), rng.uniform(0.1, 1.0, size=(4 * per, 4))
    keys, totals = qkd._link_keys(branch, weights)
    branch_weight = rng.uniform(0.0, 1.0, size=(4, 10**4))
    state = rng.integers(4, size=10**4)
    u = rng.uniform(0.0, 1.2, size=10**4) * (branch_weight * totals[:, state]).sum(axis=0)
    hit = _landing_bins(keys, totals, branch_weight, state, u)
    assert hit.tolist() == sequential_bins(branch, weights, branch_weight, state, u).tolist()


@pytest.mark.parametrize("stages", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("convention", list(BsConvention))
def test_landing_bins_at_the_edges_stay_within_one_bin_of_the_walk(convention, stages):
    # at 0, at every bin and branch edge and one ulp either side, and at the total and one
    # ulp below: the two samplers round apart, so only a neighbouring bin with mass may differ
    branch, weights = _link_weights(stages, convention)
    keys, totals = qkd._link_keys(branch, weights)
    edges_per_state = 1 + 3 * len(branch)
    state = np.repeat(np.arange(4), edges_per_state)
    for ensemble in (IDENTITY, HAAR, GENERAL, dephasing(1.0)):
        for draw in _draws(ensemble, 3).T:
            mass = weights * draw[branch, None]  # (bin, state)
            edges = np.cumsum(mass, axis=0).T
            u = np.concatenate([np.zeros((4, 1)), edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)],
                               axis=1).ravel()
            branch_weight = np.repeat(draw[:, None], len(u), axis=1)
            hit = _landing_bins(keys, totals, branch_weight, state, u)
            walked = sequential_bins(branch, weights, branch_weight, state, u)
            for s in range(4):
                mine = slice(s * edges_per_state, (s + 1) * edges_per_state)
                # rank among the bins with mass; -1, undetected, ranks after them all
                held = np.flatnonzero(mass[:, s] > 0)
                assert np.isin(hit[mine][hit[mine] >= 0], held).all(), (ensemble.kind, s)
                rank, walked_rank = (np.searchsorted(held, np.where(h[mine] < 0, len(branch), h[mine]))
                                     for h in (hit, walked))
                assert np.abs(rank - walked_rank).max() <= 1, (ensemble.kind, s)


def test_link_keys_reject_a_link_out_of_branch_order():
    branch, weights = _link_weights(1, BsConvention.SYMMETRIC)
    with pytest.raises(RuntimeError, match=r"\[3, 3, 3, 3\] in that order; .* 3 per branch"):
        qkd._link_keys(branch[::-1].copy(), weights)
    uneven = branch.copy()
    uneven[3] = 0
    with pytest.raises(RuntimeError, match=r"\[4, 2, 3, 3\]"):
        qkd._link_keys(uneven, weights)


@pytest.mark.parametrize("seed", [0, 1, 7, 1234, -1, -5, 2**63, 2**64 - 1, 2**70 + 3])
def test_uniform_over_pulse_arrays_is_the_scalar_stream(seed):
    pulses = list(range(2000)) + list(range(2**64 - 50, 2**64))
    for which in range(5):
        batched = qkd._uniform(seed, np.array(pulses, dtype=np.uint64), which)
        assert batched.tolist() == [qkd._uniform(seed, p, which) for p in pulses]
    # every (which, pulse) pair in one call, as simulate_bb84 draws them
    grid = qkd._uniform(seed, np.array(pulses, dtype=np.uint64), np.arange(5, dtype=np.uint64)[:, None])
    assert grid.tolist() == [[qkd._uniform(seed, p, which) for p in pulses] for which in range(5)]


def test_uniform_stays_below_one(monkeypatch):
    # a word from 2**64 - 1024 on rounds to 1.0 and is clamped; the one below
    # is already the largest double below 1. u < p_one must hold for p_one = 1
    below_one = np.nextafter(1.0, 0.0)
    for word, rounds_to_one in ((2**64 - 1025, False), (2**64 - 1024, True), (2**64 - 1, True)):
        assert (word / 2.0**64 == 1.0) is rounds_to_one
        monkeypatch.setattr(qkd, "_mix64", lambda x, word=word: np.full(np.shape(x), word, dtype=np.uint64)
                            if isinstance(x, np.ndarray) else word)
        scalar = qkd._uniform(3, 5, 4)
        assert type(scalar) is float and scalar == below_one, word
        batched = qkd._uniform(3, np.arange(4, dtype=np.uint64), np.arange(2, dtype=np.uint64)[:, None])
        assert batched.shape == (2, 4) and (batched == below_one).all(), word


#: The 1 % point of the chi-square law with one degree of freedom.
_CHI2_1_PERCENT = 6.635


def test_alices_and_bobs_basis_words_are_independent():
    # a stream that ties Bob's basis word to Alice's keeps every word's mean and so every
    # count's law; a 2x2 chi-square over 10^6 pulses of the draws as a block takes them sees it
    pulses = 10**6
    draws = qkd._uniform(2026, np.arange(pulses, dtype=np.uint64), qkd._DRAWS) < 0.5
    alice_basis, bob_basis = draws[0], draws[3]
    observed = np.bincount(2 * alice_basis + bob_basis, minlength=4).reshape(2, 2)
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / pulses
    assert ((observed - expected) ** 2 / expected).sum() < _CHI2_1_PERCENT


@pytest.mark.parametrize("pulses, blocks", [(1000, 1), (10_000, 3)])
def test_a_block_draws_every_pulse_in_one_pass(pulses, blocks, monkeypatch):
    calls = []
    uniform = qkd._uniform

    def counted(master, pulse, which):
        calls.append(len(pulse))
        return uniform(master, pulse, which)

    monkeypatch.setattr(qkd, "_uniform", counted)
    cfg = Bb84Config(pulses=pulses, ensemble=GENERAL, eta=0.6, seed=9)
    stats = simulate_bb84(cfg)
    assert len(calls) == blocks and sum(calls) == pulses
    monkeypatch.undo()
    # the per-pulse oracle draws Bob's words only for the pulses it detects
    assert counts(stats) == reference_bb84(cfg)


def flip_one_pauli(monkeypatch, middle: bool = False):
    """Make ``simulate_bb84`` and ``reference_bins`` derive links with one wrong Pauli."""
    derive = qkd.correction_table
    monkeypatch.setattr(qkd, "correction_table",
                        lambda encoder, decoder: one_pauli_flipped(derive(encoder, decoder), middle))


@pytest.mark.parametrize("middle", [False, True], ids=["first", "middle"])
@pytest.mark.parametrize("stages", [1, 2, 3])
@pytest.mark.parametrize("convention", list(BsConvention))
def test_a_wrong_correction_gives_sifted_errors(convention, stages, middle, monkeypatch):
    # under right corrections every bin of a state gives Bob the same outcome, so only a
    # wrong one shows a count read at the wrong bin. One of 4(N - 1) bins is wrong, and it
    # errs on a quarter or half of the pulses it detects: 19 errors or more expected at 300N pulses
    flip_one_pauli(monkeypatch, middle)
    pulses = 300 * EncoderSpec(stages).bins_per_group
    cfg = Bb84Config(pulses=pulses, stages=stages, ensemble=HAAR, seed=8, convention=convention)
    stats = simulate_bb84(cfg)
    assert stats.errors > 0
    expected = reference_bins(cfg)
    assert counts(stats) == totals(expected)
    # a count read at a neighbouring bin can leave the totals right by chance, but not each bin's
    assert counts_per_bin(cfg, len(expected), monkeypatch) == expected


def test_a_wrong_correction_is_counted_alike_in_every_block(monkeypatch):
    flip_one_pauli(monkeypatch)
    # Under right corrections the counts do not depend on the channel draws;
    # under a wrong one they do, so this checks the draws that straddle blocks.
    monkeypatch.setattr(qkd, "_BLOCK_PULSES", 32)
    for refresh in (7, 50):
        cfg = Bb84Config(pulses=200, ensemble=GENERAL, refresh_every=refresh, seed=3)
        stats = simulate_bb84(cfg)
        assert stats.errors > 0
        assert counts(stats) == reference_bb84(cfg)
    # draws at refresh 1, in blocks of a single draw and in batches
    for ensemble in (HAAR, GENERAL):
        for block in (1, 2, 16, 64):
            monkeypatch.setattr(qkd, "_BLOCK_PULSES", block)
            cfg = Bb84Config(pulses=200, ensemble=ensemble, refresh_every=1, seed=4)
            stats = simulate_bb84(cfg)
            assert stats.errors > 0
            assert counts(stats) == reference_bb84(cfg), (ensemble.kind, block)
