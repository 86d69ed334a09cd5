"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line per
criterion. Several criteria carry wall-clock budgets; those are asserted.
"""

import math
import time

import numpy as np

from _circgen import corrupt_text, random_circuit, random_lossless_chain
from _oracles import random_state
from timebinsim.analysis import (
    BRANCHES,
    BranchId,
    Correction,
    analyze,
    correction_table,
    total_success,
    success_probability_sweep,
)
from timebinsim.circfile import CircuitTextError, parse_circuit, print_circuit, shipped_circuit
from timebinsim.circuits import (
    CHANNEL,
    Circuit,
    DecoderSpec,
    EncoderSpec,
    build_decoder,
    build_encoder,
    recombiner_elements,
    run,
)
from timebinsim.elements import BsConvention
from timebinsim.noise import GENERAL, HAAR, apply_collective_noise, random_qubit, sample_noise
from timebinsim.qkd import Bb84Config, effective_efficiency, simulate_bb84
from timebinsim.state import PhotonState, new_state

SURF = BsConvention.SURFACE_PHASES
SYM = BsConvention.SYMMETRIC


def report(num, label, detail):
    print(f"criterion {num} ({label}): PASS - {detail}")


def encoded_train_closed_form(q, spec):
    n = spec.bins_per_group
    amps = {}
    for t in range(n):
        coeff = (q.alpha if t % 2 == 0 else q.beta) / math.sqrt(n)
        amps[(CHANNEL, "H", t)] = coeff
        amps[(CHANNEL, "V", t + spec.dT)] = -1j * coeff
    return PhotonState(amps)


def test_criterion_1_encoder_train():
    start = time.perf_counter()
    spec = EncoderSpec(1, SURF)
    enc = build_encoder(spec)
    worst = 0.0
    for seed in range(20):
        q = random_qubit(seed)
        out = run(enc, new_state(q))
        assert len(out) == 8
        worst = max(worst, out.max_deviation(encoded_train_closed_form(q, spec)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    report(1, "encoder train", f"max deviation {worst:.2e} over 20 qubits in {elapsed:.2f}s")


def test_criterion_2_noise_branch_structure():
    spec = EncoderSpec(1, SURF)
    enc = build_encoder(spec)
    q = random_qubit(77)
    sent = run(enc, new_state(q))
    worst = 0.0
    for seed in range(10):
        p = sample_noise(HAAR, seed)
        noisy = apply_collective_noise(sent, p, CHANNEL)
        expected = {}
        for t in range(4):
            coeff = q.alpha if t % 2 == 0 else q.beta
            expected[(CHANNEL, "H", t)] = coeff * p.d1 / 2
            expected[(CHANNEL, "V", t)] = coeff * p.g1 / 2
            expected[(CHANNEL, "H", t + 64)] = -1j * coeff * p.d2 / 2
            expected[(CHANNEL, "V", t + 64)] = -1j * coeff * p.g2 / 2
        worst = max(worst, noisy.max_deviation(PhotonState(expected)))
    assert worst < 1e-12
    report(2, "four-branch noise structure", f"max deviation {worst:.2e} over 10 draws")


def test_criterion_3_recombiner_output():
    q = random_qubit(5)
    s2 = 1.0 / math.sqrt(2.0)
    group = PhotonState({("mid", "H", t): (q.alpha if t % 2 == 0 else q.beta) * s2 for t in range(4)})
    stage = Circuit("mid", recombiner_elements(SURF), ("sp", "lp"))
    out = run(stage, group)
    expected = {}
    for t in range(4):
        coeff = (q.alpha if t % 2 == 0 else q.beta) / 2.0
        expected[("sp", "V", t)] = coeff
        expected[("lp", "H", t + 1)] = coeff
    dev = out.max_deviation(PhotonState(expected))
    assert dev < 1e-12
    report(3, "recombiner two-arm state", f"max deviation {dev:.2e}")


def test_criterion_4_success_three_quarters_per_sample():
    start = time.perf_counter()
    enc = EncoderSpec(1, SURF)
    dec = DecoderSpec(0, SURF)
    worst = 0.0
    for ensemble in (HAAR, GENERAL):
        result = success_probability_sweep(enc, dec, ensemble, samples=1000, seed=100)
        worst = max(worst, result.max_deviation)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 30.0
    report(4, "success 3/4, noise independent",
           f"max |P-0.75| = {worst:.2e} over 2x1000 samples in {elapsed:.1f}s")


def test_criterion_5_scaling_law():
    devs = []
    for stages in range(1, 6):
        enc = EncoderSpec(stages, SYM)
        dec = DecoderSpec(0, SYM)
        table = correction_table(enc, dec)
        q = random_qubit(stages)
        params = sample_noise(HAAR, 40 + stages)
        sent = run(build_encoder(enc), new_state(q))
        noisy = apply_collective_noise(sent, params, CHANNEL)
        success = total_success(analyze(run(build_decoder(dec), noisy), table, q))
        n = enc.bins_per_group
        devs.append(abs(success - (n - 1) / n))
    assert max(devs) < 1e-9
    report(5, "scaling law (N-1)/N", f"stages 1..5, max deviation {max(devs):.2e}")


def test_criterion_6_perfect_reconstruction_and_receiver_rule():
    enc = EncoderSpec(1, SURF)
    dec = DecoderSpec(0, SURF)
    table = correction_table(enc, dec)

    I, X = Correction.IDENTITY, Correction.BIT_FLIP
    derived = {bin_: list(Correction)[i] for bin_, i in zip(table.windows.values(), table.slot_correction)
               if i >= 0}
    rule = {t: c for (b, t), c in derived.items() if b is BranchId.P1H}
    assert rule == {1: I, 2: X, 3: I}
    rule_alt = {t: c for (b, t), c in derived.items() if b is BranchId.P1V}
    assert rule_alt == {1: X, 2: I, 3: X}

    enc_c = build_encoder(enc)
    dec_c = build_decoder(dec)
    worst = 1.0
    for i in range(100):
        params = sample_noise(HAAR if i % 2 else GENERAL, 500 + i)
        for j in range(100):
            q = random_qubit(100 * i + j)
            noisy = apply_collective_noise(run(enc_c, new_state(q)), params, CHANNEL)
            reports = analyze(run(dec_c, noisy), table, q)
            for r in reports:
                for b in r.accepted:
                    worst = min(worst, b.fidelity)
    assert abs(worst - 1.0) < 1e-9
    report(6, "perfect reconstruction",
           f"min fidelity {worst:.12f} over 100 qubits x 100 noise draws; receiver rule matches")


def test_criterion_7_branch_weights_and_edge_discards():
    enc = EncoderSpec(1, SURF)
    dec = DecoderSpec(0, SURF)
    table = correction_table(enc, dec)
    enc_c = build_encoder(enc)
    dec_c = build_decoder(dec)
    worst = 0.0
    for i in range(200):
        params = sample_noise(GENERAL, 900 + i)
        q = random_qubit(900 + i)
        noisy = apply_collective_noise(run(enc_c, new_state(q)), params, CHANNEL)
        for r in analyze(run(dec_c, noisy), table, q):
            weight = abs(params.coefficients()[BRANCHES.index(r.branch)]) ** 2 / 2
            worst = max(worst, abs(r.total_probability - weight))
            if r.accepted:
                assert [b.tick for b in r.discarded] == [0, enc.bins_per_group]
    assert worst < 1e-9
    report(7, "branch weights and discards",
           f"max |branch total - weight| = {worst:.2e}; 2 edge discards per branch")


def test_criterion_8_norm_conservation_suite():
    rng = np.random.default_rng(88)
    channels = ["c", "d", "e"]
    worst = 0.0
    for _ in range(1000):
        s = random_state(rng, channels, range(0, 8), modes=int(rng.integers(1, 10)))
        out = random_lossless_chain(rng, s, channels)
        worst = max(worst, abs(out.norm_sq() - s.norm_sq()))
    assert worst < 1e-12

    enc_c = build_encoder(EncoderSpec(1, SURF))
    worst_noise = 0.0
    for i in range(1000):
        q = random_qubit(3000 + i)
        sent = run(enc_c, new_state(q))
        noisy = apply_collective_noise(sent, sample_noise(GENERAL, 3000 + i), CHANNEL)
        worst_noise = max(worst_noise, abs(noisy.norm_sq() - 1.0))
    assert worst_noise < 1e-12
    report(8, "norm conservation",
           f"chains max drift {worst:.2e}; noisy train max drift {worst_noise:.2e}")


def test_criterion_9_qkd_harness():
    start = time.perf_counter()
    pulses = 100_000

    stats = simulate_bb84(Bb84Config(pulses=pulses, stages=1, ensemble=HAAR, eta=1.0, seed=1234))
    assert stats.qber == 0.0
    # counts of the per-pulse interpreter, which the batched run must reproduce exactly
    assert (stats.detected, stats.sifted, stats.errors) == (75032, 37440, 0)
    p = 0.75
    sigma = math.sqrt(p * (1 - p) / pulses)
    assert abs(stats.detection_rate - p) < 4 * sigma

    stats2 = simulate_bb84(Bb84Config(pulses=pulses, stages=2, ensemble=HAAR, eta=0.6, seed=4321))
    assert stats2.qber == 0.0
    assert (stats2.detected, stats2.sifted, stats2.errors) == (52584, 26374, 0)
    p2 = effective_efficiency(2, 0.6)
    sigma2 = math.sqrt(p2 * (1 - p2) / pulses)
    assert abs(stats2.detection_rate - p2) < 4 * sigma2

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, "qkd harness",
           f"qber 0 exactly; rates {stats.detection_rate:.4f}/{stats2.detection_rate:.4f} "
           f"vs {p}/{p2}; {elapsed:.1f}s for 2x{pulses} pulses")


def test_criterion_10_parser_round_trip():
    assert shipped_circuit("encoder_n1") == build_encoder(EncoderSpec(stages=1))
    assert shipped_circuit("decoder") == build_decoder(DecoderSpec())

    rng = np.random.default_rng(55)
    for _ in range(50):
        circuit = random_circuit(rng)
        text = print_circuit(circuit)
        assert parse_circuit(text) == circuit
        assert print_circuit(parse_circuit(text)) == text

    diagnosed = 0
    for _ in range(150):
        mutated = corrupt_text(print_circuit(random_circuit(rng)), rng)
        try:
            parse_circuit(mutated)
        except CircuitTextError as err:
            assert isinstance(err.line, int) and err.line >= 1
            diagnosed += 1
        # any other exception type would fail the test: diagnostics only
    assert diagnosed > 75
    report(10, "parser round trip",
           f"shipped files match builders; 50 round trips; {diagnosed} corruptions diagnosed")
