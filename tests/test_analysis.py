import dataclasses

import numpy as np
import pytest

from _oracles import csv_rows
from timebinsim import analysis, circuits, noise
from timebinsim.analysis import (
    BRANCHES,
    AcceptedBin,
    BranchId,
    BranchReport,
    Correction,
    CorrectionDerivationError,
    _slots,
    analyze,
    correction_table,
    min_fidelity,
    success_probability_sweep,
    total_success,
)
from timebinsim.circuits import DecoderSpec, EncoderSpec
from timebinsim.elements import BsConvention
from timebinsim.noise import GENERAL, HAAR, IDENTITY, NoiseParams, dephasing, random_qubit, sample_noise
from timebinsim.state import PhotonState, QubitSpec

SYM = BsConvention.SYMMETRIC
SURF = BsConvention.SURFACE_PHASES

I, X, Z, Y = (
    Correction.IDENTITY,
    Correction.BIT_FLIP,
    Correction.PHASE_FLIP,
    Correction.BIT_PHASE_FLIP,
)


#: I, X, Z and Y in ``Correction`` order, written out apart from the tables that
#: ``analysis`` derives from ``Correction.apply``.
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, -1j], [1j, 0]]])


def table_of(branch, table):
    return {t: list(Correction)[i] for (b, t), i in zip(table.windows.values(), table.slot_correction)
            if b is branch and i >= 0}


def test_surface_table_matches_receiver_rule():
    # interior odd bins need nothing on the main port, the middle-parity
    # bins need the bit flip; the alt port is the mirror image
    table = correction_table(EncoderSpec(1, SURF), DecoderSpec(0, SURF))
    assert table_of(BranchId.P1H, table) == {1: I, 2: X, 3: I}
    assert table_of(BranchId.P1V, table) == {1: X, 2: I, 3: X}
    assert table_of(BranchId.P2H, table) == {1: I, 2: X, 3: I}
    assert table_of(BranchId.P2V, table) == {1: X, 2: I, 3: X}


def test_symmetric_table_derived_consistently():
    # the unitary convention leaves a sign on the undelayed group that the
    # derivation must absorb into phase-carrying corrections
    table = correction_table(EncoderSpec(1, SYM), DecoderSpec(0, SYM))
    assert table_of(BranchId.P1H, table) == {1: Z, 2: Y, 3: Z}
    assert table_of(BranchId.P1V, table) == {1: Y, 2: Z, 3: Y}
    assert table_of(BranchId.P2H, table) == {1: I, 2: X, 3: I}
    assert table_of(BranchId.P2V, table) == {1: X, 2: I, 3: X}


@pytest.mark.parametrize("convention", [SURF, SYM])
def test_corrections_verified_by_fidelity_oracle(convention):
    # independent check of the derived tables: whatever Pauli the table
    # claims must take every accepted bin back to the sent qubit
    enc = EncoderSpec(1, convention)
    dec = DecoderSpec(0, convention)
    table = correction_table(enc, dec)
    for seed in range(10):
        q = random_qubit(seed)
        reports = analyze(table.transmit(q, sample_noise(HAAR, seed)), table, q)
        for r in reports:
            for b in r.accepted:
                assert b.fidelity == pytest.approx(1.0, abs=1e-9)


def test_analyze_haar_total_three_quarters():
    enc = EncoderSpec(1, SURF)
    dec = DecoderSpec(0, SURF)
    table = correction_table(enc, dec)
    q = random_qubit(1)
    reports = analyze(table.transmit(q, sample_noise(HAAR, 3)), table, q)
    assert total_success(reports) == pytest.approx(0.75, abs=1e-9)


def test_analyze_identity_noise_branch_structure():
    enc = EncoderSpec(1, SURF)
    dec = DecoderSpec(0, SURF)
    table = correction_table(enc, dec)
    q = random_qubit(2)
    reports = {r.branch: r for r in analyze(table.transmit(q, NoiseParams.identity()), table, q)}
    assert reports[BranchId.P1V].accepted == () and reports[BranchId.P1V].discarded == ()
    assert reports[BranchId.P2H].accepted == () and reports[BranchId.P2H].discarded == ()
    assert reports[BranchId.P1H].success_probability == pytest.approx(0.75 * 0.5, abs=1e-9)
    assert reports[BranchId.P2V].success_probability == pytest.approx(0.75 * 0.5, abs=1e-9)
    assert reports[BranchId.P1H].total_probability == pytest.approx(0.5, abs=1e-9)


def test_analyze_dephasing_kills_cross_branches():
    enc = EncoderSpec(1, SURF)
    dec = DecoderSpec(0, SURF)
    table = correction_table(enc, dec)
    q = random_qubit(3)
    params = sample_noise(dephasing(1.3), 0)
    reports = {r.branch: r for r in analyze(table.transmit(q, params), table, q)}
    assert reports[BranchId.P1V].accepted == ()
    assert reports[BranchId.P2H].accepted == ()
    assert total_success(reports.values()) == pytest.approx(0.75, abs=1e-9)


def test_analyze_three_stage_cascade():
    enc = EncoderSpec(3, SYM)
    dec = DecoderSpec(0, SYM)
    table = correction_table(enc, dec)
    q = random_qubit(4)
    reports = analyze(table.transmit(q, sample_noise(HAAR, 7)), table, q)
    assert total_success(reports) == pytest.approx(15.0 / 16.0, abs=1e-9)


def test_branch_weights_and_discards():
    enc = EncoderSpec(1, SURF)
    dec = DecoderSpec(0, SURF)
    table = correction_table(enc, dec)
    for seed in range(25):
        q = random_qubit(seed)
        params = sample_noise(GENERAL, seed)
        reports = analyze(table.transmit(q, params), table, q)
        for r in reports:
            weight = abs(params.coefficients()[BRANCHES.index(r.branch)]) ** 2 / 2
            assert r.total_probability == pytest.approx(weight, abs=1e-9)
            ticks = [b.tick for b in r.discarded]
            assert ticks == [0, enc.bins_per_group]
            assert [b.tick for b in r.accepted] == list(range(1, enc.bins_per_group))


def test_branch_offsets_with_v_delay():
    enc = EncoderSpec(1, SURF)
    dec = DecoderSpec(16, SURF)
    table = correction_table(enc, dec)
    q = random_qubit(6)
    reports = {r.branch: r for r in analyze(table.transmit(q, sample_noise(HAAR, 1)), table, q)}
    assert reports[BranchId.P1H].offset == 0
    assert reports[BranchId.P1V].offset == 16
    assert reports[BranchId.P2H].offset == 64
    assert reports[BranchId.P2V].offset == 80
    assert total_success(reports.values()) == pytest.approx(0.75, abs=1e-9)


@pytest.mark.parametrize("stages", [1, 2, 3, 4])
@pytest.mark.parametrize("convention", [SYM, SURF])
@pytest.mark.parametrize("v_delayed", [False, True])
def test_windows_partition_the_decoded_state(stages, convention, v_delayed):
    enc = EncoderSpec(stages, convention)
    n = enc.bins_per_group
    table = correction_table(enc, DecoderSpec(n + 1 if v_delayed else 0, convention))
    assert len(table.windows) == 4 * (n + 1)  # no two windows share a slot
    for ensemble in (HAAR, GENERAL):
        for seed in range(3):
            q = random_qubit(10 * stages + seed)
            out = table.transmit(q, sample_noise(ensemble, seed))
            reports = analyze(out, table, q)
            # every amplitude of the decoded state is in exactly one window
            assert sum(r.total_probability for r in reports) == pytest.approx(out.norm_sq(), abs=1e-12)


def test_success_independent_of_noise_sample_by_sample():
    enc = EncoderSpec(1, SYM)
    dec = DecoderSpec(0, SYM)
    for ensemble in (HAAR, GENERAL):
        result = success_probability_sweep(enc, dec, ensemble, samples=100, seed=17)
        assert result.max_deviation < 1e-9
        assert result.mean_success == pytest.approx(0.75, abs=1e-12)


def test_sweep_is_deterministic():
    enc = EncoderSpec(1, SYM)
    dec = DecoderSpec(0, SYM)
    a = success_probability_sweep(enc, dec, HAAR, samples=10, seed=9)
    b = success_probability_sweep(enc, dec, HAAR, samples=10, seed=9)
    assert a == b
    c = success_probability_sweep(enc, dec, HAAR, samples=10, seed=10)
    assert a.samples != c.samples


def test_sweep_identity_single_sample():
    result = success_probability_sweep(EncoderSpec(1, SURF), DecoderSpec(0, SURF), IDENTITY, 1, 0)
    assert result.samples[0].success == pytest.approx(0.75, abs=1e-12)
    assert result.samples[0].min_fidelity == pytest.approx(1.0, abs=1e-12)


def test_sweep_general_ensemble_three_stages():
    result = success_probability_sweep(
        EncoderSpec(3, SYM), DecoderSpec(0, SYM), GENERAL, samples=100, seed=2
    )
    assert result.target == pytest.approx(0.9375)
    assert result.max_deviation < 1e-9


def test_report_serialization():
    enc = EncoderSpec(1, SURF)
    dec = DecoderSpec(0, SURF)
    table = correction_table(enc, dec)
    q = random_qubit(8)
    reports = analyze(table.transmit(q, sample_noise(HAAR, 2)), table, q)
    r = reports[0]
    d = r.to_dict()
    assert d["branch"] == "P1H" and d["port"] == "5"
    assert len(d["accepted"]) == 3 and len(d["discarded"]) == 2
    rows = csv_rows(r)
    assert len(rows) == 5
    head = rows[0].split(",")
    assert head[0] == "P1H" and head[1] == "5" and head[3] in {c.value for c in Correction}


def test_all_branches_present_in_order():
    enc = EncoderSpec(1, SURF)
    dec = DecoderSpec(0, SURF)
    table = correction_table(enc, dec)
    q = random_qubit(9)
    reports = analyze(table.transmit(q, NoiseParams.identity()), table, q)
    assert tuple(r.branch for r in reports) == BRANCHES


@pytest.mark.parametrize("stages", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("convention", [SYM, SURF])
@pytest.mark.parametrize("ensemble", [IDENTITY, HAAR, GENERAL, dephasing(1.0)], ids=lambda e: e.kind)
def test_sweep_samples_equal_the_interpreter(ensemble, convention, stages):
    # every sample evaluated from the slot maps against analyze() of the interpreted state
    enc, dec = EncoderSpec(stages, convention), DecoderSpec(0, convention)
    seed = 31 * stages
    result = success_probability_sweep(enc, dec, ensemble, samples=4, seed=seed)
    table = correction_table(enc, dec)
    for i, sample in enumerate(result.samples):
        params = sample_noise(ensemble, seed + i)
        assert sample.coefficients == params.coefficients()
        q = random_qubit(seed + i)
        reports = analyze(table.transmit(q, params), table, q)
        assert abs(sample.success - total_success(reports)) <= 1e-14
        assert abs(sample.min_fidelity - min_fidelity(reports)) <= 1e-14


@pytest.mark.parametrize("stages", [1, 3])
@pytest.mark.parametrize("convention", [SYM, SURF])
def test_slot_maps_reproduce_every_interpreted_slot(convention, stages):
    # success and fidelity cannot see a slot given the wrong branch; its amplitudes can
    enc, dec = EncoderSpec(stages, convention), DecoderSpec(0, convention)
    table = correction_table(enc, dec)
    for seed in range(3):
        params, q = sample_noise(GENERAL, seed), random_qubit(10 * stages + seed)
        slots = _slots(table.transmit(q, params), table.windows)
        compiled = np.array(params.coefficients())[table.slot_branch, None] \
            * (table.slot_maps @ np.array([q.alpha, q.beta]))
        interpreted = np.array([slots.get(key, (0j, 0j)) for key in table.windows])
        assert np.abs(compiled - interpreted).max() <= 1e-14


def test_table_slot_arrays_are_read_only():
    table = correction_table(EncoderSpec(2, SYM), DecoderSpec(0, SYM))
    arrays = (table.slot_maps, table.slot_branch, table.slot_correction)
    assert len(table.slot_maps) == len(table.slot_branch) == len(table.slot_correction) == len(table.windows)
    # n - 1 accepted interior bins of n + 1 slots per branch, n = 8
    assert (table.slot_correction >= 0).sum() == 4 * 7
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("cap", [1, 40, 100, 250])
def test_sweep_blocks_do_not_change_the_samples(cap, monkeypatch):
    # 20 slots at stage 1: blocks of 1, 2, 5 and 12 samples straddle the 30 samples
    enc, dec = EncoderSpec(1, SURF), DecoderSpec(0, SURF)
    whole = success_probability_sweep(enc, dec, GENERAL, samples=30, seed=6)
    monkeypatch.setattr(analysis, "_BLOCK_SLOTS", cap)
    assert success_probability_sweep(enc, dec, GENERAL, samples=30, seed=6) == whole


def _mutated_sweep(mutate, monkeypatch):
    original = analysis.correction_table
    monkeypatch.setattr(analysis, "correction_table", lambda enc, dec: mutate(original(enc, dec)))
    return success_probability_sweep(EncoderSpec(1, SYM), DecoderSpec(0, SYM), HAAR, samples=3, seed=12)


def _scale_first_accepted_map(table):
    maps = table.slot_maps.copy()
    maps[np.flatnonzero(table.slot_correction >= 0)[0]] *= 1.01
    return dataclasses.replace(table, slot_maps=maps)


def _flip_first_correction(table):
    corrections = table.slot_correction.copy()
    corrections[np.flatnonzero(corrections >= 0)[0]] ^= 1  # I <-> X, Z <-> Y
    return dataclasses.replace(table, slot_correction=corrections)


def test_a_wrong_slot_map_stops_the_sweep(monkeypatch):
    # the slot maps disagree with the interpreter, so sample 0 raises
    with pytest.raises(RuntimeError, match="seed 12"):
        _mutated_sweep(_scale_first_accepted_map, monkeypatch)


def test_a_wrong_correction_shows_as_fidelity_loss(monkeypatch):
    # the one record of a slot's Pauli feeds both the slot maps and the
    # interpreter, so they agree, and the wrong Pauli costs fidelity: I <-> X
    # and Z <-> Y each leave X on the slot, whose fidelity is |<q|X|q>|^2
    result = _mutated_sweep(_flip_first_correction, monkeypatch)
    for i, sample in enumerate(result.samples):
        q = random_qubit(12 + i)
        assert sample.min_fidelity == pytest.approx((2 * (q.alpha.conjugate() * q.beta).real) ** 2, abs=1e-12)
    assert max(s.min_fidelity for s in result.samples) < 0.99


def test_evaluate_scales_each_slot_by_its_own_branch():
    # with right Paulis every branch restores the qubit, so no sweep output shows
    # which coefficient scales which slot; one wrong Pauli in branch P2V does: only
    # a channel that lights P2V loses fidelity, and a permuted branch order in
    # _evaluate moves the loss to the other channel
    table = correction_table(EncoderSpec(1, SYM), DecoderSpec(0, SYM))
    corrections = table.slot_correction.copy()
    in_p2v = (table.slot_branch == BRANCHES.index(BranchId.P2V)) & (corrections >= 0)
    corrections[np.flatnonzero(in_p2v)[0]] ^= 1  # I <-> X, Z <-> Y
    flipped = dataclasses.replace(table, slot_correction=corrections)
    q = random_qubit(5)
    channels = (NoiseParams(1, 0, 1, 0), NoiseParams(0, 1, 0, 1))  # P1H and P2H, then P1V and P2V
    coefficients = np.array([c.coefficients() for c in channels], dtype=complex)
    success, worst = analysis._evaluate(flipped, coefficients, np.array([[q.alpha, q.beta]] * 2))
    x_fidelity = (2 * (q.alpha.conjugate() * q.beta).real) ** 2  # |<q|X|q>|^2
    assert worst.tolist() == pytest.approx([1.0, x_fidelity], abs=1e-12) and x_fidelity < 0.05
    assert success.tolist() == pytest.approx([0.75, 0.75], abs=1e-12)
    for channel, fidelity in zip(channels, worst.tolist()):
        assert min_fidelity(analyze(flipped.transmit(q, channel), flipped, q)) == pytest.approx(fidelity, abs=1e-12)


@pytest.mark.parametrize("stages", [1, 3])
@pytest.mark.parametrize("convention", [SYM, SURF])
def test_an_uncorrectable_bin_raises_the_derivation_error(convention, stages, monkeypatch):
    # without the decoder's arm phase no single Pauli undoes the first interior bin
    monkeypatch.setattr(circuits, "DECODER_ARM_PHASE", 0.0)
    with pytest.raises(CorrectionDerivationError, match="bin 1 of branch P1H"):
        correction_table(EncoderSpec(stages, convention), DecoderSpec(0, convention))


# -- references for the batched sweep draws and the table's derivation ---------

def reference_sweep(enc, dec, ensemble, samples, seed):
    """The sweep as a per-sample loop: one sample_noise and one random_qubit per sample."""
    table = correction_table(enc, dec)
    per_block = max(1, analysis._BLOCK_SLOTS // len(table.windows))
    rows = []
    for start in range(0, samples, per_block):
        block = range(start, min(start + per_block, samples))
        params = [sample_noise(ensemble, seed + i) for i in block]
        qubits = [random_qubit(seed + i) for i in block]
        success, worst = analysis._evaluate(
            table, np.array([p.coefficients() for p in params], dtype=complex),
            np.array([(q.alpha, q.beta) for q in qubits], dtype=complex))
        rows += map(analysis.SweepSample, [tuple(map(complex, p.coefficients())) for p in params],
                    success.tolist(), worst.tolist())
    target = (enc.bins_per_group - 1) / enc.bins_per_group
    return analysis.SweepResult(target, tuple(rows), sum(r.success for r in rows) / samples,
                                max(abs(r.success - target) for r in rows))


@pytest.mark.parametrize("seed", [3, 2**64 - 130])
@pytest.mark.parametrize("samples", [1, 59, 60, 61, 130])
@pytest.mark.parametrize("ensemble", [IDENTITY, HAAR, GENERAL, dephasing(1.0)], ids=lambda e: e.kind)
def test_sweep_equals_the_per_sample_loop_bit_for_bit(ensemble, samples, seed):
    # 60 samples make a block at stage 3; 2**64 - 130 is the top seed whose 130 noise seeds fit in 64 bits
    enc, dec = EncoderSpec(3, SYM), DecoderSpec(0, SYM)
    result = success_probability_sweep(enc, dec, ensemble, samples, seed)
    assert repr(result) == repr(reference_sweep(enc, dec, ensemble, samples, seed))


@pytest.mark.parametrize("stream", ["noise", "qubit"])
def test_a_batch_shifted_by_one_row_stops_the_sweep(stream, monkeypatch):
    # the noise rows and the qubits come from one batch each over the block's seeds
    if stream == "noise":
        monkeypatch.setattr(analysis, "sample_coefficients",
                            lambda ensemble, seeds: noise.sample_coefficients(ensemble, np.roll(seeds, -1)))
    else:
        monkeypatch.setattr(analysis, "sample_qubits", lambda seeds: noise.sample_qubits(np.roll(seeds, -1)))
    with pytest.raises(RuntimeError, match="batched draw .* of sweep sample 0 .* for seed 5"):
        success_probability_sweep(EncoderSpec(1, SYM), DecoderSpec(0, SYM), GENERAL, 3, 5)


def test_a_negative_seed_raises_on_the_batched_path():
    for ensemble in (IDENTITY, GENERAL):
        with pytest.raises(ValueError, match="non-negative"):
            success_probability_sweep(EncoderSpec(1, SYM), DecoderSpec(0, SYM), ensemble, 3, -1)


def test_noise_seeds_past_64_bits_raise_before_any_draw():
    for ensemble in (IDENTITY, GENERAL):
        success_probability_sweep(EncoderSpec(1, SYM), DecoderSpec(0, SYM), ensemble, 3, 2**64 - 3)
        with pytest.raises(ValueError, match=r"seed \+ 2 below 2\*\*64, got 18446744073709551614"):
            success_probability_sweep(EncoderSpec(1, SYM), DecoderSpec(0, SYM), ensemble, 3, 2**64 - 2)


def oracle_slot_maps(table):
    """Each slot's map from four full transmits, one per basis state and channel setting."""
    maps = {key: np.zeros((2, 2), dtype=complex) for key in table.windows}
    for params in (NoiseParams.identity(), NoiseParams(0, 1, 1, 0)):  # identity, bit flip
        for col, qubit in enumerate((QubitSpec.horizontal(), QubitSpec.vertical())):
            for key, (a_h, a_v) in _slots(table.transmit(qubit, params), table.windows).items():
                maps[key][:, col] = a_h, a_v
    return np.array(list(maps.values()))


def oracle_slot_correction(maps):
    """The rank test by SVD and the Pauli match by four stacked matmuls."""
    singulars = np.linalg.svd(maps, compute_uv=False)
    full_rank = singulars[:, -1] > 1e-9 * singulars[:, 0]
    scale = 1e-9 * np.abs(maps).max(axis=(1, 2))
    found = np.full(len(maps), -1)
    for index, pauli in enumerate(PAULIS):
        r = pauli @ maps
        match = (np.abs(r[:, 0, 1]) <= scale) & (np.abs(r[:, 1, 0]) <= scale) \
            & (np.abs(r[:, 0, 0] - r[:, 1, 1]) <= scale)
        found[match & (found < 0)] = index
    return np.where(full_rank, found, -1)


def test_the_derived_pauli_tables_match_the_written_out_paulis():
    assert np.array_equal(analysis._PAULI_MATRICES, PAULIS)
    # every Pauli at a random complex scale, and maps that are no Pauli
    rng = np.random.default_rng(7)
    scales = rng.standard_normal((50, 1, 1)) + 1j * rng.standard_normal((50, 1, 1))
    maps = np.concatenate([(scales * pauli) for pauli in PAULIS]
                          + [rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))])
    found = analysis._find_paulis(maps)
    assert found.tolist() == oracle_slot_correction(maps).tolist() == np.repeat([0, 1, 2, 3, -1], 50).tolist()


def within_rounding_of_the_oracle(maps, oracle):
    """Whether every entry is within 4 eps of the largest oracle entry of its slot.

    The table multiplies each sent amplitude by a decoder tap, a * (c1 * c2),
    where the interpreter applies the elements in turn, (a * c1) * c2: the two
    roundings differ by a few ulp of the slot's scale, and a slot the oracle
    leaves dark must stay exactly zero.
    """
    bound = 4 * np.finfo(float).eps * np.abs(oracle).max(axis=(1, 2))
    return bool((np.abs(maps - oracle) <= bound[:, None, None]).all())


def test_a_negated_decoder_tap_breaks_the_oracle_bound(monkeypatch):
    # the table decodes both unit impulses in one run, H at tick 0 and V at the
    # decoder's span, the only two-mode state it decodes; the H response lies
    # before the span
    def negate_first_tap(dec_c, sent, params):
        out = analysis_decode(dec_c, sent, params)
        if len(sent) == 2 and sent.amplitude(circuits.CHANNEL, "H", 0) == 1:
            span = analysis._span(dec_c)
            assert sent.amplitude(circuits.CHANNEL, "V", span) == 1
            first = next(mode for mode in out.amplitudes if mode[2] < span)
            out = PhotonState._from_clean({**out.amplitudes, first: -out.amplitudes[first]})
        return out

    analysis_decode = analysis._decode
    monkeypatch.setattr(analysis, "_decode", negate_first_tap)
    table = correction_table(EncoderSpec(2, SYM), DecoderSpec(0, SYM))
    assert not within_rounding_of_the_oracle(table.slot_maps, oracle_slot_maps(table))


@pytest.mark.parametrize("stages", range(1, 9))
@pytest.mark.parametrize("convention", [SYM, SURF])
@pytest.mark.parametrize("v_delayed", [False, True])
def test_table_derivation_equals_the_oracle(stages, convention, v_delayed):
    enc = EncoderSpec(stages, convention)
    table = correction_table(enc, DecoderSpec(enc.bins_per_group + 1 if v_delayed else 0, convention))
    maps = oracle_slot_maps(table)
    assert within_rounding_of_the_oracle(table.slot_maps, maps)
    assert table.slot_correction.tolist() == oracle_slot_correction(maps).tolist()
    assert (table.slot_correction >= 0).sum() == 4 * (enc.bins_per_group - 1)


@pytest.mark.parametrize("fidelities", [(0.9, float("nan")), (float("nan"), 0.9)])
def test_min_fidelity_is_nan_when_any_fidelity_is(fidelities):
    accepted = tuple(AcceptedBin("main", t, I, 0.25, f) for t, f in enumerate(fidelities, start=1))
    assert np.isnan(min_fidelity([BranchReport(BranchId.P1H, "main", 0, accepted, ())]))


def test_a_nan_success_after_the_first_sample_makes_max_deviation_nan(monkeypatch):
    evaluate = analysis._evaluate

    def nan_in_row_2(table, coefficients, qubits):
        success, worst = evaluate(table, coefficients, qubits)
        success[2] = np.nan
        return success, worst

    monkeypatch.setattr(analysis, "_evaluate", nan_in_row_2)
    result = success_probability_sweep(EncoderSpec(1, SYM), DecoderSpec(0, SYM), HAAR, 5, 1)
    assert np.isnan(result.samples[2].success)
    assert np.isnan(result.max_deviation)
