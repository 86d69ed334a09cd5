import math

import numpy as np
import pytest

from _circgen import random_circuit
from _oracles import fidelity_with_qubit, qubit_amplitudes, random_state, restrict, superpose
from timebinsim.analysis import correction_table
from timebinsim.circuits import (
    CHANNEL,
    MAX_STAGES,
    Circuit,
    CircuitError,
    DecoderSpec,
    EncoderSpec,
    build_decoder,
    build_encoder,
    check_compatible,
    encoder_spec_for,
    physical_splitter_elements,
    recombiner_elements,
    run,
)
from timebinsim.elements import BsConvention, ConventionError, Element
from timebinsim.noise import NoiseParams, sample_noise, HAAR
from timebinsim.state import PhotonState, QubitSpec, new_state, random_qubit

SYM = BsConvention.SYMMETRIC
SURF = BsConvention.SURFACE_PHASES
S2 = 1.0 / math.sqrt(2.0)


def expected_train(q, spec):
    n = spec.bins_per_group
    scale = 1.0 / math.sqrt(n)
    amps = {}
    for t in range(n):
        coeff = (q.alpha if t % 2 == 0 else q.beta) * scale
        amps[(CHANNEL, "H", t)] = coeff
        amps[(CHANNEL, "V", t + spec.dT)] = -1j * coeff
    return PhotonState(amps)


def test_encoder_surface_reproduces_eight_mode_train():
    q = random_qubit(np.random.default_rng(0))
    spec = EncoderSpec(1, 64, SURF)
    out = run(build_encoder(spec), new_state(q))
    assert len(out) == 8
    assert out.max_deviation(expected_train(q, spec)) < 1e-12


def test_encoder_basis_input_four_modes():
    spec = EncoderSpec(1, 64, SURF)
    out = run(build_encoder(spec), new_state(QubitSpec(1, 0)))
    assert len(out) == 4
    for ch, pol, tick in ((CHANNEL, "H", 0), (CHANNEL, "H", 2)):
        assert abs(out.amplitude(ch, pol, tick)) == pytest.approx(0.5, abs=1e-12)
    for tick in (64, 66):
        assert abs(out.amplitude(CHANNEL, "V", tick)) == pytest.approx(0.5, abs=1e-12)


def test_encoder_two_stage_sixteen_modes():
    q = random_qubit(np.random.default_rng(1))
    spec = EncoderSpec(2, 64, SURF)
    out = run(build_encoder(spec), new_state(q))
    assert len(out) == 16
    assert out.max_deviation(expected_train(q, spec)) < 1e-12
    # uniformly spaced bins 0..7 per group, magnitudes coeff/sqrt(8)
    for t in range(8):
        coeff = q.alpha if t % 2 == 0 else q.beta
        assert abs(out.amplitude(CHANNEL, "H", t)) == pytest.approx(abs(coeff) / math.sqrt(8), abs=1e-12)


@pytest.mark.parametrize("stages", [1, 2, 3, 4])
def test_encoder_mode_count_and_magnitude_law(stages):
    q = random_qubit(np.random.default_rng(stages))
    spec = encoder_spec_for(stages, SURF)
    out = run(build_encoder(spec), new_state(q))
    n = spec.bins_per_group
    assert len(out) == 2 * n == 2 ** (stages + 2)
    for t in range(n):
        coeff = q.alpha if t % 2 == 0 else q.beta
        for pol, offset in (("H", 0), ("V", spec.dT)):
            assert abs(out.amplitude(CHANNEL, pol, t + offset)) == pytest.approx(
                abs(coeff) / math.sqrt(n), abs=1e-12
            )


def test_encoder_group_separation():
    for stages in (1, 2, 3):
        spec = encoder_spec_for(stages, SYM)
        out = run(build_encoder(spec), new_state(random_qubit(np.random.default_rng(9))))
        h_ticks = [t for (ch, pol, t) in out.amplitudes if pol.value == "H"]
        v_ticks = [t for (ch, pol, t) in out.amplitudes if pol.value == "V"]
        assert max(h_ticks) + 1 < min(v_ticks)


def test_conventions_agree_per_group_and_parity():
    # one phase per (group, bin parity) relates the two conventions; the
    # delayed group's parity classes genuinely differ by a sign
    rng = np.random.default_rng(2)
    spec_surf = EncoderSpec(1, 64, SURF)
    spec_sym = EncoderSpec(1, 64, SYM)
    for _ in range(20):
        q = random_qubit(rng)
        a = run(build_encoder(spec_surf), new_state(q))
        b = run(build_encoder(spec_sym), new_state(q))
        for pol, offset in (("H", 0), ("V", 64)):
            for parity in (0, 1):
                ratios = []
                for t in range(parity, 4, 2):
                    x = a.amplitude(CHANNEL, pol, t + offset)
                    y = b.amplitude(CHANNEL, pol, t + offset)
                    if abs(x) > 1e-12:
                        ratios.append(y / x)
                assert abs(abs(ratios[0]) - 1.0) < 1e-12
                for r in ratios[1:]:
                    assert abs(r - ratios[0]) < 1e-12


def test_run_is_linear():
    rng = np.random.default_rng(3)
    enc = build_encoder(EncoderSpec(1, 64, SYM))
    for _ in range(10):
        s1 = random_state(rng, ["in"], range(0, 3), modes=4)
        s2 = random_state(rng, ["in"], range(0, 3), modes=4)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        left = run(enc, superpose((a, s1), (b, s2)))
        right = superpose((a, run(enc, s1)), (b, run(enc, s2)))
        assert left.max_deviation(right) < 1e-12

    # the property the compiled BB84 map rests on, on random circuits too
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(60):
        circuit = random_circuit(rng)
        s1 = random_state(rng, ["c0"], range(0, 6), modes=3)
        s2 = random_state(rng, ["c0"], range(0, 6), modes=3)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        try:
            left = run(circuit, superpose((a, s1), (b, s2)))
            right = superpose((a, run(circuit, s1)), (b, run(circuit, s2)))
        except ConventionError:
            continue
        assert left.max_deviation(right) < 1e-12
        checked += 1
    assert checked >= 40


def test_empty_circuit_is_identity():
    c = Circuit("in", (), ("in",))
    s = new_state(random_qubit(np.random.default_rng(4)))
    assert run(c, s).max_deviation(s) == 0.0


def test_pipeline_identity_noise_norm_one():
    q = random_qubit(np.random.default_rng(5))
    table = correction_table(EncoderSpec(1, 64, SURF), DecoderSpec(0, SURF))
    out = table.transmit(q, NoiseParams.identity())
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_recombiner_two_arm_state():
    q = random_qubit(np.random.default_rng(6))
    group = PhotonState({("mid", "H", t): (q.alpha if t % 2 == 0 else q.beta) * S2 for t in range(4)})
    stage = Circuit("mid", recombiner_elements(SURF), ("sp", "lp"))
    out = run(stage, group)
    expected = {}
    for t in range(4):
        coeff = (q.alpha if t % 2 == 0 else q.beta) / 2.0
        expected[("sp", "V", t)] = coeff
        expected[("lp", "H", t + 1)] = coeff
    assert out.max_deviation(PhotonState(expected)) < 1e-12


def test_pure_v_group_exits_alt_port_only():
    q = random_qubit(np.random.default_rng(7))
    group = PhotonState({(CHANNEL, "V", t): (q.alpha if t % 2 == 0 else q.beta) * S2 for t in range(4)})
    out = run(build_decoder(DecoderSpec(0, SURF)), group)
    ports = {m[0] for m in out.amplitudes}
    assert ports == {"6"}
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_identity_pipeline_interior_bin_reconstructs_qubit():
    q = random_qubit(np.random.default_rng(8))
    table = correction_table(EncoderSpec(1, 64, SURF), DecoderSpec(0, SURF))
    out = table.transmit(q, NoiseParams.identity())
    sub = restrict(out, "5", (1, 1))
    assert fidelity_with_qubit(sub, q) == pytest.approx(1.0, abs=1e-12)
    a_h, a_v = qubit_amplitudes(sub)
    assert a_h / q.alpha == pytest.approx(a_v / q.beta, abs=1e-12)


def test_physical_splitter_leaks_half():
    els = physical_splitter_elements("c", 4, SYM)
    circ = Circuit("c", els, ("c", "leak"))
    out = run(circ, PhotonState({("c", "H", 0): 1.0}))
    main = restrict(out, "c", (0, 10)).norm_sq()
    leak = restrict(out, "leak", (0, 10)).norm_sq()
    assert main == pytest.approx(0.5, abs=1e-12)
    assert leak == pytest.approx(0.5, abs=1e-12)
    # per-bin magnitude on the kept port is half, not 1/sqrt(2): the ideal
    # split element hides this loss
    assert abs(out.amplitude("c", "H", 0)) == pytest.approx(0.5, abs=1e-12)
    assert abs(out.amplitude("c", "H", 4)) == pytest.approx(0.5, abs=1e-12)


def test_encoder_spec_validation():
    with pytest.raises(CircuitError):
        EncoderSpec(stages=0)
    with pytest.raises(CircuitError):
        EncoderSpec(stages=1, dT=7)  # needs >= 2N = 8
    with pytest.raises(CircuitError):
        EncoderSpec(stages=5, dT=64)  # default too small at this depth
    assert encoder_spec_for(5).dT == 128
    # too deep to run; only rejected depths are tried
    assert MAX_STAGES >= 6  # the deepest cascade the scaling table uses
    for stages in (MAX_STAGES + 1, 40):
        with pytest.raises(CircuitError, match="exceed"):
            encoder_spec_for(stages)
        with pytest.raises(CircuitError, match="exceed"):
            EncoderSpec(stages, dT=2 ** (stages + 2))


def test_decoder_spec_validation():
    with pytest.raises(CircuitError):
        DecoderSpec(dTprime=-1)
    check_compatible(EncoderSpec(1, 64), DecoderSpec(0))
    check_compatible(EncoderSpec(1, 64), DecoderSpec(16))
    with pytest.raises(CircuitError):
        check_compatible(EncoderSpec(1, 64), DecoderSpec(3))


def test_circuit_wiring_validation():
    with pytest.raises(CircuitError):
        Circuit("in", (Element("hwp", ("ghost",), ("ghost",)),), ("in",))
    with pytest.raises(CircuitError):
        Circuit("in", (Element("split", ("in",), ("in",), ticks=2),), ("ghost",))
    with pytest.raises(CircuitError):
        # second element writes onto a live channel it does not consume
        Circuit(
            "in",
            (
                Element("pbs", ("in",), ("a", "b")),
                Element("hwp", ("a",), ("b",)),
            ),
            ("b",),
        )


def test_run_rejects_unsupported_input():
    c = build_encoder(EncoderSpec(1, 64, SYM))
    with pytest.raises(CircuitError):
        run(c, PhotonState({("elsewhere", "H", 0): 1.0}))


def test_run_propagates_convention_violation():
    from timebinsim.elements import ConventionError

    c = Circuit(
        "in",
        (
            Element("split", ("in",), ("in",), ticks=1),
            Element("bs", ("in",), ("x", "y"), convention=SURF),
            Element("delay", ("y",), ("y",), ticks=0),
            Element("bs", ("x", "y"), ("o1", "o2"), convention=SURF),
        ),
        ("o1", "o2"),
    )
    with pytest.raises(ConventionError):
        run(c, new_state(QubitSpec(1, 0)))


def test_transmit_checks_compatibility():
    q = random_qubit(np.random.default_rng(10))
    with pytest.raises(CircuitError):
        correction_table(EncoderSpec(1, 64), DecoderSpec(2)).transmit(q, NoiseParams.identity())


def test_scaling_norm_conserved_with_haar_noise():
    for stages in (1, 2, 3):
        q = random_qubit(np.random.default_rng(stages))
        table = correction_table(encoder_spec_for(stages, SYM), DecoderSpec(0, SYM))
        out = table.transmit(q, sample_noise(HAAR, stages))
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)
