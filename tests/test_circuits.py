import math
import re

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
    physical_splitter_elements,
    recombiner_elements,
    run,
)
from timebinsim.elements import BsConvention, ConventionError, Element
from timebinsim.noise import NoiseParams, random_qubit, sample_noise, HAAR
from timebinsim.state import PhotonState, QubitSpec, new_state

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
    q = random_qubit(0)
    spec = EncoderSpec(1, SURF)
    out = run(build_encoder(spec), new_state(q))
    assert len(out) == 8
    assert out.max_deviation(expected_train(q, spec)) < 1e-12


def test_encoder_basis_input_four_modes():
    spec = EncoderSpec(1, SURF)
    out = run(build_encoder(spec), new_state(QubitSpec(1, 0)))
    assert len(out) == 4
    for ch, pol, tick in ((CHANNEL, "H", 0), (CHANNEL, "H", 2)):
        assert abs(out.amplitude(ch, pol, tick)) == pytest.approx(0.5, abs=1e-12)
    for tick in (64, 66):
        assert abs(out.amplitude(CHANNEL, "V", tick)) == pytest.approx(0.5, abs=1e-12)


def test_encoder_two_stage_sixteen_modes():
    q = random_qubit(1)
    spec = EncoderSpec(2, SURF)
    out = run(build_encoder(spec), new_state(q))
    assert len(out) == 16
    assert out.max_deviation(expected_train(q, spec)) < 1e-12
    # uniformly spaced bins 0..7 per group, magnitudes coeff/sqrt(8)
    for t in range(8):
        coeff = q.alpha if t % 2 == 0 else q.beta
        assert abs(out.amplitude(CHANNEL, "H", t)) == pytest.approx(abs(coeff) / math.sqrt(8), abs=1e-12)


@pytest.mark.parametrize("stages", [1, 2, 3, 4])
def test_encoder_mode_count_and_magnitude_law(stages):
    q = random_qubit(stages)
    spec = EncoderSpec(stages, SURF)
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
        spec = EncoderSpec(stages, SYM)
        out = run(build_encoder(spec), new_state(random_qubit(9)))
        h_ticks = [t for (ch, pol, t) in out.amplitudes if pol.value == "H"]
        v_ticks = [t for (ch, pol, t) in out.amplitudes if pol.value == "V"]
        assert max(h_ticks) + 1 < min(v_ticks)


def test_conventions_agree_per_group_and_parity():
    # one phase per (group, bin parity) relates the two conventions; the
    # delayed group's parity classes genuinely differ by a sign
    spec_surf = EncoderSpec(1, SURF)
    spec_sym = EncoderSpec(1, SYM)
    for seed in range(20):
        q = random_qubit(seed)
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
    enc = build_encoder(EncoderSpec(1, SYM))
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
    s = new_state(random_qubit(4))
    assert run(c, s).max_deviation(s) == 0.0


def test_pipeline_identity_noise_norm_one():
    q = random_qubit(5)
    table = correction_table(EncoderSpec(1, SURF), DecoderSpec(0, SURF))
    out = table.transmit(q, NoiseParams.identity())
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_recombiner_two_arm_state():
    q = random_qubit(6)
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
    q = random_qubit(7)
    group = PhotonState({(CHANNEL, "V", t): (q.alpha if t % 2 == 0 else q.beta) * S2 for t in range(4)})
    out = run(build_decoder(DecoderSpec(0, SURF)), group)
    ports = {m[0] for m in out.amplitudes}
    assert ports == {"6"}
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_identity_pipeline_interior_bin_reconstructs_qubit():
    q = random_qubit(8)
    table = correction_table(EncoderSpec(1, SURF), DecoderSpec(0, SURF))
    out = table.transmit(q, NoiseParams.identity())
    sub = restrict(out, "5", (1, 1))
    assert fidelity_with_qubit(sub, q) == pytest.approx(1.0, abs=1e-12)
    a_h, a_v = qubit_amplitudes(sub)
    assert a_h / q.alpha == pytest.approx(a_v / q.beta, abs=1e-12)


def _exact(state: PhotonState) -> list:
    """Modes in order with the bits of each amplitude."""
    return [(mode, a.real.hex(), a.imag.hex()) for mode, a in state.amplitudes.items()]


@pytest.mark.parametrize("stages", [1, 3])
@pytest.mark.parametrize("convention", [SYM, SURF])
@pytest.mark.parametrize("v_delayed", [False, True])
def test_the_decoder_is_time_invariant(stages, convention, v_delayed):
    # correction_table reads every slot off the decoder's response at tick 0
    enc = EncoderSpec(stages, convention)
    decoder = build_decoder(DecoderSpec(enc.bins_per_group + 1 if v_delayed else 0, convention))
    for pol in ("H", "V"):
        response = run(decoder, PhotonState({(CHANNEL, pol, 0): 1.0}))
        assert len(response) == 2
        for tick in (1, 37, enc.dT):
            shifted = PhotonState({(port, p, t + tick): a for (port, p, t), a in response.amplitudes.items()})
            assert _exact(run(decoder, PhotonState({(CHANNEL, pol, tick): 1.0}))) == _exact(shifted)


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
    # too deep to run; only rejected depths are tried
    assert MAX_STAGES >= 6  # the deepest cascade the scaling table uses
    for stages in (MAX_STAGES + 1, 40):
        with pytest.raises(CircuitError, match="exceed"):
            EncoderSpec(stages)


@pytest.mark.parametrize("stages", range(1, MAX_STAGES + 1))
def test_every_supported_depth_derives_its_group_delay(stages):
    assert EncoderSpec(stages).dT == max(64, 2 ** (stages + 2))


@pytest.mark.parametrize("convention", [64, "symmetric", None])
def test_a_group_delay_in_the_convention_slot_is_rejected(convention):
    # 64 is an old positional group delay; the value of a convention is not the convention
    message = f"convention must be a BsConvention, got {convention!r}"
    with pytest.raises(CircuitError, match=re.escape(message)):
        EncoderSpec(1, convention)


def test_decoder_spec_validation():
    with pytest.raises(CircuitError):
        DecoderSpec(dTprime=-1)
    check_compatible(EncoderSpec(1), DecoderSpec(0))
    check_compatible(EncoderSpec(1), DecoderSpec(16))
    with pytest.raises(CircuitError):
        check_compatible(EncoderSpec(1), DecoderSpec(3))


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
    c = build_encoder(EncoderSpec(1, SYM))
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
    q = random_qubit(10)
    with pytest.raises(CircuitError):
        correction_table(EncoderSpec(1), DecoderSpec(2)).transmit(q, NoiseParams.identity())


def test_scaling_norm_conserved_with_haar_noise():
    for stages in (1, 2, 3):
        q = random_qubit(stages)
        table = correction_table(EncoderSpec(stages, SYM), DecoderSpec(0, SYM))
        out = table.transmit(q, sample_noise(HAAR, stages))
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)
