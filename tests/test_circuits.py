import math
import re
import struct
from functools import partial

import numpy as np
import pytest

from _circgen import random_circuit
from _oracles import (REFERENCE_KERNELS, fidelity_with_qubit, qubit_amplitudes, random_state, restrict,
                      superpose)
from timebinsim import analysis, circuits
from timebinsim.analysis import _both_inputs, _span, correction_table
from timebinsim.noise import _apply_collective_noise
from timebinsim.qkd import Bb84Config, effective_efficiency
from timebinsim.circuits import (
    CHANNEL,
    MAX_STAGES,
    PORT_ALT,
    PORT_MAIN,
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
from timebinsim.state import H, V, PhotonState, QubitSpec, new_state

SYM = BsConvention.SYMMETRIC
SURF = BsConvention.SURFACE_PHASES
S2 = 1.0 / math.sqrt(2.0)


def expected_train(q, spec):
    """(a, b, a, ...)/sqrt(N) on H from tick 0; from tick dT on V, -i*(a, b, ...)/sqrt(N)
    under the surface convention and +i*(a, -b, ...)/sqrt(N) under the symmetric one."""
    n = spec.bins_per_group
    scale = 1.0 / math.sqrt(n)
    v_phase, v_odd_sign = (-1j, 1) if spec.convention is SURF else (1j, -1)
    amps = {}
    for t in range(n):
        even = t % 2 == 0
        amps[(CHANNEL, "H", t)] = (q.alpha if even else q.beta) * scale
        amps[(CHANNEL, "V", t + spec.dT)] = v_phase * (q.alpha if even else v_odd_sign * q.beta) * scale
    return PhotonState(amps)


def test_encoder_surface_reproduces_eight_mode_train():
    q = random_qubit(0)
    spec = EncoderSpec(1, SURF)
    out = run(build_encoder(spec), new_state(q))
    assert len(out) == 8
    assert out.max_deviation(expected_train(q, spec)) < 1e-12


@pytest.mark.parametrize("convention", [SURF, SYM])
@pytest.mark.parametrize("stages", [1, 2, 3, 4])
def test_encoder_matches_the_closed_form_train_exactly(stages, convention):
    # amplitudes, not magnitudes or phase classes: a wrong arm phase shows here
    spec = EncoderSpec(stages, convention)
    for seed in range(5):
        q = random_qubit(seed)
        out = run(build_encoder(spec), new_state(q))
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


def test_one_run_on_both_basis_inputs_splits_into_the_two_runs():
    # correction_table runs each device once, on a unit H amplitude at tick 0 and
    # a unit V amplitude at tick 1 + the sum of the element ticks
    rng = np.random.default_rng(53)
    outcomes = {"equal": 0, "raised": 0}
    for _ in range(500):
        circuit = random_circuit(rng)
        span = 1 + sum(el.ticks for el in circuit.elements)
        assert analysis._span(circuit) == span
        alone = []
        for pol in ("H", "V"):
            try:
                alone.append(run(circuit, PhotonState({(circuit.input, pol, 0): 1.0})))
            except ConventionError:
                alone.append(None)
        try:
            both = run(circuit, analysis._both_inputs(circuit.input, span)).amplitudes
        except ConventionError:
            assert None in alone
            outcomes["raised"] += 1
            continue
        assert None not in alone
        h = PhotonState._from_clean({mode: a for mode, a in both.items() if mode[2] < span})
        v = PhotonState._from_clean({(ch, pol, t - span): a for (ch, pol, t), a in both.items() if t >= span})
        assert _exact(h) == _exact(alone[0]) and _exact(v) == _exact(alone[1])
        outcomes["equal"] += 1
    assert outcomes["raised"] >= 5 and outcomes["equal"] >= 400


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
    for convention in (64, "symmetric"):
        message = f"convention must be a BsConvention, got {convention!r}"
        with pytest.raises(CircuitError, match=re.escape(message)):
            DecoderSpec(0, convention)
    check_compatible(EncoderSpec(1), DecoderSpec(0))
    check_compatible(EncoderSpec(1), DecoderSpec(16))
    with pytest.raises(CircuitError):
        check_compatible(EncoderSpec(1), DecoderSpec(3))


@pytest.mark.parametrize("build", [
    lambda: EncoderSpec(1.5),
    lambda: effective_efficiency(1.5, 1.0),
    lambda: DecoderSpec(9.5),
    lambda: Element("delay", ("a",), ("a",), ticks=1.5),
    lambda: Bb84Config(pulses=10.0),
    lambda: Bb84Config(pulses=10, refresh_every=2.5),
    lambda: analysis.success_probability_sweep(EncoderSpec(1), DecoderSpec(0), HAAR, 2.0, 0),
], ids=["stages", "efficiency-stages", "dTprime", "ticks", "pulses", "refresh_every", "samples"])
def test_an_integer_field_rejects_a_non_integer(build):
    # a float passes each field's range check, so the type is checked where the field is declared
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build()


def reference_encoder(spec):
    """``build_encoder``'s chain written out element by element, in chain order."""
    els = [
        Element("pbs", ("in",), ("s", "l")),
        Element("hwp", ("l",), ("l",)),
        Element("phase", ("l",), ("l",), phi=circuits.ENCODER_ARM_PHASE),
        Element("delay", ("l",), ("l",), ticks=1),
        Element("bs", ("s", "l"), ("1", "2"), convention=spec.convention),
    ]
    for stage in range(1, spec.stages + 1):
        els.append(Element("split", ("1",), ("1",), ticks=2 ** stage))
        els.append(Element("split", ("2",), ("2",), ticks=2 ** stage))
    els.append(Element("hwp", ("2",), ("2",)))
    els.append(Element("delay", ("2",), ("2",), ticks=spec.dT))
    els.append(Element("pbs", ("1", "2"), (CHANNEL,)))
    return Circuit("in", tuple(els), (CHANNEL,))


def reference_decoder(spec):
    """``build_decoder``'s chain written out element by element, in chain order."""
    els = (
        Element("pbs", (CHANNEL,), ("h", "v")),
        Element("delay", ("v",), ("v",), ticks=spec.dTprime),
        Element("pbs", ("h", "v"), ("mid",)),
        Element("bs", ("mid",), ("sp", "lp"), convention=spec.convention),
        Element("hwp", ("sp",), ("sp",)),
        Element("phase", ("lp",), ("lp",), phi=circuits.DECODER_ARM_PHASE),
        Element("delay", ("lp",), ("lp",), ticks=1),
        Element("pbs", ("sp", "lp"), (PORT_ALT, PORT_MAIN)),
    )
    return Circuit(CHANNEL, els, (PORT_MAIN, PORT_ALT))


@pytest.mark.parametrize("convention", [SYM, SURF])
def test_builds_from_prebuilt_elements_equal_the_element_by_element_chains(convention):
    # the builders are memoized: the device each spec shares must be the chain written out
    for stages in range(1, MAX_STAGES + 1):
        encoder = EncoderSpec(stages, convention)
        assert build_encoder(encoder) == reference_encoder(encoder), stages
        for dtprime in (0, encoder.bins_per_group + 1):
            decoder = DecoderSpec(dtprime, convention)
            assert build_decoder(decoder) == reference_decoder(decoder), (stages, dtprime)


def test_a_second_build_of_an_equal_spec_constructs_nothing(monkeypatch):
    # counts work instead of timing it: each spec's device is built once per process
    made = []
    post_init = Element.__post_init__

    def counted(element):
        made.append(element.kind)
        post_init(element)

    monkeypatch.setattr(Element, "__post_init__", counted)
    for convention in (SYM, SURF):
        for stages in (1, 4, MAX_STAGES):
            encoder = EncoderSpec(stages, convention)
            first = build_encoder(encoder)
            made.clear()
            assert build_encoder(EncoderSpec(stages, convention)) is first
            assert made == []
            for dtprime in (0, encoder.bins_per_group + 1):
                first = build_decoder(DecoderSpec(dtprime, convention))
                made.clear()
                assert build_decoder(DecoderSpec(dtprime, convention)) is first
                assert made == []
    # the spec is positional-only: a keyword call would be a second cache key, and so a second device
    for builder, spec in ((build_encoder, EncoderSpec(1, SYM)), (build_decoder, DecoderSpec(0, SYM))):
        first = builder(spec)
        before = builder.cache_info()
        with pytest.raises(TypeError):
            builder(spec=spec)
        after = builder.cache_info()
        # functools counts the rejected lookup as a miss, but it stores and builds nothing
        assert (after.hits, after.currsize, made) == (before.hits, before.currsize, [])
        assert builder(spec) is first


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


# -- the kernels against the reference kernels, bit for bit ----------------------

def _outcomes(steps) -> list:
    """Each step's output amplitudes in order, each as the bytes of its two parts, or its
    ConventionError; a step returns a state or an amplitude dict."""
    outcomes = []
    for step in steps:
        try:
            amps = step()
        except ConventionError as error:
            outcomes.append(("ConventionError", str(error)))
            continue
        amps = getattr(amps, "amplitudes", amps)
        outcomes.append([(mode, struct.pack("<dd", a.real, a.imag)) for mode, a in amps.items()])
    return outcomes


def _assert_kernels_match_the_reference(steps, monkeypatch) -> int:
    """The steps' ``_outcomes`` are the same under the kernels and the reference kernels;
    returns how many steps raised."""
    fast = _outcomes(steps)
    with monkeypatch.context() as patched:
        for name, kernel in REFERENCE_KERNELS.items():
            patched.setattr(circuits, name, kernel)
        reference = _outcomes(steps)
    assert fast == reference
    return sum(isinstance(outcome, tuple) for outcome in fast)


def _signed_amplitudes(rng, channels, modes: int) -> dict:
    """Amplitudes whose parts are each a normal draw, 0.0 or -0.0: exact zeros and signed
    zeros included, which a state's construction would prune and the kernels must treat alike."""
    amps = {}
    while len(amps) < modes:
        mode = (str(rng.choice(channels)), H if rng.integers(2) else V, int(rng.integers(0, 8)))
        amps[mode] = complex(*(float(rng.normal()) if k == 2 else (0.0, -0.0)[k]
                               for k in rng.integers(0, 3, size=2)))
    return amps


def test_kernels_equal_the_reference_kernels_on_random_circuits(monkeypatch):
    # whole runs, and each element alone with a channel it passes through
    rng = np.random.default_rng(23)
    steps = []
    for _ in range(400):
        circuit = random_circuit(rng)
        signed = PhotonState.__new__(PhotonState)
        signed.amplitudes = _signed_amplitudes(rng, ["c0"], modes=int(rng.integers(1, 8)))
        for state in (random_state(rng, ["c0"], range(0, 8), modes=int(rng.integers(1, 8))), signed):
            steps.append(partial(run, circuit, state))
        for el in circuit.elements:
            amps = _signed_amplitudes(rng, [*el.ins, "x"], modes=int(rng.integers(1, 12)))
            steps.append(partial(circuits._dispatch, el, amps))
    assert _assert_kernels_match_the_reference(steps, monkeypatch) > 0  # the surface-phase guard too


@pytest.mark.parametrize("convention", [SYM, SURF])
def test_kernels_equal_the_reference_kernels_on_the_devices(convention, monkeypatch):
    # the devices on sent qubits and on the two-input impulse runs of correction_table
    for stages in range(1, MAX_STAGES + 1):
        encoder = build_encoder(EncoderSpec(stages, convention))
        qubits = [new_state(q) for q in (QubitSpec(S2, S2), random_qubit(stages))]
        inputs = [*qubits, _both_inputs(encoder.input, _span(encoder))]
        _assert_kernels_match_the_reference([partial(run, encoder, s) for s in inputs], monkeypatch)
        sent = run(encoder, qubits[1]).amplitudes
        noisy = PhotonState._from_clean(_apply_collective_noise(sent, sample_noise(HAAR, stages), {CHANNEL}))
        for dtprime in (0, EncoderSpec(stages).bins_per_group + 1):
            decoder = build_decoder(DecoderSpec(dtprime, convention))
            inputs = [noisy, _both_inputs(CHANNEL, _span(decoder))]
            _assert_kernels_match_the_reference([partial(run, decoder, s) for s in inputs], monkeypatch)
