import numpy as np
import pytest

from _circgen import corrupt_text, random_circuit
from timebinsim.circfile import (
    CircuitTextError,
    parse_circuit,
    print_circuit,
    shipped_circuit,
)
from timebinsim.circuits import DecoderSpec, EncoderSpec, build_decoder, build_encoder
from timebinsim.elements import BsConvention
from timebinsim.noise import NoiseParams


def test_single_element_line():
    c = parse_circuit("input in\npbs in -> s l\noutput s l\n")
    assert len(c.elements) == 1
    assert c.elements[0].kind == "pbs"
    assert c.elements[0].ins == ("in",)
    assert c.elements[0].outs == ("s", "l")


def test_comments_and_blank_lines_ignored():
    text = "# header\n\ninput in  # the qubit arrives here\nhwp in -> in\n\noutput in\n"
    c = parse_circuit(text)
    assert len(c.elements) == 1


def test_shipped_encoder_matches_builder():
    assert shipped_circuit("encoder_n1") == build_encoder(EncoderSpec(stages=1))


def test_shipped_decoder_matches_builder():
    assert shipped_circuit("decoder") == build_decoder(DecoderSpec())


def test_print_parse_fixed_point_on_builders():
    for circuit in (
        build_encoder(EncoderSpec(2, BsConvention.SURFACE_PHASES)),
        build_decoder(DecoderSpec(16, BsConvention.SYMMETRIC)),
    ):
        text = print_circuit(circuit)
        assert parse_circuit(text) == circuit
        assert print_circuit(parse_circuit(text)) == text


def test_print_parse_fixed_point_randomized():
    rng = np.random.default_rng(42)
    for _ in range(50):
        circuit = random_circuit(rng)
        text = print_circuit(circuit)
        reparsed = parse_circuit(text)
        assert reparsed == circuit
        assert print_circuit(reparsed) == text


def test_noise_element_round_trips():
    p = NoiseParams(0.6, 0.8j, 0.8, -0.6j)
    text = f"input a\nnoise a -> a d1={p.d1!r} g1={p.g1!r} d2={p.d2!r} g2={p.g2!r}\noutput a\n"
    c = parse_circuit(text)
    assert c.elements[0].noise == p
    assert parse_circuit(print_circuit(c)) == c


def test_error_unknown_kind():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\nwobble a -> b\noutput b\n")
    assert err.value.line == 2
    assert "wobble" in str(err.value)


def test_error_undeclared_channel_names_channel_and_line():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\nhwp a -> a\nbs a q -> b c\noutput b c\n")
    assert err.value.line == 3
    assert "'q'" in str(err.value)


def test_error_use_before_produced():
    text = "input a\nbs a b -> c d conv=symmetric\npbs a -> b x\noutput c d\n"
    with pytest.raises(CircuitTextError) as err:
        parse_circuit(text)
    assert err.value.line == 2
    assert "'b'" in str(err.value)


def test_error_arity():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\nhwp a -> a b\noutput a\n")
    assert err.value.line == 2
    assert "arity" in str(err.value)


def test_error_missing_arrow():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\nhwp a a\noutput a\n")
    assert err.value.line == 2


def test_error_arrow_as_a_channel():
    # a second arrow, or one in an input or output line, would be read as a channel named '->'
    for text, line, message in (("input a\npbs a -> -> b\noutput b\n", 2, "more than one '->'"),
                                ("input a\nhwp a -> b -> c\noutput c\n", 2, "more than one '->'"),
                                ("input ->\nhwp -> -> a\noutput a\n", 1, "input: '->' is not"),
                                ("input a\nhwp a -> b\noutput b ->\n", 3, "output: '->' is not"),
                                ("input a\npbs a -> -> b\noutput b ->\n", 2, "more than one '->'")):
        with pytest.raises(CircuitTextError, match=message) as err:
            parse_circuit(text)
        assert err.value.line == line, text


def test_error_duplicate_input():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\ninput b\nhwp a -> a\noutput a\n")
    assert err.value.line == 2


def test_error_output_not_last():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\noutput a\nhwp a -> a\n")
    assert err.value.line == 3


def test_error_missing_input_or_output():
    with pytest.raises(CircuitTextError):
        parse_circuit("hwp a -> a\noutput a\n")
    with pytest.raises(CircuitTextError):
        parse_circuit("input a\nhwp a -> a\n")
    with pytest.raises(CircuitTextError):
        parse_circuit("")


def test_error_bad_key_value():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\ndelay a -> a ticks=soon\noutput a\n")
    assert err.value.line == 2
    assert "ticks" in str(err.value)


def test_error_unknown_key():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\nhwp a -> a phi=1.0\noutput a\n")
    assert err.value.line == 2


def test_error_repeated_key():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\ndelay a -> a ticks=1 ticks=2\noutput a\n")
    assert err.value.line == 2


def test_error_bad_convention():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\nbs a -> b c conv=sideways\noutput b c\n")
    assert err.value.line == 2


def test_error_invalid_noise_params():
    with pytest.raises(CircuitTextError) as err:
        parse_circuit("input a\nnoise a -> a d1=(0.5+0j)\noutput a\n")
    assert err.value.line == 2


def test_corrupted_texts_always_diagnose_never_crash():
    rng = np.random.default_rng(7)
    diagnosed = 0
    for _ in range(120):
        text = print_circuit(random_circuit(rng))
        mutated = corrupt_text(text, rng)
        try:
            parse_circuit(mutated)
        except CircuitTextError as err:
            assert isinstance(err.line, int) and err.line >= 1
            diagnosed += 1
    assert diagnosed > 60  # most mutations must be caught, none may crash
