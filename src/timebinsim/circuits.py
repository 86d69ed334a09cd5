"""Circuit composition and the standard encoder/decoder chains.

A circuit is a straight-line program over named channels: each element
consumes its input channels and produces its outputs, and a state is run
through the elements in order. Builders assemble the two devices this
package exists to study:

* the encoder, which splits an incoming polarization qubit into a train
  of 2N wavepackets (N = 2^(stages+1)) on a single fiber - an H-polarized
  group at ticks 0..N-1 and a V-polarized copy delayed by ``dT``;
* the decoder, whose final half-tick interferometer overlaps neighboring
  wavepackets so that time-gated detection recovers the qubit.

Tick unit: half the first splitter interval, so every path difference in
the chain is an exact integer.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .elements import (
    BsConvention,
    Element,
    _apply_bs,
    _apply_delay,
    _apply_hwp,
    _apply_pbs,
    _apply_phase,
    _apply_timebin_splitter,
    _rename_channel,
)
from .noise import NoiseParams, _apply_collective_noise
from .state import PhotonState

#: Phase on the encoder long arm; cancels the splitter reflection so both
#: output trains carry the same alpha/beta pattern (surface convention).
ENCODER_ARM_PHASE = 3.0 * math.pi / 2.0

#: Phase on the decoder long arm; cancels the second-surface reflection
#: phase picked up inside the recombining interferometer.
DECODER_ARM_PHASE = math.pi / 2.0

#: Deepest encoder cascade: at 12 stages a group holds 2^13 bins and a
#: decoded state about 6.6e4 modes. Deeper specs are rejected before any
#: state is allocated.
MAX_STAGES = 12
#: Most modes ``run`` lets an element leave: twice the stage-12 devices' peak of 65,536.
MAX_MODES = 1 << 17

#: Label of the single fiber between encoder and decoder.
CHANNEL = "chan"

#: Decoder output ports; H-group qubits reassemble on PORT_MAIN, V-group
#: qubits on PORT_ALT.
PORT_MAIN = "5"
PORT_ALT = "6"


class CircuitError(ValueError):
    """A circuit description is ill-formed (wiring, arity, or support)."""

    def __init__(self, message: str, element_index: int | None = None):
        super().__init__(message)
        self.element_index = element_index


@dataclass(frozen=True)
class Circuit:
    """Ordered element placements with one declared input channel."""

    input: str
    elements: tuple[Element, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        live = {self.input}
        for idx, el in enumerate(self.elements):
            for ch in el.ins:
                if ch not in live:
                    raise CircuitError(
                        f"element {idx + 1} ({el.kind}): channel {ch!r} is not available here",
                        element_index=idx,
                    )
            live -= set(el.ins)
            for ch in el.outs:
                if ch in live:
                    raise CircuitError(
                        f"element {idx + 1} ({el.kind}): output {ch!r} collides with a live channel",
                        element_index=idx,
                    )
            live |= set(el.outs)
        for ch in self.outputs:
            if ch not in live:
                raise CircuitError(f"declared output {ch!r} is not produced by the circuit")
        if len(set(self.outputs)) < len(self.outputs):
            raise CircuitError(f"repeated output channel in {' '.join(self.outputs)!r}")


def _pad2(labels: tuple[str, ...]) -> tuple[str | None, str | None]:
    return (labels[0], labels[1] if len(labels) > 1 else None)


def _dispatch(el: Element, amps: dict) -> dict:
    if el.kind == "pbs":
        i1, i2 = _pad2(el.ins)
        o1, o2 = _pad2(el.outs)
        return _apply_pbs(amps, i1, i2, o1, o2)
    if el.kind == "bs":
        i1, i2 = _pad2(el.ins)
        o1, o2 = _pad2(el.outs)
        return _apply_bs(amps, i1, i2, o1, o2, el.convention)
    src = el.ins[0]
    if el.kind == "hwp":
        amps = _apply_hwp(amps, src)
    elif el.kind == "phase":
        amps = _apply_phase(amps, src, el.phi)
    elif el.kind == "delay":
        amps = _apply_delay(amps, src, el.ticks)
    elif el.kind == "split":
        amps = _apply_timebin_splitter(amps, src, el.ticks)
    else:  # noise
        amps = _apply_collective_noise(amps, el.noise or NoiseParams.identity(), {src})
    return _rename_channel(amps, src, el.outs[0])


def apply(element: Element, state: PhotonState) -> PhotonState:
    """Apply one element to a state; channels it does not name pass through."""
    return PhotonState._from_clean(_dispatch(element, state.amplitudes))


def run(circuit: Circuit, state: PhotonState) -> PhotonState:
    """Apply the circuit's elements in order; pure and deterministic, up to ``MAX_MODES`` modes."""
    for mode in state.amplitudes:
        if mode[0] != circuit.input:
            raise CircuitError(
                f"state has amplitude on {mode[0]!r} but the circuit reads {circuit.input!r}"
            )
    amps = state.amplitudes
    for idx, el in enumerate(circuit.elements):
        amps = _dispatch(el, amps)
        if len(amps) > MAX_MODES:
            raise CircuitError(f"element {idx + 1} ({el.kind}): over {MAX_MODES} modes", element_index=idx)
    return PhotonState._from_clean(amps)


@dataclass(frozen=True)
class EncoderSpec:
    """Cascade depth and splitter convention of the splitting chain.

    ``stages`` >= 1 extra splitter stages produce N = 2^(stages+1) bins
    per polarization group. The group delay ``dT`` is derived from the
    depth: the paper's claims hold for any delay that keeps the H and V
    groups apart, and twice the group length does.
    """

    stages: int = 1
    convention: BsConvention = BsConvention.SYMMETRIC

    def __post_init__(self):
        if not isinstance(self.convention, BsConvention):
            raise CircuitError(f"convention must be a BsConvention, got {self.convention!r}")
        if operator.index(self.stages) < 1:
            raise CircuitError("encoder needs at least one splitter stage")
        if self.stages > MAX_STAGES:
            raise CircuitError(f"{self.stages} splitter stages exceed the limit of {MAX_STAGES}")

    @property
    def bins_per_group(self) -> int:
        return 2 ** (self.stages + 1)

    @property
    def wavepackets(self) -> int:
        return 2 * self.bins_per_group

    @property
    def dT(self) -> int:
        """Ticks between the H and V groups; the floor of 64 keeps the stage 1-4
        trains at the ticks where the recorded outputs have them."""
        return max(64, 2 * self.bins_per_group)


def encoder_spec_for(stages: int, convention: BsConvention = BsConvention.SYMMETRIC) -> EncoderSpec:
    """``EncoderSpec(stages, convention)``, kept because the benchmark calls it by
    this name (``perfbench/setup_probe.py`` and ``perfbench/workloads.py``)."""
    return EncoderSpec(stages, convention)


@dataclass(frozen=True)
class DecoderSpec:
    """Timing of the receiving chain; ``dTprime`` delays the V branch."""

    dTprime: int = 0
    convention: BsConvention = BsConvention.SYMMETRIC

    def __post_init__(self):
        if not isinstance(self.convention, BsConvention):
            raise CircuitError(f"convention must be a BsConvention, got {self.convention!r}")
        if operator.index(self.dTprime) < 0:
            raise CircuitError("V-branch delay must be >= 0 ticks")


def check_compatible(encoder: EncoderSpec, decoder: DecoderSpec):
    """Reject spec pairs whose detection windows would overlap in time."""
    n = encoder.bins_per_group
    if decoder.dTprime != 0 and decoder.dTprime <= n:
        raise CircuitError(
            f"dTprime={decoder.dTprime} falls inside a group span of {n} bins; use 0 or > {n}"
        )


@functools.cache
def build_encoder(spec: EncoderSpec, /) -> Circuit:
    """The splitting chain of the sender, built once per positional-only spec and shared.

    Input qubit on channel "in"; output train on the single fiber
    ``CHANNEL``. The V component is first folded onto H on a long arm one
    tick late, a 50/50 splitter fans the pair out onto internal ports "1"
    and "2", each port is split ``stages`` more times at doubling
    intervals, and port "2" is rotated to V and delayed ``dT`` before the
    polarizing merge onto the fiber. The arm phase is read at a spec's
    first build, so setting ``ENCODER_ARM_PHASE`` does not reach a spec
    already built: to perturb the device, replace this builder or add a
    spec field.
    """
    splits = (Element("split", (port,), (port,), ticks=2 ** stage)
              for stage in range(1, spec.stages + 1) for port in ("1", "2"))
    els = (
        Element("pbs", ("in",), ("s", "l")),
        Element("hwp", ("l",), ("l",)),
        Element("phase", ("l",), ("l",), phi=ENCODER_ARM_PHASE),
        Element("delay", ("l",), ("l",), ticks=1),
        Element("bs", ("s", "l"), ("1", "2"), convention=spec.convention),
        *splits,
        Element("hwp", ("2",), ("2",)),
        Element("delay", ("2",), ("2",), ticks=spec.dT),
        Element("pbs", ("1", "2"), (CHANNEL,)),
    )
    return Circuit("in", els, (CHANNEL,))


def recombiner_elements(convention: BsConvention) -> tuple[Element, ...]:
    """The half-tick interferometer: splitter, bit-flip arm, phased delay arm.

    Runs channel "mid" into arms "sp" (short, polarization-flipped) and
    "lp" (long, phase-compensated, one tick late). The state on the two
    arms is exactly what meets the final polarizing merge.
    """
    return (
        Element("bs", ("mid",), ("sp", "lp"), convention=convention),
        Element("hwp", ("sp",), ("sp",)),
        Element("phase", ("lp",), ("lp",), phi=DECODER_ARM_PHASE),
        Element("delay", ("lp",), ("lp",), ticks=1),
    )


@functools.cache
def build_decoder(spec: DecoderSpec, /) -> Circuit:
    """The receiving chain: polarization sort, optional V delay, recombiner;
    built once per positional-only spec and shared.

    Reads the fiber ``CHANNEL``; detection happens on ports "5" and "6".
    An H-polarized group reassembles its qubit entirely on port "5", a
    V-polarized group entirely on port "6". The arm phase is read at a
    spec's first build, so setting ``DECODER_ARM_PHASE`` does not reach a
    spec already built: to perturb the device, replace this builder or add
    a spec field.
    """
    els = (
        Element("pbs", (CHANNEL,), ("h", "v")),
        Element("delay", ("v",), ("v",), ticks=spec.dTprime),
        Element("pbs", ("h", "v"), ("mid",)),
        *recombiner_elements(spec.convention),
        Element("pbs", ("sp", "lp"), (PORT_ALT, PORT_MAIN)),
    )
    return Circuit(CHANNEL, els, (PORT_MAIN, PORT_ALT))


def physical_splitter_elements(
    channel: str, ticks: int, convention: BsConvention, leak: str = "leak"
) -> tuple[Element, ...]:
    """A time-bin splitter built from two real couplers and a delay arm.

    Unlike the ideal ``split`` element, half the norm exits through the
    second coupler port ``leak``; provided for comparison with the
    idealized primitive.
    """
    arm_s = channel + "_s"
    arm_l = channel + "_l"
    return (
        Element("bs", (channel,), (arm_s, arm_l), convention=convention),
        Element("delay", (arm_l,), (arm_l,), ticks=ticks),
        Element("bs", (arm_s, arm_l), (channel, leak), convention=convention),
    )

