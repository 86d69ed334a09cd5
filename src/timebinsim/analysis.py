"""Time-bin gating, correction derivation, and success-probability accounting.

After the decoder, the photon sits in one of four wavepacket groups, one
per channel parameter: the H-surviving and V-converted images of each of
the two transmitted trains. Each group occupies its own (port, delay)
window, and within a window the interior bins each hold a faithful copy
of the sent qubit up to a Pauli, while the first and last bin of every
group hold only one of the two amplitudes and must be discarded. The
interior bins make up (N-1)/N of each group's weight, independent of the
channel parameters.

Corrections are never transcribed from a table: they are derived once per
(encoder, decoder) pair from the encoded basis states and the decoder's
impulse response to each polarization, which fix each bin's 2x2 map, by
solving for the Pauli that undoes each bin.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .circuits import (
    CHANNEL,
    Circuit,
    DecoderSpec,
    EncoderSpec,
    PORT_ALT,
    PORT_MAIN,
    build_decoder,
    build_encoder,
    check_compatible,
    run,
)
from .noise import (NoiseEnsemble, NoiseParams, _apply_collective_noise, _seed, random_qubit,
                    sample_coefficients, sample_noise, sample_qubits)
from .state import H, V, PhotonState, QubitSpec, _max_or_nan, new_state


class BranchId(Enum):
    """The four noise images, keyed by source train and arrival polarization."""

    P1H = "1H"
    P1V = "1V"
    P2H = "2H"
    P2V = "2V"


#: The branches in the order of ``NoiseParams.coefficients()``: (d1, g1, d2, g2).
BRANCHES = (BranchId.P1H, BranchId.P1V, BranchId.P2H, BranchId.P2V)
#: Each branch's detection port, in ``BRANCHES`` order.
_PORTS = (PORT_MAIN, PORT_ALT, PORT_MAIN, PORT_ALT)
#: The channel of the decoder's impulse run.
_IDENTITY = NoiseParams.identity()


class Correction(Enum):
    IDENTITY = "identity"
    BIT_FLIP = "bit_flip"
    PHASE_FLIP = "phase_flip"
    BIT_PHASE_FLIP = "bit_phase_flip"

    def apply(self, a_h: complex, a_v: complex) -> tuple[complex, complex]:
        if self is Correction.IDENTITY:
            return a_h, a_v
        if self is Correction.BIT_FLIP:
            return a_v, a_h
        if self is Correction.PHASE_FLIP:
            return a_h, -a_v
        return -1j * a_v, 1j * a_h


_CORRECTIONS = tuple(Correction)
#: The matrix of each of ``_CORRECTIONS``: ``apply`` to H and V at once, the columns of the
#: identity, gives its rows.
_PAULI_MATRICES = np.array([c.apply(*np.eye(2, dtype=int)) for c in _CORRECTIONS], dtype=complex)


class CorrectionDerivationError(RuntimeError):
    """No single Pauli undoes some interior bin: a convention bug."""


@dataclass(frozen=True)
class CorrectionTable:
    """The link: its specs, its detection windows and each slot's map and Pauli.

    Bins are counted from each group's arrival.
    """

    encoder: EncoderSpec
    decoder: DecoderSpec
    #: (port, absolute tick) -> (BranchId, bin) over the four group
    #: windows, branch by branch in ``BRANCHES`` order, bins ascending.
    windows: dict
    #: Read-only, one row per window slot in ``windows`` order: the 2x2 map
    #: from the sent (H, V) amplitudes to the slot's at unit branch
    #: coefficient, and the slot's index into ``BRANCHES``. By linearity a
    #: slot's amplitudes are ``coefficient[slot_branch] * slot_maps @ qubit``.
    slot_maps: np.ndarray = field(compare=False)
    slot_branch: np.ndarray = field(compare=False)
    #: Read-only, per window slot: the index into ``_CORRECTIONS`` of the
    #: Pauli that restores the qubit, or -1 for a discarded slot.
    slot_correction: np.ndarray = field(compare=False)

    def transmit(self, qubit: QubitSpec, params: NoiseParams) -> PhotonState:
        """Encode ``qubit``, corrupt the fiber collectively with ``params``, decode."""
        sent = run(build_encoder(self.encoder), new_state(qubit))
        return _decode(build_decoder(self.decoder), sent, params)


def _decode(dec_c: Circuit, sent: PhotonState, params: NoiseParams) -> PhotonState:
    """Corrupt the sent train collectively with ``params`` and decode it."""
    noisy = PhotonState._from_clean(_apply_collective_noise(sent.amplitudes, params, {CHANNEL}))
    return run(dec_c, noisy)


def _slots(state: PhotonState, keep) -> dict:
    """(port, tick) -> [H, V] for each slot of ``state`` in ``keep``, in amplitude order."""
    slots: dict = {}
    for (ch, pol, tick), a in state.amplitudes.items():
        key = (ch, tick)
        if key in keep:
            slots.setdefault(key, [0j, 0j])[0 if pol is H else 1] = a
    return slots


def _find_paulis(maps: np.ndarray) -> np.ndarray:
    """Per 2x2 map m, the index in ``_CORRECTIONS`` of the first Pauli P with P @ m
    proportional to the identity, else -1: as P @ P = 1, m proportional to P.

    I and Z need a zero off-diagonal and ``m00 - m11`` or ``m00 + m11`` zero; X and Y
    a zero diagonal and ``m10 - m01`` or ``m10 + m01`` zero. Zero is at most 1e-9 of
    the map's largest entry.
    """
    entries = maps.reshape(-1, 4)
    m00, m01, m10, m11 = entries.T
    s00, s01, s10, s11 = np.abs(entries).T
    scale = 1e-9 * np.maximum(np.maximum(s00, s01), np.maximum(s10, s11))
    diagonal, anti = np.maximum(s01, s10) <= scale, np.maximum(s00, s11) <= scale
    tests = {
        Correction.IDENTITY: diagonal & (np.abs(m00 - m11) <= scale),
        Correction.BIT_FLIP: anti & (np.abs(m10 - m01) <= scale),
        Correction.PHASE_FLIP: diagonal & (np.abs(m00 + m11) <= scale),
        Correction.BIT_PHASE_FLIP: anti & (np.abs(m10 + m01) <= scale),
    }
    found = np.full(len(entries), -1)
    for index in reversed(range(len(_CORRECTIONS))):  # so that the first match wins
        found[tests[_CORRECTIONS[index]]] = index
    return found


def _span(circuit: Circuit) -> int:
    """One tick past every output of a unit input at tick 0: no path through
    ``circuit`` is longer than the sum of its element ticks."""
    return 1 + sum(el.ticks for el in circuit.elements)


def _both_inputs(channel: str, span: int) -> PhotonState:
    """A unit H amplitude at tick 0 and a unit V amplitude at tick ``span`` on ``channel``."""
    return PhotonState._from_clean({(channel, H, 0): 1 + 0j, (channel, V, span): 1 + 0j})


def correction_table(encoder: EncoderSpec, decoder: DecoderSpec) -> CorrectionTable:
    """Derive the Pauli that restores the qubit at every accepted bin.

    The decoder is linear and time-invariant (every element acts slot by slot,
    every delay is whole ticks), so a slot at tick t holds r times the sent
    train at t - d for each tap (port, polarization, delay d, amplitude r) of
    its response to a unit amplitude at tick 0. A bin is accepted when its 2x2
    map is proportional to a Pauli; the rank-deficient first and last bins of
    each group are the discards.

    Each device runs once, on both basis inputs: a unit H amplitude at tick 0
    and a unit V amplitude at its ``_span``. No path is longer than the sum of
    the device's element ticks, so the two responses lie on disjoint ticks and
    never meet at an element; split at the span, they are the two one-input
    runs mode for mode.
    """
    check_compatible(encoder, decoder)
    enc_c = build_encoder(encoder)
    dec_c = build_decoder(decoder)
    n = encoder.bins_per_group
    # each branch's arrival tick: train 2 comes encoder.dT late, the V images decoder.dTprime late
    offsets = [0, decoder.dTprime, encoder.dT, encoder.dT + decoder.dTprime]
    windows = {(port, offset + t): (branch, t)
               for branch, port, offset in zip(BRANCHES, _PORTS, offsets) for t in range(n + 1)}

    dec_span = _span(dec_c)
    response = _decode(dec_c, _both_inputs(CHANNEL, dec_span), _IDENTITY).amplitudes
    # the H input's taps, then the V input's, each in the order of its own run
    taps = [(port, pol, d, r) for (port, pol, d), r in response.items() if d < dec_span]
    taps += [(port, pol, d - dec_span, r) for (port, pol, d), r in response.items() if d >= dec_span]
    # the sent (H input, V input) trains by tick, shifted by the longest delay: a read before
    # tick 0 lands on zeros
    pad = max(d for _, _, d, _ in taps)
    train = np.zeros((2, pad + max(offsets) + n + 1), dtype=complex)
    enc_span = _span(enc_c)
    sent = run(enc_c, _both_inputs(enc_c.input, enc_span)).amplitudes
    # row 1, the V input's train, holds the ticks from the span on
    row, tick = np.divmod(np.fromiter((t for _, _, t in sent), dtype=np.intp, count=len(sent)), enc_span)
    np.add.at(train, (row, pad + tick), np.fromiter(sent.values(), dtype=complex, count=len(sent)))
    # the identity channel and the polarization swap carry each sent amplitude once in each
    # polarization and light each window under one of the two, so a tap reads the train
    # whichever polarization carries it; gain is the tap's amplitude where it lands
    slot_tick = (np.array(offsets)[:, None] + np.arange(n + 1)).ravel()
    reads = train[:, pad + slot_tick - np.array([d for _, _, d, _ in taps])[:, None]]
    gain = np.zeros((len(taps), len(BRANCHES), 2), dtype=complex)
    for k, (port, pol, _, r) in enumerate(taps):
        for b, p in enumerate(_PORTS):
            if p == port:
                gain[k, b, 0 if pol is H else 1] = r
    maps = np.einsum("ckbt,kbp->btpc", reads.reshape(2, len(taps), len(BRANCHES), n + 1), gain)
    maps = maps.reshape(-1, 2, 2)

    # rank-deficient edge bins have lost information and are discarded, as are the slots
    # no basis run reached; |det m| = s1 s2 and ||m||_F^2 = s1^2 + s2^2 (singular values)
    m00, m01, m10, m11 = maps.reshape(-1, 4).T
    full_rank = np.abs(m00 * m11 - m01 * m10) > 1e-9 * (np.abs(maps) ** 2).sum(axis=(1, 2))
    slot_correction = np.where(full_rank, _find_paulis(maps), -1)
    underived = full_rank & (slot_correction < 0)
    if underived.any():
        branch, t = list(windows.values())[underived.argmax()]
        raise CorrectionDerivationError(
            f"bin {t} of branch {branch.name} is not Pauli-correctable; "
            f"the element conventions are inconsistent"
        )
    # check_compatible keeps the windows disjoint: n + 1 slots per branch
    slot_branch = np.repeat(np.arange(len(BRANCHES)), n + 1)
    for array in (maps, slot_branch, slot_correction):
        array.flags.writeable = False
    return CorrectionTable(encoder, decoder, windows, maps, slot_branch, slot_correction)


class AcceptedBin(NamedTuple):
    port: str
    tick: int                 # relative to the group's arrival offset
    correction: Correction
    probability: float
    fidelity: float


class DiscardedBin(NamedTuple):
    port: str
    tick: int
    probability: float


@dataclass(frozen=True)
class BranchReport:
    """Post-selection outcome for one noise image."""

    branch: BranchId
    port: str
    offset: int
    accepted: tuple[AcceptedBin, ...]
    discarded: tuple[DiscardedBin, ...]

    @property
    def success_probability(self) -> float:
        return sum(b.probability for b in self.accepted)

    @property
    def total_probability(self) -> float:
        return self.success_probability + sum(b.probability for b in self.discarded)

    def to_dict(self) -> dict:
        return {
            "branch": self.branch.name,
            "port": self.port,
            "offset": self.offset,
            "success_probability": self.success_probability,
            "accepted": [
                {"tick": b.tick, "correction": b.correction.value,
                 "probability": b.probability, "fidelity": b.fidelity}
                for b in self.accepted
            ],
            "discarded": [
                {"tick": b.tick, "probability": b.probability} for b in self.discarded
            ],
        }


def analyze(state: PhotonState, table: CorrectionTable, qubit: QubitSpec) -> list[BranchReport]:
    """Account for every output bin of every branch of a decoded state.

    ``qubit`` is the originally transmitted state, used as the fidelity
    reference after each bin's correction. Branches with no amplitude
    (a vanished channel coefficient) come back with empty bin lists.
    """
    slots = _slots(state, table.windows)
    groups = []
    for ((port, tick), (branch, t)), index in zip(table.windows.items(), table.slot_correction.tolist()):
        if t == 0:  # a new window opens at its group's arrival tick
            accepted, discarded = [], []
            groups.append((branch, port, tick, accepted, discarded))
        pair = slots.get((port, tick))
        if pair is None:
            continue
        a_h, a_v = pair
        p = abs(a_h) ** 2 + abs(a_v) ** 2
        if index < 0:
            discarded.append(DiscardedBin(port, t, p))
            continue
        correction = _CORRECTIONS[index]
        c_h, c_v = correction.apply(a_h, a_v)
        overlap = qubit.alpha.conjugate() * c_h + qubit.beta.conjugate() * c_v
        accepted.append(AcceptedBin(port, t, correction, p, abs(overlap) ** 2 / p))
    return [BranchReport(branch, port, offset, tuple(acc), tuple(dis))
            for branch, port, offset, acc, dis in groups]


def total_success(reports: list[BranchReport]) -> float:
    return sum(r.success_probability for r in reports)


def min_fidelity(reports: list[BranchReport]) -> float:
    """The worst accepted fidelity, 1.0 for none; NaN if any is, which ``min`` can drop."""
    fidelities = [b.fidelity for r in reports for b in r.accepted]
    return np.nan if any(f != f for f in fidelities) else min(fidelities, default=1.0)


class SweepSample(NamedTuple):
    coefficients: tuple       # (d1, g1, d2, g2) as drawn, in ``BRANCHES`` order
    success: float
    min_fidelity: float


@dataclass(frozen=True)
class SweepResult:
    target: float             # (N-1)/N for the swept cascade depth
    samples: tuple[SweepSample, ...]
    mean_success: float
    max_deviation: float      # worst |success - target| over all samples


#: Samples times window slots evaluated together by a sweep. The bound keeps
#: the sweep's peak memory flat in the sample count: a block's complex
#: (sample, slot) arrays stay within 64 kB. Larger blocks are no faster:
#: ``1 << 16`` left a 100-sample stage-3 sweep's time within noise and raised
#: a 1000-sample one's peak RSS from 31.3 to 37.4 MB. From stage 10 on,
#: where one sample has more slots than this, a block is one sample.
_BLOCK_SLOTS = 1 << 12


def _evaluate(table: CorrectionTable, coefficients: np.ndarray, qubits: np.ndarray):
    """(total success, worst fidelity) per sample, from the table's slot maps.

    ``coefficients`` is (sample, branch) in ``BRANCHES`` order and ``qubits``
    (sample, H/V). Only accepted slots are read. As in ``analyze`` of an
    interpreted state, a slot without probability has no fidelity, and a
    sample with none has worst fidelity 1.0.
    """
    accepted = table.slot_correction >= 0
    maps = table.slot_maps[accepted]
    c = coefficients[:, table.slot_branch[accepted]]
    q_h, q_v = qubits[:, :1], qubits[:, 1:]
    a_h = c * (maps[:, 0, 0] * q_h + maps[:, 0, 1] * q_v)
    a_v = c * (maps[:, 1, 0] * q_h + maps[:, 1, 1] * q_v)
    p = np.abs(a_h) ** 2 + np.abs(a_v) ** 2
    paulis = _PAULI_MATRICES[table.slot_correction[accepted]]
    c_h = paulis[:, 0, 0] * a_h + paulis[:, 0, 1] * a_v
    c_v = paulis[:, 1, 0] * a_h + paulis[:, 1, 1] * a_v
    overlap = q_h.conj() * c_h + q_v.conj() * c_v
    lit = p > 0
    fidelity = np.divide(np.abs(overlap) ** 2, p, out=np.full(p.shape, np.inf), where=lit)
    return p.sum(axis=1), np.where(lit.any(axis=1), fidelity.min(axis=1), 1.0)


def success_probability_sweep(
    encoder: EncoderSpec,
    decoder: DecoderSpec,
    ensemble: NoiseEnsemble,
    samples: int,
    seed: int,
) -> SweepResult:
    """Success probability over many channel draws; must pin to (N-1)/N.

    Deterministic per seed: sample i draws its channel and its input qubit
    from seed ``seed + i``, which must lie below 2**64, as
    ``sample_noise(ensemble, seed + i)`` and ``random_qubit(seed + i)``.
    Samples are evaluated in blocks from the table's slot maps; a block's
    channels come from one ``sample_coefficients`` call and its qubits from
    one ``sample_qubits`` call over the block's seeds. Sample 0 is also
    drawn alone and interpreted; a draw differing in any bit, or an
    ``analyze`` result differing by more than 1e-12, raises RuntimeError.
    """
    samples = operator.index(samples)
    if samples < 1:
        raise ValueError("need at least one sample")
    _seed(seed, samples - 1)
    table = correction_table(encoder, decoder)
    n = encoder.bins_per_group
    target = (n - 1) / n

    per_block = max(1, _BLOCK_SLOTS // len(table.windows))
    rows = []
    for start in range(0, samples, per_block):
        block = range(start, min(start + per_block, samples))
        seeds = seed + np.arange(block.start, block.stop, dtype=np.uint64)
        coefficients = sample_coefficients(ensemble, seeds)
        qubits = sample_qubits(seeds)
        success, worst = _evaluate(table, coefficients, qubits)
        rows += map(SweepSample, map(tuple, coefficients.tolist()), success.tolist(), worst.tolist())
        if start == 0:
            _check_sample_zero(table, ensemble, seed, coefficients[0], qubits[0], rows[0])

    mean = sum(r.success for r in rows) / samples
    deviation = _max_or_nan(abs(r.success - target) for r in rows)
    return SweepResult(target=target, samples=tuple(rows), mean_success=mean, max_deviation=deviation)


def _check_sample_zero(table, ensemble, seed: int, channel_row: np.ndarray, qubit_row: np.ndarray,
                       row: SweepSample):
    """Raise RuntimeError unless sample 0's batched ``channel_row`` and ``qubit_row`` are, bit
    for bit, ``sample_noise``'s and ``random_qubit``'s for ``seed``, and ``row`` agrees with
    the interpreter within 1e-12."""
    channel, qubit = sample_noise(ensemble, seed), random_qubit(seed)
    batched = np.concatenate([channel_row, qubit_row])
    alone = np.array([*channel.coefficients(), qubit.alpha, qubit.beta])
    if batched.tobytes() != alone.tobytes():
        raise RuntimeError(f"batched draw {batched.tolist()} of sweep sample 0 differs from "
                           f"the unbatched {alone.tolist()} for seed {seed}")
    reports = analyze(table.transmit(qubit, channel), table, qubit)  # bit-equal to the batched row
    _check_with_interpreter(row.success, row.min_fidelity, reports, f"sweep sample 0 (seed {seed})")


def _check_with_interpreter(success: float, worst: float, reports: list[BranchReport], row: str):
    """Raise RuntimeError naming ``row`` unless the slot maps' ``success`` and ``worst``
    fidelity are within 1e-12 of those of an interpreted state's ``reports``."""
    interpreted = total_success(reports), min_fidelity(reports)
    if not (abs(success - interpreted[0]) <= 1e-12 and abs(worst - interpreted[1]) <= 1e-12):
        raise RuntimeError(f"{row} from the slot maps gives success {success!r} and min fidelity "
                           f"{worst!r}; the interpreter gives {interpreted[0]!r} and {interpreted[1]!r}")
