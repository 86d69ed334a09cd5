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
(encoder, decoder) pair by sending the two basis states through the full
chain and solving for the Pauli that undoes each bin.
"""

from __future__ import annotations

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
from .noise import (NoiseEnsemble, NoiseParams, _apply_collective_noise, _draw_noise,
                    _seeded_generators, sample_noise)
from .state import H, PhotonState, QubitSpec, new_state, random_qubit


class BranchId(Enum):
    """The four noise images, keyed by source train and arrival polarization."""

    P1H = "1H"
    P1V = "1V"
    P2H = "2H"
    P2V = "2V"

    @property
    def port(self) -> str:
        return PORT_MAIN if self in (BranchId.P1H, BranchId.P2H) else PORT_ALT

    def offset(self, encoder: EncoderSpec, decoder: DecoderSpec) -> int:
        ticks = 0 if self in (BranchId.P1H, BranchId.P1V) else encoder.dT
        if self in (BranchId.P1V, BranchId.P2V):
            ticks += decoder.dTprime
        return ticks


#: The branches in the order of ``NoiseParams.coefficients()``: (d1, g1, d2, g2).
BRANCHES = (BranchId.P1H, BranchId.P1V, BranchId.P2H, BranchId.P2V)


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
#: The matrix of each of ``_CORRECTIONS``.
_PAULI_MATRICES = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[1, 0], [0, -1]],
    [[0, -1j], [1j, 0]],
], dtype=complex)


class CorrectionDerivationError(RuntimeError):
    """No single Pauli undoes some interior bin: a convention bug."""


@dataclass(frozen=True)
class CorrectionTable:
    """The link: its circuits, its detection windows and each slot's map and Pauli.

    Bins are counted from each group's arrival. The table also carries
    the decoded basis states.
    """

    encoder: EncoderSpec
    decoder: DecoderSpec
    encoder_circuit: Circuit
    decoder_circuit: Circuit
    #: Decoded (H input, V input) under the identity channel, then under
    #: the bit flip: each accepted bin lit with a unit branch coefficient.
    basis_outputs: tuple[tuple[PhotonState, PhotonState], ...]
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
        return _decode(self.decoder_circuit, run(self.encoder_circuit, new_state(qubit)), params)


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
    proportional to the identity, else -1: as P @ P = 1, m proportional to P. I and Z
    vanish off the diagonal, X and Y on it, and the other pair is equal (I, X) or opposite."""
    entries = maps.reshape(-1, 4)
    scale = 1e-9 * np.abs(entries).max(axis=1, keepdims=True)
    small = np.abs(entries) <= scale
    other = entries[:, [3, 2]]
    pair = np.abs(np.hstack((entries[:, :2] - other, entries[:, :2] + other))) <= scale
    match = pair & small[:, [1, 0, 1, 0]] & small[:, [2, 3, 2, 3]]
    return np.where(match.any(axis=1), match.argmax(axis=1), -1)


def correction_table(encoder: EncoderSpec, decoder: DecoderSpec) -> CorrectionTable:
    """Derive the Pauli that restores the qubit at every accepted bin.

    The two polarization basis states are propagated through the chain
    under two channel settings (the identity, and the polarization swap),
    which together light up all four groups. A bin is accepted when the
    resulting 2x2 bin map is proportional to a Pauli; the rank-deficient
    first and last bins of each group are the discards.
    """
    check_compatible(encoder, decoder)
    enc_c = build_encoder(encoder)
    dec_c = build_decoder(decoder)
    n = encoder.bins_per_group
    windows = {}
    for branch in BRANCHES:
        port, offset = branch.port, branch.offset(encoder, decoder)
        windows.update({(port, offset + t): (branch, t) for t in range(n + 1)})

    # the sent train does not depend on the channel: encode each basis state once
    sent = [run(enc_c, new_state(q)) for q in (QubitSpec.horizontal(), QubitSpec.vertical())]
    outputs = tuple(tuple(_decode(dec_c, train, params) for train in sent)
                    for params in (NoiseParams.identity(), NoiseParams.bit_flip()))
    # per window slot, the 2x2 map from the sent (H, V) amplitudes, row-major
    first = dict(zip(windows, range(0, 4 * len(windows), 4)))
    entries = [0j] * (4 * len(windows))
    for pair in outputs:
        for col, out in enumerate(pair):
            for (port, pol, tick), a in out.amplitudes.items():
                k = first.get((port, tick))
                if k is not None:
                    entries[k + (col if pol is H else 2 + col)] = a
    maps = np.array(entries, dtype=complex).reshape(-1, 2, 2)

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
    return CorrectionTable(encoder, decoder, enc_c, dec_c, outputs, windows,
                           maps, slot_branch, slot_correction)


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
    return min((b.fidelity for r in reports for b in r.accepted), default=1.0)


class SweepSample(NamedTuple):
    params: NoiseParams
    success: float
    min_fidelity: float


@dataclass(frozen=True)
class SweepResult:
    target: float             # (N-1)/N for the swept cascade depth
    samples: tuple[SweepSample, ...]
    mean_success: float
    max_deviation: float      # worst |success - target| over all samples


#: Samples times window slots evaluated together by a sweep. A block's
#: complex (sample, slot) arrays stay within 64 kB, which keeps them in
#: cache and the sweep's peak memory flat; from stage 10 on, where one
#: sample has more slots than this, a block is one sample.
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

    Deterministic per seed: sample i uses noise seed ``seed + i`` and a
    random input qubit from ``default_rng((seed, i))``, both drawn from one
    generator set to each seed's state, and evaluated in blocks from the
    table's slot maps. Sample 0 is also drawn from its own generators and
    interpreted; a draw differing in any bit, or an ``analyze`` result
    differing by more than 1e-12, raises RuntimeError.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    table = correction_table(encoder, decoder)
    n = encoder.bins_per_group
    target = (n - 1) / n

    per_block = max(1, _BLOCK_SLOTS // len(table.windows))
    gen = np.random.default_rng(0)  # its state is set before every draw
    rows = []
    for start in range(0, samples, per_block):
        block = range(start, min(start + per_block, samples))
        noise_rngs = _seeded_generators(gen, [seed + i for i in block])
        params = [_draw_noise(ensemble, rng) for rng in noise_rngs]
        qubits = [random_qubit(rng) for rng in _seeded_generators(gen, [(seed, i) for i in block])]
        success, worst = _evaluate(table, np.array([p.coefficients() for p in params], dtype=complex),
                                   np.array([(q.alpha, q.beta) for q in qubits], dtype=complex))
        rows += map(SweepSample, params, success.tolist(), worst.tolist())
        if start == 0:
            _check_sample_zero(table, ensemble, seed, params[0], qubits[0], rows[0])

    mean = sum(r.success for r in rows) / samples
    deviation = max(abs(r.success - target) for r in rows)
    return SweepResult(target=target, samples=tuple(rows), mean_success=mean, max_deviation=deviation)


def _check_sample_zero(table, ensemble, seed: int, params, qubit, row: SweepSample):
    """Raise RuntimeError unless sample 0's draws are, bit for bit, ``sample_noise``'s and
    ``default_rng((seed, 0))``'s, and ``row`` agrees with the interpreter within 1e-12."""
    alone = (sample_noise(ensemble, seed), random_qubit(np.random.default_rng((seed, 0))))
    draws = [np.array([*p.coefficients(), q.alpha, q.beta]) for p, q in ((params, qubit), alone)]
    if draws[0].tobytes() != draws[1].tobytes():
        raise RuntimeError(f"batched draw {draws[0].tolist()} of sweep sample 0 differs from "
                           f"the unbatched {draws[1].tolist()} for seed {seed}")
    reports = analyze(table.transmit(qubit, params), table, qubit)
    success, worst = total_success(reports), min_fidelity(reports)
    if not (abs(row.success - success) <= 1e-12 and abs(row.min_fidelity - worst) <= 1e-12):
        raise RuntimeError(
            f"sweep sample 0 (seed {seed}) from the slot maps gives success {row.success!r} and "
            f"min fidelity {row.min_fidelity!r}; the interpreter gives {success!r} and {worst!r}"
        )
