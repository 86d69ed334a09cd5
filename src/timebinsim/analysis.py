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

from dataclasses import dataclass
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
from .noise import NoiseEnsemble, NoiseParams, _apply_collective_noise, sample_noise
from .state import PhotonState, Polarization, QubitSpec, new_state, random_qubit

H = Polarization.H


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

    def coefficient(self, params: NoiseParams) -> complex:
        return getattr(params, _COEFFICIENT_NAMES[self])

    def weight(self, params: NoiseParams) -> float:
        return abs(self.coefficient(params)) ** 2 / 2.0


BRANCHES = (BranchId.P1H, BranchId.P1V, BranchId.P2H, BranchId.P2V)
_COEFFICIENT_NAMES = {BranchId.P1H: "d1", BranchId.P1V: "g1", BranchId.P2H: "d2", BranchId.P2V: "g2"}


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


_PAULI = {
    Correction.IDENTITY: np.eye(2, dtype=complex),
    Correction.BIT_FLIP: np.array([[0, 1], [1, 0]], dtype=complex),
    Correction.PHASE_FLIP: np.array([[1, 0], [0, -1]], dtype=complex),
    Correction.BIT_PHASE_FLIP: np.array([[0, -1j], [1j, 0]], dtype=complex),
}


class CorrectionDerivationError(RuntimeError):
    """No single Pauli undoes some interior bin: a convention bug."""


@dataclass(frozen=True)
class CorrectionTable:
    """The link: its circuits, its detection windows and the Pauli per (branch, bin).

    Bins are counted from each group's arrival. The table also carries
    the decoded basis states, from which the link's linear map is read.
    """

    encoder: EncoderSpec
    decoder: DecoderSpec
    entries: dict  # (BranchId, int) -> Correction
    encoder_circuit: Circuit
    decoder_circuit: Circuit
    #: Decoded (H input, V input) under the identity channel, then under
    #: the bit flip: each accepted bin lit with a unit branch coefficient.
    basis_outputs: tuple[tuple[PhotonState, PhotonState], ...]
    #: (port, absolute tick) -> (BranchId, bin) over the four group
    #: windows, branch by branch in ``BRANCHES`` order, bins ascending.
    windows: dict

    @property
    def bins_per_group(self) -> int:
        return self.encoder.bins_per_group

    def transmit(self, qubit: QubitSpec, params: NoiseParams) -> PhotonState:
        """Encode ``qubit``, corrupt the fiber collectively with ``params``, decode."""
        return _transmit(self.encoder_circuit, self.decoder_circuit, qubit, params)


def _transmit(enc_c: Circuit, dec_c: Circuit, qubit: QubitSpec, params: NoiseParams) -> PhotonState:
    """The one encode -> collective noise -> decode chain."""
    sent = run(enc_c, new_state(qubit))
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


def _find_paulis(maps: np.ndarray) -> list:
    """Per 2x2 map m, the first Pauli P with P @ m proportional to the identity, else None."""
    scale = 1e-9 * np.abs(maps).max(axis=(1, 2))
    found = np.full(len(maps), -1)
    for index, pauli in enumerate(_PAULI.values()):
        r = pauli @ maps
        match = (np.abs(r[:, 0, 1]) <= scale) & (np.abs(r[:, 1, 0]) <= scale) \
            & (np.abs(r[:, 0, 0] - r[:, 1, 1]) <= scale)
        found[match & (found < 0)] = index
    corrections = tuple(_PAULI)
    return [corrections[i] if i >= 0 else None for i in found]


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
        offset = branch.offset(encoder, decoder)
        windows.update({(branch.port, offset + t): (branch, t) for t in range(n + 1)})

    # per window slot, the 2x2 map from the sent (H, V) amplitudes
    maps = {key: np.zeros((2, 2), dtype=complex) for key in windows}
    outputs = []
    for params in (NoiseParams.identity(), NoiseParams.bit_flip()):
        pair = []
        for col, qubit in enumerate((QubitSpec.horizontal(), QubitSpec.vertical())):
            out = _transmit(enc_c, dec_c, qubit, params)
            pair.append(out)
            for key, (a_h, a_v) in _slots(out, windows).items():
                m = maps[key]
                m[0, col] = a_h
                m[1, col] = a_v
        outputs.append(tuple(pair))

    stacked = np.array(list(maps.values()))
    singulars = np.linalg.svd(stacked, compute_uv=False)
    # rank-deficient edge bins have lost information and are discarded, as
    # are the slots no basis run reached
    full_rank = singulars[:, -1] > 1e-9 * singulars[:, 0]
    entries = {}
    for key, accept, correction in zip(maps, full_rank, _find_paulis(stacked)):
        if not accept:
            continue
        branch, t = windows[key]
        if correction is None:
            raise CorrectionDerivationError(
                f"bin {t} of branch {branch.name} is not Pauli-correctable; "
                f"the element conventions are inconsistent"
            )
        entries[(branch, t)] = correction
    return CorrectionTable(encoder, decoder, entries, enc_c, dec_c, tuple(outputs), windows)


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

    def to_csv_rows(self) -> list[str]:
        """Rows "branch,port,tick,correction,probability,fidelity"."""
        rows = [
            f"{self.branch.name},{b.port},{b.tick},{b.correction.value},"
            f"{b.probability:.17g},{b.fidelity:.17g}"
            for b in self.accepted
        ]
        rows += [
            f"{self.branch.name},{b.port},{b.tick},discard,{b.probability:.17g},"
            for b in self.discarded
        ]
        return rows


def analyze(state: PhotonState, table: CorrectionTable, qubit: QubitSpec) -> list[BranchReport]:
    """Account for every output bin of every branch of a decoded state.

    ``qubit`` is the originally transmitted state, used as the fidelity
    reference after each bin's correction. Branches with no amplitude
    (a vanished channel coefficient) come back with empty bin lists.
    """
    slots = _slots(state, table.windows)
    groups = []
    for (port, tick), (branch, t) in table.windows.items():
        if t == 0:  # a new window opens at its group's arrival tick
            accepted, discarded = [], []
            groups.append((branch, port, tick, accepted, discarded))
        pair = slots.get((port, tick))
        if pair is None:
            continue
        a_h, a_v = pair
        p = abs(a_h) ** 2 + abs(a_v) ** 2
        correction = table.entries.get((branch, t))
        if correction is None:
            discarded.append(DiscardedBin(port, t, p))
            continue
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


def success_probability_sweep(
    encoder: EncoderSpec,
    decoder: DecoderSpec,
    ensemble: NoiseEnsemble,
    samples: int,
    seed: int,
) -> SweepResult:
    """Success probability over many channel draws; must pin to (N-1)/N.

    Deterministic per seed: sample i uses noise seed ``seed + i`` and a
    random input qubit derived from the same pair.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    table = correction_table(encoder, decoder)
    n = encoder.bins_per_group
    target = (n - 1) / n

    rows = []
    for i in range(samples):
        params = sample_noise(ensemble, seed + i)
        qubit = random_qubit(np.random.default_rng((seed, i)))
        reports = analyze(table.transmit(qubit, params), table, qubit)
        rows.append(SweepSample(params, total_success(reports), min_fidelity(reports)))

    mean = sum(r.success for r in rows) / samples
    deviation = max(abs(r.success - target) for r in rows)
    return SweepResult(target=target, samples=tuple(rows), mean_success=mean, max_deviation=deviation)
