"""Reference forms that only the tests read.

Each one checks package code from outside it:

- ``bs_matrix``: the splitter maps of ``elements``, per convention;
- ``restrict``: one channel and tick window of a ``circuits.run`` or ``noise`` output;
- ``qubit_amplitudes``, ``fidelity_with_qubit``: the qubit in one bin of ``CorrectionTable.transmit``;
- ``superpose``: linear combinations of states, for the linearity of ``circuits.run``;
- ``random_state``: random sparse states, for property tests of ``elements``, ``circuits``, ``noise``;
- ``noise_matrix``: the Jones matrix, for the unitarity of ``noise.sample_noise``'s Haar draws;
- ``csv_rows``: one row per bin, for the bins that ``analysis.analyze`` files under a branch.
"""

import math
from typing import Iterable

import numpy as np

from timebinsim.analysis import BranchReport
from timebinsim.elements import _INV_SQRT2, BsConvention
from timebinsim.noise import NoiseParams
from timebinsim.state import H, V, PhotonState, QubitSpec


def bs_matrix(convention: BsConvention):
    """The 2x2 coefficient map of a splitter, rows = outputs."""
    if convention is BsConvention.SYMMETRIC:
        return np.array([[1.0, 1j], [1j, 1.0]]) * _INV_SQRT2
    return np.array([[1.0, 1j], [-1j, 1.0]]) * _INV_SQRT2


def restrict(state: PhotonState, channel: str, window: tuple[int, int]) -> PhotonState:
    """Sub-state on one channel within an inclusive tick window."""
    lo, hi = window
    return PhotonState._from_clean(
        {m: a for m, a in state.amplitudes.items() if m[0] == channel and lo <= m[2] <= hi}
    )


def qubit_amplitudes(state: PhotonState) -> tuple[complex, complex]:
    """Read a state confined to one (channel, tick) as an (H, V) pair.

    Raises ValueError if the state spans more than one channel or tick,
    since no single conditional qubit exists in that case.
    """
    spots = {(m[0], m[2]) for m in state.amplitudes}
    if len(spots) > 1:
        raise ValueError(f"state spans {len(spots)} (channel, tick) slots, expected one")
    a_h = 0j
    a_v = 0j
    for (_, pol, _tick), a in state.amplitudes.items():
        if pol is H:
            a_h = a
        else:
            a_v = a
    return a_h, a_v


def fidelity_with_qubit(state: PhotonState, qubit: QubitSpec) -> float:
    """Overlap |<q|s>|^2 of a single-slot state, renormalized, with a qubit.

    Invariant under global phase of either argument. Zero-norm input is an
    error: there is no conditional state to compare.
    """
    a_h, a_v = qubit_amplitudes(state)
    n = abs(a_h) ** 2 + abs(a_v) ** 2
    if n <= 0.0:
        raise ValueError("cannot take fidelity of a zero-norm state")
    overlap = qubit.alpha.conjugate() * a_h + qubit.beta.conjugate() * a_v
    return abs(overlap) ** 2 / n


def superpose(*weighted: tuple[complex, PhotonState]) -> PhotonState:
    """Linear combination sum(c_i * s_i) of states."""
    amps: dict = {}
    for coeff, state in weighted:
        for mode, a in state.amplitudes.items():
            amps[mode] = amps.get(mode, 0j) + coeff * a
    return PhotonState(amps)


def random_state(rng, channels: Iterable[str], ticks: range, modes: int) -> PhotonState:
    """Random normalized state on the given channels/ticks, for property tests."""
    channels = list(channels)
    amps: dict = {}
    while len(amps) < modes:
        ch = channels[int(rng.integers(len(channels)))]
        pol = H if rng.integers(2) == 0 else V
        tick = int(rng.integers(ticks.start, ticks.stop))
        amps[(ch, pol, tick)] = complex(rng.normal(), rng.normal())
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return PhotonState({m: a / norm for m, a in amps.items()})


def noise_matrix(params: NoiseParams) -> np.ndarray:
    """Jones map acting on (H, V) column vectors."""
    return np.array([[params.d1, params.d2], [params.g1, params.g2]])


def csv_rows(report: BranchReport) -> list[str]:
    """Rows "branch,port,tick,correction,probability,fidelity"."""
    rows = [
        f"{report.branch.name},{b.port},{b.tick},{b.correction.value},"
        f"{b.probability:.17g},{b.fidelity:.17g}"
        for b in report.accepted
    ]
    rows += [
        f"{report.branch.name},{b.port},{b.tick},discard,{b.probability:.17g},"
        for b in report.discarded
    ]
    return rows
