"""Reference forms that only the tests read.

Each one checks package code from outside it:

- ``bs_matrix``: the splitter maps of ``elements``, per convention;
- ``restrict``: one channel and tick window of a ``circuits.run`` or ``noise`` output;
- ``qubit_amplitudes``, ``fidelity_with_qubit``: the qubit in one bin of ``CorrectionTable.transmit``;
- ``superpose``: linear combinations of states, for the linearity of ``circuits.run``;
- ``random_state``: random sparse states, for property tests of ``elements``, ``circuits``, ``noise``;
- ``noise_matrix``: the Jones matrix, for the unitarity of ``noise.sample_noise``'s Haar draws;
- ``csv_rows``: one row per bin, for the bins that ``analysis.analyze`` files under a branch;
- ``detection_events``: the corrected accepted bins of an interpreted state, for ``qkd``'s compiled link;
- ``sequential_bins``: the bin-by-bin walk of detection sampling, for ``qkd``'s two-level sampler;
- ``one_pauli_flipped``: a wrong correction, for the tests that ``qkd`` counts must see it;
- ``binomial_cdf``, ``ks_uniform``: exact count laws and their KS distance, for ``qkd``'s counts;
- ``REFERENCE_KERNELS``: the element kernels one amplitude at a time, for ``elements``' own.
"""

import math
from typing import Iterable

import numpy as np

from timebinsim.analysis import BranchReport, Correction, _slots
from timebinsim.elements import _INV_SQRT2, BsConvention, ConventionError
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


def detection_events(out: PhotonState, gates: dict) -> list:
    """((port, tick), probability, corrected H, corrected V) per bin of ``out`` in ``gates``,
    in ``gates`` order, each corrected by its ``gates`` entry."""
    slots = _slots(out, gates)
    events = []
    for key, correction in gates.items():
        if key in slots:
            c_h, c_v = correction.apply(*slots[key])
            events.append((key, abs(c_h) ** 2 + abs(c_v) ** 2, c_h, c_v))
    return events


def sequential_bins(branch, weights, branch_weight, state, u):
    """Each pulse's detected bin, -1 if none, walking the link's bins one at a time.

    The arguments are those of ``qkd._link_keys`` and ``qkd._landing_bins``:
    bin j of branch ``branch[j]`` holds ``weights[j][state] * branch_weight[k]``
    of [0, total), and the pulse lands in the bin that holds ``u``.
    """
    u = u.copy()
    hit = np.full(len(u), -1)
    for j, k in enumerate(branch):
        p = weights[j][state] * branch_weight[k]
        hit[(hit < 0) & (u < p)] = j
        u -= p
    return hit


def one_pauli_flipped(gate_map, middle: bool = False):
    """``gate_map``, a ``qkd._gate_map``, with one accepted bin's Pauli swapped
    I <-> X, or set to I if it is Z or Y: the first bin by (port, tick), which
    is the link's first, or with ``middle`` the median one, inside the link."""
    def flipped(table, encoder, decoder):
        gates = gate_map(table, encoder, decoder)
        key = sorted(gates)[len(gates) // 2] if middle else min(gates)
        gates[key] = Correction.BIT_FLIP if gates[key] is Correction.IDENTITY else Correction.IDENTITY
        return gates
    return flipped


def binomial_cdf(n: int, p: float) -> list[float]:
    """``P(X <= k)`` for k = 0..n, X ~ Binomial(n, p) with 0 < p < 1, from the exact pmf.

    Each log pmf term is taken with ``math.lgamma``; the terms are summed
    relative to the largest, so no tail underflows before it is added.
    """
    logs = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p) for k in range(n + 1)]
    top = max(logs)
    return np.minimum(math.exp(top) * np.cumsum([math.exp(term - top) for term in logs]), 1.0).tolist()


def ks_uniform(u) -> float:
    """sqrt(m) times the Kolmogorov-Smirnov distance of ``m`` values from U(0, 1)."""
    u = np.sort(np.asarray(u, dtype=float))
    m = len(u)
    rank = np.arange(1, m + 1)
    return math.sqrt(m) * max((rank / m - u).max(), (u - (rank - 1) / m).max())


# -- the element kernels one amplitude at a time -----------------------------
# Every output amplitude goes through _add, and every output key is a new tuple.

def _add(amps: dict, mode: tuple, a: complex):
    if a != 0j:
        amps[mode] = amps.get(mode, 0j) + a


def _apply_pbs(amps: dict, in1, in2, out1, out2) -> dict:
    out = {}
    for (ch, pol, tick), a in amps.items():
        if ch == in1:
            ch = out1 if pol is H else out2
        elif ch == in2:
            ch = out2 if pol is H else out1
        if ch is not None:
            _add(out, (ch, pol, tick), a)
    return out


def _apply_bs(amps: dict, in1, in2, out1, out2, convention: BsConvention) -> dict:
    r21 = 1j * _INV_SQRT2 if convention is BsConvention.SYMMETRIC else -1j * _INV_SQRT2
    out = {}
    pairs: dict = {}
    for (ch, pol, tick), a in amps.items():
        if ch == in1:
            pairs.setdefault((pol, tick), [0j, 0j])[0] = a
        elif ch == in2:
            pairs.setdefault((pol, tick), [0j, 0j])[1] = a
        else:
            _add(out, (ch, pol, tick), a)
    for (pol, tick), (a1, a2) in pairs.items():
        if convention is BsConvention.SURFACE_PHASES and a1 != 0j and a2 != 0j:
            raise ConventionError(
                f"surface-phase splitter hit occupied inputs {in1!r} and {in2!r} "
                f"at the same slot (pol={pol.value}, tick={tick})"
            )
        if out1 is not None:
            _add(out, (out1, pol, tick), a1 * _INV_SQRT2 + a2 * (1j * _INV_SQRT2))
        if out2 is not None:
            _add(out, (out2, pol, tick), a1 * r21 + a2 * _INV_SQRT2)
    return out


def _apply_hwp(amps: dict, channel: str) -> dict:
    return {
        ((ch, V if pol is H else H, tick) if ch == channel else (ch, pol, tick)): a
        for (ch, pol, tick), a in amps.items()
    }


def _apply_delay(amps: dict, channel: str, ticks: int) -> dict:
    return {
        ((ch, pol, tick + ticks) if ch == channel else (ch, pol, tick)): a
        for (ch, pol, tick), a in amps.items()
    }


def _apply_timebin_splitter(amps: dict, channel: str, ticks: int) -> dict:
    out = {}
    for (ch, pol, tick), a in amps.items():
        if ch == channel:
            half = a * _INV_SQRT2
            _add(out, (ch, pol, tick), half)
            _add(out, (ch, pol, tick + ticks), half)
        else:
            _add(out, (ch, pol, tick), a)
    return out


#: ``circuits``' kernel names -> the reference kernels above.
REFERENCE_KERNELS = {
    "_apply_pbs": _apply_pbs,
    "_apply_bs": _apply_bs,
    "_apply_hwp": _apply_hwp,
    "_apply_delay": _apply_delay,
    "_apply_timebin_splitter": _apply_timebin_splitter,
}
