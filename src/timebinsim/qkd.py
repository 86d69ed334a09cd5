"""BB84 over the collectively noisy fiber, a block of pulses at a time.

Each pulse carries one of the four BB84 states through the full
encode/corrupt/decode chain. The link is read once off the correction
table, as each accepted slot's 2x2 map times the Pauli that undoes it,
and so is Bob's chance of reading 1, as a (state, bin) table; a block's
channel draws, one evaluation of the noise module's counter-based stream
over an array of channel seeds, enter only as the branch weights |c|^2.
Detection is sampled from the exact corrected bin probabilities scaled
by the baseline detector efficiency, branch then bin: a pulse's branch
from the four masses its channel draw gives the branches, then its bin
within the branch by one binary search of the link's cumulative bin
weights, so a block costs a fixed number of array operations at any
depth. The receiver measures in a random basis.
Because every accepted bin reconstructs the sent state exactly, sifted
errors are structurally impossible: the error rate is zero, not small,
for every channel draw. The only cost is the discarded edge bins, which
scale the detection efficiency by (N-1)/N.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .analysis import _CORRECTIONS, _PAULI_MATRICES, CorrectionTable, correction_table
from .circuits import DecoderSpec, EncoderSpec
# ``run`` and ``_apply_collective_noise`` are the per-pulse chain that the
# compiled map stands for; they stay bound here for the reference oracle in
# tests/test_qkd.py and for the benchmark's tracer (perfbench/spans.py).
from .circuits import run  # noqa: F401
from .elements import _INV_SQRT2, BsConvention
from .noise import _MASK64, HAAR, NoiseEnsemble, _mix64, _seed, sample_coefficients, sample_noise
from .noise import _apply_collective_noise  # noqa: F401

#: (alpha, beta) of Alice's states, indexed 2 * basis + bit; basis 0 is H/V, basis 1 diagonal.
_BB84_QUBITS = np.array([(1.0, 0.0), (0.0, 1.0), (_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, -_INV_SQRT2)])


@dataclass(frozen=True)
class Bb84Config:
    pulses: int
    stages: int = 1
    ensemble: NoiseEnsemble = HAAR
    refresh_every: int = 1     # pulses between fresh channel draws
    eta: float = 1.0           # baseline detector efficiency
    seed: int = 0
    convention: BsConvention = BsConvention.SYMMETRIC

    def __post_init__(self):
        if operator.index(self.pulses) < 1 or operator.index(self.refresh_every) < 1:
            raise ValueError("pulses and refresh_every must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("detector efficiency must be in (0, 1]")
        _seed(self.seed)  # the draws read the seed modulo 2**64
        EncoderSpec(self.stages, self.convention)  # rejects a cascade too shallow or too deep to run


@dataclass(frozen=True)
class Bb84Stats:
    sent: int
    detected: int
    sifted: int
    errors: int

    @property
    def qber(self) -> float:
        return self.errors / self.sifted if self.sifted else 0.0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.sent

    def csv_row(self) -> str:
        return (
            f"{self.sent},{self.sifted},{self.errors},"
            f"{self.qber:.17g},{self.detection_rate:.17g}"
        )

    def summary(self) -> str:
        return (
            f"pulses sent       {self.sent}\n"
            f"detected          {self.detected} (rate {self.detection_rate:.6f})\n"
            f"sifted key bits   {self.sifted}\n"
            f"sifted errors     {self.errors}\n"
            f"qber              {self.qber:.6f}"
        )


def effective_efficiency(stages: int, eta: float) -> float:
    """Detector efficiency scaled by the (N-1)/N post-selection factor."""
    n = EncoderSpec(stages).bins_per_group  # checks the depth
    if not 0.0 < eta <= 1.0:
        raise ValueError("detector efficiency must be in (0, 1]")
    return eta * (n - 1) / n


#: Pulses evaluated together. Every per-pulse array is 1-D, so a block
#: holds O(_BLOCK_PULSES) numbers whatever the cascade depth.
_BLOCK_PULSES = 1 << 12

#: Draw indices of ``_uniform``: Alice's basis, bit and detection draw, then
#: Bob's basis and measurement draw. A block draws all five for every pulse in
#: one pass and reads Bob's two at the detected pulses only: the same words a
#: detected pulse drew alone, since a word depends on (seed, pulse, index) only.
_DRAWS = np.arange(5, dtype=np.uint64)[:, None]


def _derived_seed(master: int, index: int, domain: int = 0) -> int:
    x = (master & _MASK64) + 0x9E3779B97F4A7C15 * (index + 1) + 0xD1B54A32D192ED03 * domain
    return _mix64(x & _MASK64)


def _uniform(master: int, pulse, which):
    """Deterministic uniform in [0, 1) from (seed, pulse index, draw index).

    ``pulse`` and ``which`` are ints or uint64 arrays that broadcast
    together; each pulse's seed is derived once for all its draw indices.
    """
    words = _mix64(_derived_seed(master, pulse) ^ (0x632BE59BD9B4E019 * (which + 1) & _MASK64))
    # a word of 2**64 - 1024 or more rounds to 1.0, which would make a certain
    # outcome (u < 1.0) fail: it becomes the largest double below 1, and an
    # int pulse still gets a Python float
    u = words * 2.0 ** -64
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u) if isinstance(u, np.ndarray) else min(u, 1.0 - 2.0 ** -53)


def _gate_map(table: CorrectionTable, encoder, decoder) -> dict:
    """(port, absolute tick) -> Correction for every accepted bin; a new dict per call.

    ``encoder`` and ``decoder`` are not read: the table's windows carry the layout. The
    benchmark's wrong-correction test wraps this name and signature until its next revision.
    """
    return {key: _CORRECTIONS[index]
            for key, index in zip(table.windows, table.slot_correction.tolist()) if index >= 0}


def _detection_events(table: CorrectionTable, gates: dict) -> list:
    """(window slot, index into ``_CORRECTIONS``) per accepted slot in ``gates``, in ``windows``
    order; a function of its own while the benchmark's ``qkd.detection`` span wraps it by name."""
    return [(slot, _CORRECTIONS.index(gates[key])) for slot, key in enumerate(table.windows) if key in gates]


#: Per Pauli of ``_PAULI_MATRICES``, the column of each row's one nonzero entry,
#: and that entry, shaped (Pauli, row, 1): row i of P @ M is ``units[i] * M[rows[i]]``.
_PAULI_ROWS = np.abs(_PAULI_MATRICES).argmax(axis=2)
_PAULI_UNITS = np.take_along_axis(_PAULI_MATRICES, _PAULI_ROWS[:, :, None], axis=2)


def _compile_link(table: CorrectionTable) -> tuple[np.ndarray, np.ndarray]:
    """The link's corrected map, bin by accepted bin in ``windows`` order.

    Returns, per bin, the index into ``BRANCHES`` of the noise coefficient
    its amplitude scales with, and its Pauli times its slot map. The decoded
    state is linear in the qubit and in the noise coefficients, and the branch
    windows are disjoint, so a pulse's corrected amplitudes in bin j are
    ``coefficient[branch[j]] * maps[j] @ qubit``.
    """
    gates = _gate_map(table, table.encoder, table.decoder)
    slots, pauli = (np.array(column, dtype=np.intp) for column in zip(*_detection_events(table, gates)))
    # a Pauli has one unit per row, so P @ M is a gather of M's rows times those units
    return table.slot_branch[slots], table.slot_maps[slots[:, None], _PAULI_ROWS[pauli]] * _PAULI_UNITS[pauli]


def _channel_coefficients(ensemble: NoiseEnsemble, seeds: np.ndarray) -> np.ndarray:
    """(draw, branch) noise coefficients, one row per channel seed.

    The first draw always goes through ``sample_noise``; a block of more
    draws takes every row from ``sample_coefficients``, whose first row must
    equal that draw bit for bit: an array path that rounds apart from the
    scalar one fails here, not silently.
    """
    first = np.array(sample_noise(ensemble, int(seeds[0])).coefficients(), dtype=complex)
    if len(seeds) == 1:
        return first[None]
    coefficients = sample_coefficients(ensemble, seeds)
    if coefficients[0].tobytes() != first.tobytes():
        raise RuntimeError(f"batched draw {coefficients[0].tolist()} differs from "
                           f"sample_noise's {first.tolist()} for seed {seeds[0]}")
    return coefficients


#: ``4 * state + branch``, shaped (Alice's state, branch, 1): the integer part of each detection key.
_KEY_OFFSETS = 4 * np.arange(4)[:, None, None] + np.arange(4)[:, None]


def _link_keys(branch: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The search keys of a link's two-level detection sampler, once per link.

    ``branch`` and ``weights`` are ``_compile_link``'s branch per bin and the
    (bin, state) probabilities at unit coefficient. Returns ``(keys, totals)``:
    ``totals[k, s]`` is branch k's accepted weight for Alice's state s, and
    ``keys``, ascending, holds ``4 * s + k + c`` per (state, branch, bin), where
    ``c`` is the branch's weight through that bin over its total. Every link has
    as many bins per branch, in branch order; any other order would be read
    as the wrong bins, so it stops the run.
    """
    per = len(branch) // 4
    if not np.array_equal(branch, np.repeat(np.arange(4), per)):
        raise RuntimeError(f"link bins per branch are {np.bincount(branch, minlength=4).tolist()} "
                           f"in that order; detection sampling needs {per} per branch, in branch order")
    within = np.cumsum(weights.reshape(4, per, 4), axis=1)  # (branch, bin, state)
    totals = within[:, -1]
    return (_KEY_OFFSETS + (within / totals[:, None]).transpose(2, 0, 1)).ravel(), totals


def _landing_bins(keys: np.ndarray, totals: np.ndarray, branch_weight: np.ndarray,
                  state: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The detected pulses, ascending, and each one's bin in link order, from ``_link_keys``.

    ``branch_weight`` is (branch, pulse), ``state`` is Alice's state per pulse
    and ``u`` the detection draw over the efficiency. The bins partition
    [0, total) in link order and a pulse lands in the bin that holds ``u``:
    first its branch, from the remainders after each branch's mass (a
    remainder is negative exactly when ``u`` lies below that mass), then the
    bin, by one search of the remainder's share of the branch among the keys.
    A block takes the same number of array operations at any depth; only
    the search grows, with the logarithm of the number of bins.
    """
    per = len(keys) // 16
    # (branch, pulse) mass; take gathers the columns about 3x faster than totals[:, state]
    p = branch_weight * totals.take(state, axis=1)
    left = np.empty((5, len(u)))
    left[0] = u
    for k in range(4):
        np.subtract(left[k], p[k], out=left[k + 1])
    branch = (left[1:] >= 0).sum(axis=0)  # 4 = past every branch: undetected
    found = np.flatnonzero(branch < 4)
    k, s = branch[found], state[found]
    at = np.searchsorted(keys, (4 * s + k) + left[k, found] / p[k, found], side="right") - 4 * per * s
    # a share that rounds to 1 searches past the branch's last key
    return found, np.minimum(at, per * k + per - 1)


def simulate_bb84(cfg: Bb84Config) -> Bb84Stats:
    """Monte Carlo BB84 run; bit-for-bit reproducible for a given config.

    Pulses are evaluated ``_BLOCK_PULSES`` at a time as 1-D numpy arrays
    through the link's compiled map; each pulse draws the same counter-
    based uniforms (seed, pulse, draw index) it would draw alone, and each
    channel draw k reads the stream of channel seed
    ``_derived_seed(seed, k, domain=1)``, the same words alone or in a block.
    A block takes all five draws of every pulse from one ``_uniform`` call;
    Bob's basis and measurement draws are read at the detected pulses, at
    the same draw indices a detected pulse reads alone, and Bob's bit is
    read off the link's clamped (state, bin) table. A block reads the channel
    only as the branch weights |c|^2 that pick each pulse's bin.
    No draw uses numpy's own generators.

    A pulse is detected in the bin that holds its detection draw when the
    accepted bins, in link order, partition [0, total). ``_landing_bins``
    finds it by branch and then by search; it rounds apart from a walk over
    the bins one by one (``tests/_oracles.py``) only when the draw lies
    within a few ulps of a bin or branch edge, a chance under 1e-13 per
    pulse at stage 4.
    """
    encoder = EncoderSpec(cfg.stages, cfg.convention)
    table = correction_table(encoder, DecoderSpec(0, cfg.convention))
    branch, maps = _compile_link(table)
    # corrected amplitudes per (Alice's state 2 * basis + bit, bin, H/V) at unit coefficient
    images = np.einsum("jab,sb->sja", maps, _BB84_QUBITS)
    weights = (np.abs(images) ** 2).sum(axis=2).T  # (bin, state) probability at unit coefficient
    keys, totals = _link_keys(branch, weights)
    # (state, bin) chance that Bob reads 1: |V|^2 in the H/V basis, |(H - V)/sqrt2|^2 in the diagonal
    # one, over the bin's weight, so the coefficient that scales the bin cancels. Residues below 1e-12
    # are exact zeros physically; clamping keeps impossible outcomes impossible
    c_h, c_v = np.moveaxis(images, 2, 0)
    p_one = np.abs(np.concatenate([c_v[:2], (c_h[2:] - c_v[2:]) * _INV_SQRT2])) ** 2 / weights.T
    p_one[p_one < 1e-12] = 0.0
    p_one[p_one > 1.0 - 1e-12] = 1.0

    # the same draws as cfg.refresh_every, small enough for uint64 arithmetic
    refresh = min(cfg.refresh_every, cfg.pulses)
    detected = sifted = errors = 0
    for start in range(0, cfg.pulses, _BLOCK_PULSES):
        pulse = np.arange(start, min(start + _BLOCK_PULSES, cfg.pulses), dtype=np.uint64)
        first, last = start // refresh, int(pulse[-1]) // refresh
        # a draw that straddles two blocks is drawn again: the draws are pure; one
        # draw takes the int path, not a dozen ufunc calls on a 1-element array
        index = first if first == last else np.arange(first, last + 1, dtype=np.uint64)
        seeds = np.array(_derived_seed(cfg.seed, index, domain=1), dtype=np.uint64, ndmin=1)
        coefficients = _channel_coefficients(cfg.ensemble, seeds)  # (draw, branch)
        draw = (pulse // refresh - first).astype(np.intp)
        branch_weight = (np.abs(coefficients) ** 2).take(draw, axis=0).T  # (branch, pulse)

        alice_basis, alice_bit, u, bob_basis, bob_u = _uniform(cfg.seed, pulse, _DRAWS)
        alice_basis, alice_bit = alice_basis < 0.5, alice_bit < 0.5
        state = 2 * alice_basis + alice_bit
        found, hit_bin = _landing_bins(keys, totals, branch_weight, state, u / cfg.eta)
        detected += len(found)
        same = (bob_basis[found] < 0.5) == alice_basis[found]
        found, hit_bin = found[same], hit_bin[same]
        sifted += len(found)

        errors += int(np.count_nonzero((bob_u[found] < p_one[state[found], hit_bin]) != alice_bit[found]))

    return Bb84Stats(sent=cfg.pulses, detected=detected, sifted=sifted, errors=errors)
