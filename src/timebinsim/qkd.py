"""BB84 over the collectively noisy fiber, a block of pulses at a time.

Each pulse carries one of the four BB84 states through the full
encode/corrupt/decode chain, compiled once per link into one corrected
2x2 map per accepted bin and evaluated for a block of pulses at once;
a block's Haar channel draws are made in one vectorized pass.
Detection is sampled from the exact output bin probabilities scaled by
the baseline detector efficiency, the bin's derived Pauli is applied,
and the receiver measures in a random basis.
Because every accepted bin reconstructs the sent state exactly, sifted
errors are structurally impossible: the error rate is zero, not small,
for every channel draw. The only cost is the discarded edge bins, which
scale the detection efficiency by (N-1)/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _CORRECTIONS, BRANCHES, CorrectionTable, _slots, correction_table
from .circuits import DecoderSpec, encoder_spec_for
# ``run`` and ``_apply_collective_noise`` are the per-pulse chain that the
# compiled map stands for; they stay bound here for the reference oracle in
# tests/test_qkd.py and for the benchmark's tracer (perfbench/spans.py).
from .circuits import run  # noqa: F401
from .elements import _INV_SQRT2, BsConvention
from .noise import (HAAR, NoiseEnsemble, _apply_collective_noise,  # noqa: F401
                    sample_coefficients, sample_noise)
from .state import PhotonState, QubitSpec

#: Alice's states, indexed [basis][bit]; basis 0 is H/V, basis 1 diagonal.
_BB84_STATES = (
    (QubitSpec.horizontal(), QubitSpec.vertical()),
    (QubitSpec.diagonal(), QubitSpec.antidiagonal()),
)


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
        if self.pulses < 1 or self.stages < 1 or self.refresh_every < 1:
            raise ValueError("pulses, stages, and refresh_every must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("detector efficiency must be in (0, 1]")
        encoder_spec_for(self.stages, self.convention)  # rejects a cascade too deep to run


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
    if stages < 1:
        raise ValueError("stages must be >= 1")
    if not 0.0 < eta <= 1.0:
        raise ValueError("detector efficiency must be in (0, 1]")
    n = 2 ** (stages + 1)
    return eta * (n - 1) / n


_MASK64 = (1 << 64) - 1

#: Pulses evaluated together. Every per-pulse array is 1-D, so a block
#: holds O(_BLOCK_PULSES) numbers whatever the cascade depth.
_BLOCK_PULSES = 1 << 12

#: Draw indices of ``_uniform``: Alice's basis, bit and detection draw per
#: pulse, then Bob's basis and measurement draw per detected pulse.
_ALICE_DRAWS = np.arange(3, dtype=np.uint64)[:, None]
_BOB_DRAWS = np.arange(3, 5, dtype=np.uint64)[:, None]

#: Fewest Haar draws in a block that ``sample_coefficients`` makes in one
#: pass: its fixed cost is about that of this many ``sample_noise`` calls.
_BATCH_DRAWS = 16


def _mix64(x: int) -> int:
    # splitmix64 finalizer: cheap, stable, well-distributed
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _derived_seed(master: int, index: int, domain: int = 0) -> int:
    x = (master & _MASK64) + 0x9E3779B97F4A7C15 * (index + 1) + 0xD1B54A32D192ED03 * domain
    return _mix64(x & _MASK64)


def _uniform(master: int, pulse, which):
    """Deterministic uniform in [0, 1) from (seed, pulse index, draw index).

    ``pulse`` and ``which`` are ints or uint64 arrays that broadcast
    together; each pulse's seed is derived once for all its draw indices.
    """
    u = _mix64(_derived_seed(master, pulse) ^ (0x632BE59BD9B4E019 * (which + 1) & _MASK64)) / 2.0 ** 64
    # a word of 2**64 - 1024 or more rounds to 1.0, which would make a certain
    # outcome (u < 1.0) fail: it becomes the largest double below 1, and an
    # int pulse still gets a Python float
    return u - (u == 1.0) * 2.0 ** -53


def _gate_map(table: CorrectionTable, encoder, decoder) -> dict:
    """(port, absolute tick) -> Correction for every accepted bin; a new dict per call.

    ``encoder`` and ``decoder`` are not read: the table's windows carry the layout.
    """
    return {key: _CORRECTIONS[index]
            for key, index in zip(table.windows, table.slot_correction.tolist()) if index >= 0}


def _detection_events(out: PhotonState, gates: dict) -> list:
    """((port, tick), probability, corrected H, corrected V) per accepted output bin."""
    events = []
    for key, (a_h, a_v) in _slots(out, gates).items():
        c_h, c_v = gates[key].apply(a_h, a_v)
        events.append((key, abs(c_h) ** 2 + abs(c_v) ** 2, c_h, c_v))
    return events


def _compile_link(table: CorrectionTable) -> tuple[np.ndarray, np.ndarray]:
    """The link's corrected map, bin by accepted bin.

    Returns, per bin, the index into ``BRANCHES`` of the noise coefficient
    its amplitude scales with, and the corrected 2x2 map from the sent
    (H, V) amplitudes at unit coefficient. The decoded state is linear in
    the qubit and in the noise coefficients, and the branch windows are
    disjoint, so a pulse's corrected amplitudes in bin j are
    ``coefficient[branch[j]] * maps[j] @ qubit``.
    """
    gates = _gate_map(table, table.encoder, table.decoder)
    maps: dict = {}  # (port, tick) -> [H->H, V->H, H->V, V->V]
    for pair in table.basis_outputs:
        for col, out in enumerate(pair):
            for key, _p, c_h, c_v in _detection_events(out, gates):
                m = maps.setdefault(key, [0j, 0j, 0j, 0j])
                m[col] += c_h
                m[2 + col] += c_v
    branch = np.array([BRANCHES.index(table.windows[key][0]) for key in maps], dtype=np.intp)
    return branch, np.array(list(maps.values())).reshape(-1, 2, 2)


def _channel_coefficients(ensemble: NoiseEnsemble, seeds: np.ndarray) -> np.ndarray:
    """(draw, branch) noise coefficients, one row per channel seed.

    The first draw always goes through ``sample_noise``. Haar blocks of at
    least ``_BATCH_DRAWS`` draws take every row from ``sample_coefficients``,
    whose first row must equal that draw bit for bit: a numpy whose
    generator the batch no longer reproduces fails here, not silently.
    """
    first = np.array(sample_noise(ensemble, int(seeds[0])).coefficients(), dtype=complex)
    if ensemble.kind != "haar" or len(seeds) < _BATCH_DRAWS:
        rest = [sample_noise(ensemble, int(s)).coefficients() for s in seeds[1:]]
        return np.array([first, *rest], dtype=complex)
    coefficients = sample_coefficients(ensemble, seeds)
    if coefficients[0].tobytes() != first.tobytes():
        raise RuntimeError(f"batched Haar draw {coefficients[0].tolist()} differs from "
                           f"sample_noise's {first.tolist()} for seed {seeds[0]}")
    return coefficients


def simulate_bb84(cfg: Bb84Config) -> Bb84Stats:
    """Monte Carlo BB84 run; bit-for-bit reproducible for a given config.

    Pulses are evaluated ``_BLOCK_PULSES`` at a time as 1-D numpy arrays
    through the link's compiled map; each pulse draws the same counter-
    based uniforms (seed, pulse, draw index) it would draw alone.
    """
    encoder = encoder_spec_for(cfg.stages, cfg.convention)
    table = correction_table(encoder, DecoderSpec(0, cfg.convention))
    branch, maps = _compile_link(table)
    # corrected amplitudes per (Alice's state 2 * basis + bit, bin, H/V) at unit coefficient
    qubits = np.array([(q.alpha, q.beta) for pair in _BB84_STATES for q in pair])
    images = np.einsum("jab,sb->sja", maps, qubits)
    weights = (np.abs(images) ** 2).sum(axis=2).T  # (bin, state) probability at unit coefficient

    # the same draws as cfg.refresh_every, small enough for uint64 arithmetic
    refresh = min(cfg.refresh_every, cfg.pulses)
    detected = sifted = errors = 0
    for start in range(0, cfg.pulses, _BLOCK_PULSES):
        pulse = np.arange(start, min(start + _BLOCK_PULSES, cfg.pulses), dtype=np.uint64)
        first, last = start // refresh, int(pulse[-1]) // refresh
        # a draw that straddles two blocks is drawn again: the draws are pure
        seeds = _derived_seed(cfg.seed, np.arange(first, last + 1, dtype=np.uint64), domain=1)
        coefficients = _channel_coefficients(cfg.ensemble, seeds)  # (draw, branch)
        draw = (pulse // refresh - first).astype(np.intp)
        branch_weight = (np.abs(coefficients) ** 2).T[:, draw]  # (branch, pulse)

        alice_basis, alice_bit, u = _uniform(cfg.seed, pulse, _ALICE_DRAWS)
        alice_basis, alice_bit = alice_basis < 0.5, alice_bit < 0.5
        state = 2 * alice_basis + alice_bit
        u /= cfg.eta
        hit = np.full(len(pulse), -1)
        for j, k in enumerate(branch):
            p = weights[j][state] * branch_weight[k]
            hit[(hit < 0) & (u < p)] = j
            u -= p

        found = np.flatnonzero(hit >= 0)
        detected += len(found)
        bob_basis, bob_u = _uniform(cfg.seed, pulse[found], _BOB_DRAWS)
        same = (bob_basis < 0.5) == alice_basis[found]
        found, bob_u = found[same], bob_u[same]
        sifted += len(found)

        hit_bin = hit[found]
        c_h, c_v = coefficients[draw[found], branch[hit_bin]] * images[state[found], hit_bin].T
        norm = np.abs(c_h) ** 2 + np.abs(c_v) ** 2
        p_one = np.where(alice_basis[found], np.abs((c_h - c_v) * _INV_SQRT2) ** 2,
                         np.abs(c_v) ** 2) / norm
        # amplitudes below tolerance are exact zeros physically; clamping
        # keeps impossible outcomes impossible despite float residue
        p_one[p_one < 1e-12] = 0.0
        p_one[p_one > 1.0 - 1e-12] = 1.0
        bob_bit = bob_u < p_one
        errors += int(np.count_nonzero(bob_bit != alice_bit[found]))

    return Bb84Stats(sent=cfg.pulses, detected=detected, sifted=sifted, errors=errors)
