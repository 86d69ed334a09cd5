"""BB84 over the collectively noisy fiber, pulse by pulse.

Each pulse carries one of the four BB84 states through the full
encode/corrupt/decode chain. Detection is sampled from the exact output
bin probabilities scaled by the baseline detector efficiency, the bin's
derived Pauli is applied, and the receiver measures in a random basis.
Because every accepted bin reconstructs the sent state exactly, sifted
errors are structurally impossible: the error rate is zero, not small,
for every channel draw. The only cost is the discarded edge bins, which
scale the detection efficiency by (N-1)/N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import CorrectionTable, correction_table
from .circuits import CHANNEL, DecoderSpec, encoder_spec_for, run
from .elements import _INV_SQRT2, BsConvention
from .noise import HAAR, NoiseEnsemble, _apply_collective_noise, sample_noise
from .state import PhotonState, Polarization, QubitSpec, new_state

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


def _mix64(x: int) -> int:
    # splitmix64 finalizer: cheap, stable, well-distributed
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _derived_seed(master: int, index: int, domain: int = 0) -> int:
    x = (master & _MASK64) + 0x9E3779B97F4A7C15 * (index + 1) + 0xD1B54A32D192ED03 * domain
    return _mix64(x & _MASK64)


def _uniform(master: int, pulse: int, which: int) -> float:
    """Deterministic uniform in [0, 1) from (seed, pulse index, draw index)."""
    return _mix64(_derived_seed(master, pulse) ^ (0x632BE59BD9B4E019 * (which + 1) & _MASK64)) / 2.0 ** 64


def _gate_map(table: CorrectionTable, encoder, decoder) -> dict:
    """(port, absolute tick) -> Correction for every accepted bin."""
    gates = {}
    for (branch, t), correction in table.entries.items():
        gates[(branch.port, branch.offset(encoder, decoder) + t)] = correction
    return gates


def _detection_events(out: PhotonState, gates: dict) -> list:
    """(probability, corrected H, corrected V) per accepted output bin."""
    bins: dict = {}
    for (ch, pol, tick), a in out.amplitudes.items():
        gate = gates.get((ch, tick))
        if gate is not None:
            pair = bins.setdefault((ch, tick), [0j, 0j, gate])
            pair[0 if pol is Polarization.H else 1] = a
    events = []
    for a_h, a_v, gate in bins.values():
        c_h, c_v = gate.apply(a_h, a_v)
        events.append((abs(c_h) ** 2 + abs(c_v) ** 2, c_h, c_v))
    return events


def simulate_bb84(cfg: Bb84Config) -> Bb84Stats:
    """Monte Carlo BB84 run; bit-for-bit reproducible for a given config."""
    encoder = encoder_spec_for(cfg.stages, cfg.convention)
    decoder = DecoderSpec(0, cfg.convention)
    table = correction_table(encoder, decoder)
    gates = _gate_map(table, encoder, decoder)
    enc_c, dec_c = table.encoder_circuit, table.decoder_circuit
    sent_states = [[run(enc_c, new_state(q)) for q in pair] for pair in _BB84_STATES]

    detected = 0
    sifted = 0
    errors = 0
    params = None
    params_index = -1

    for pulse in range(cfg.pulses):
        j = pulse // cfg.refresh_every
        if j != params_index:
            params = sample_noise(cfg.ensemble, _derived_seed(cfg.seed, j, domain=1))
            params_index = j
        alice_basis = _uniform(cfg.seed, pulse, 0) < 0.5
        alice_bit = _uniform(cfg.seed, pulse, 1) < 0.5

        sent = sent_states[alice_basis][alice_bit]
        noisy = PhotonState._from_clean(_apply_collective_noise(sent.amplitudes, params, {CHANNEL}))
        out = run(dec_c, noisy)

        u = _uniform(cfg.seed, pulse, 2) / cfg.eta
        hit = None
        for p, c_h, c_v in _detection_events(out, gates):
            if u < p:
                hit = (c_h, c_v)
                break
            u -= p
        if hit is None:
            continue
        detected += 1

        bob_basis = _uniform(cfg.seed, pulse, 3) < 0.5
        if bob_basis != alice_basis:
            continue
        sifted += 1
        c_h, c_v = hit
        norm = abs(c_h) ** 2 + abs(c_v) ** 2
        if bob_basis:
            p_one = abs((c_h - c_v) * _INV_SQRT2) ** 2 / norm
        else:
            p_one = abs(c_v) ** 2 / norm
        # amplitudes below tolerance are exact zeros physically; clamping
        # keeps impossible outcomes impossible despite float residue
        if p_one < 1e-12:
            p_one = 0.0
        elif p_one > 1.0 - 1e-12:
            p_one = 1.0
        bob_bit = _uniform(cfg.seed, pulse, 4) < p_one
        if bob_bit != alice_bit:
            errors += 1

    return Bb84Stats(sent=cfg.pulses, detected=detected, sifted=sifted, errors=errors)
