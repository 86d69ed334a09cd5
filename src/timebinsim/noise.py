"""Collective polarization noise: one unknown 2x2 map for a whole train.

The channel applies the same transformation

    |H> -> d1 |H> + g1 |V>
    |V> -> d2 |H> + g2 |V>

to every wavepacket of a transmission, with each image normalized
(|d1|^2 + |g1|^2 = |d2|^2 + |g2|^2 = 1). Unitarity is deliberately not
required: the normalization alone already guarantees norm conservation
for trains that carry a single polarization per time slot, which is the
regime the encoder produces, and the wider class is worth simulating.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .state import PhotonState, Polarization, TOLERANCE

H = Polarization.H
V = Polarization.V


@dataclass(frozen=True)
class NoiseParams:
    """The four complex channel parameters (d1, g1) and (d2, g2)."""

    d1: complex
    g1: complex
    d2: complex
    g2: complex

    def __post_init__(self):
        for d, g, which in ((self.d1, self.g1, "H"), (self.d2, self.g2, "V")):
            n = abs(d) ** 2 + abs(g) ** 2
            if not abs(n - 1.0) <= TOLERANCE:  # also rejects NaN
                raise ValueError(f"noise image of |{which}> not normalized: {n!r}")

    @staticmethod
    def identity() -> "NoiseParams":
        return NoiseParams(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def bit_flip() -> "NoiseParams":
        return NoiseParams(0.0, 1.0, 1.0, 0.0)

    def as_floats(self) -> tuple[float, ...]:
        """Flatten to 8 floats (re, im per parameter), CSV order."""
        return (
            self.d1.real, self.d1.imag, self.g1.real, self.g1.imag,
            self.d2.real, self.d2.imag, self.g2.real, self.g2.imag,
        )

    def matrix(self) -> np.ndarray:
        """Jones map acting on (H, V) column vectors."""
        return np.array([[self.d1, self.d2], [self.g1, self.g2]])


@dataclass(frozen=True)
class NoiseEnsemble:
    """A named distribution over NoiseParams.

    ``haar`` draws uniformly random unitaries; ``general`` draws each
    basis-state image as an independent random unit vector in C^2, which
    is the widest class the normalization constraint allows; ``dephasing``
    leaves H alone and phase-shifts V by ``phi``.
    """

    kind: str
    phi: float = 0.0

    _KINDS = ("identity", "haar", "general", "dephasing")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown noise ensemble {self.kind!r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"ensemble phase must be finite, got {self.phi!r}")


IDENTITY = NoiseEnsemble("identity")
HAAR = NoiseEnsemble("haar")
GENERAL = NoiseEnsemble("general")


def dephasing(phi: float) -> NoiseEnsemble:
    return NoiseEnsemble("dephasing", phi)


def _unit_vector(rng) -> tuple[complex, complex]:
    raw = rng.normal(size=4)
    a = complex(raw[0], raw[1])
    b = complex(raw[2], raw[3])
    n = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
    return a / n, b / n


def _haar_u2(rng) -> NoiseParams:
    # Euler-angle form of the uniform measure on U(2): three independent
    # uniform phases plus a mixing angle with sin^2(theta) uniform.
    xi, a, b, g = rng.random(4)
    c = math.sqrt(1.0 - xi)
    s = math.sqrt(xi)
    pa = cmath.exp(2j * math.pi * a)
    pb = cmath.exp(2j * math.pi * b)
    pg = cmath.exp(2j * math.pi * g)
    return NoiseParams(
        pg * pa * c,             # |H> -> H
        -pg * s / pb,            # |H> -> V
        pg * pb * s,             # |V> -> H
        pg * c / pa,             # |V> -> V
    )


def sample_noise(ensemble: NoiseEnsemble, seed: int) -> NoiseParams:
    """Deterministic draw: the same (ensemble, seed) always yields the same params."""
    if ensemble.kind == "identity":
        return NoiseParams.identity()
    if ensemble.kind == "dephasing":
        return NoiseParams(1.0, 0.0, 0.0, cmath.exp(1j * ensemble.phi))
    rng = np.random.default_rng(seed)
    if ensemble.kind == "haar":
        return _haar_u2(rng)
    d1, g1 = _unit_vector(rng)
    d2, g2 = _unit_vector(rng)
    return NoiseParams(d1, g1, d2, g2)


def _apply_collective_noise(amps: dict, params: NoiseParams, channels) -> dict:
    d1, g1, d2, g2 = params.d1, params.g1, params.d2, params.g2
    out: dict = {}
    for (ch, pol, tick), a in amps.items():
        if ch in channels:
            if pol is H:
                ah, av = a * d1, a * g1
            else:
                ah, av = a * d2, a * g2
            if ah != 0j:
                key = (ch, H, tick)
                out[key] = out.get(key, 0j) + ah
            if av != 0j:
                key = (ch, V, tick)
                out[key] = out.get(key, 0j) + av
        else:
            out[(ch, pol, tick)] = a
    return out


def apply_collective_noise(state: PhotonState, params: NoiseParams, channels) -> PhotonState:
    """Apply the same polarization map at every tick of the given channels."""
    if isinstance(channels, str):
        channels = {channels}
    return PhotonState._from_clean(_apply_collective_noise(state.amplitudes, params, set(channels)))
