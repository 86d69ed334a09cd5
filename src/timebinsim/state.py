"""Sparse single-photon states over channels, polarizations, and time bins.

A photon is described by a finite map from modes to complex amplitudes.
A mode is a (channel, polarization, tick) triple; ticks are integers on a
grid whose unit is half the base interferometer interval, so every delay
in a circuit is an exact integer and no rounding ever occurs.

All operations are pure: they return new states and never mutate inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

#: Amplitudes with magnitude below this are dropped from the sparse map.
PRUNE_THRESHOLD = 1e-15

#: Default tolerance for float comparisons throughout the package.
TOLERANCE = 1e-12


class Polarization(str, Enum):
    H = "H"
    V = "V"


H = Polarization.H
V = Polarization.V


class Mode(NamedTuple):
    """Addressable basis element: where, which polarization, and when."""

    channel: str
    pol: Polarization
    tick: int

    def sort_key(self) -> tuple[str, int, str]:
        # Total order is channel, then tick, then polarization. Unpacking
        # lets plain (channel, pol, tick) keys use it too.
        channel, pol, tick = self
        return (channel, tick, pol.value)


@dataclass(frozen=True)
class QubitSpec:
    """Polarization qubit a|H> + b|V>, normalized to one."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(n - 1.0) <= TOLERANCE:  # also rejects NaN
            raise ValueError(f"qubit amplitudes not normalized: |a|^2+|b|^2 = {n!r}")

    @staticmethod
    def horizontal() -> "QubitSpec":
        return QubitSpec(1.0, 0.0)

    @staticmethod
    def vertical() -> "QubitSpec":
        return QubitSpec(0.0, 1.0)

    @staticmethod
    def diagonal() -> "QubitSpec":
        s = 1.0 / math.sqrt(2.0)
        return QubitSpec(s, s)

    @staticmethod
    def antidiagonal() -> "QubitSpec":
        s = 1.0 / math.sqrt(2.0)
        return QubitSpec(s, -s)


def _unit_vector(rng) -> tuple[complex, complex]:
    """A uniformly random unit vector in C^2, from four normals of a numpy Generator."""
    raw = rng.normal(size=4)
    a = complex(raw[0], raw[1])
    b = complex(raw[2], raw[3])
    n = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
    return a / n, b / n


def random_qubit(rng) -> QubitSpec:
    """Draw a uniformly random pure qubit from a numpy Generator."""
    return QubitSpec(*_unit_vector(rng))


class PhotonState:
    """Finite map mode -> complex amplitude.

    The map is kept sparse: amplitudes below ``PRUNE_THRESHOLD`` in magnitude
    are dropped on construction. Treat instances as immutable values; all
    transformations produce new states.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: dict | None = None):
        amps = {}
        if amplitudes:
            for mode, a in amplitudes.items():
                if type(a) is not complex:
                    a = complex(a)
                if abs(a) >= PRUNE_THRESHOLD:
                    channel, pol, tick = mode
                    if type(pol) is not Polarization:
                        mode = (channel, Polarization(pol), int(tick))
                    amps[mode] = a
        self.amplitudes = amps

    @classmethod
    def _from_clean(cls, amplitudes: dict) -> "PhotonState":
        # Internal fast path: keys are known-good (str, Polarization, int)
        # tuples, values complex; only pruning is applied.
        state = cls.__new__(cls)
        state.amplitudes = {m: a for m, a in amplitudes.items() if abs(a) >= PRUNE_THRESHOLD}
        return state

    def __repr__(self):
        return f"PhotonState({len(self.amplitudes)} modes, norm_sq={self.norm_sq():.6g})"

    def __len__(self):
        return len(self.amplitudes)

    def amplitude(self, channel: str, pol: Polarization, tick: int) -> complex:
        return self.amplitudes.get((channel, Polarization(pol), tick), 0j)

    def norm_sq(self) -> float:
        """Total probability carried by the state; 0 for the empty state."""
        return sum(a.real * a.real + a.imag * a.imag for a in self.amplitudes.values())

    def max_deviation(self, other: "PhotonState") -> float:
        """Largest amplitude difference between two states, over all modes."""
        keys = set(self.amplitudes) | set(other.amplitudes)
        return max(
            (abs(self.amplitudes.get(k, 0j) - other.amplitudes.get(k, 0j)) for k in keys),
            default=0.0,
        )

    def dump(self) -> str:
        """Deterministic text dump, one mode per line: channel,pol,tick,re,im."""
        lines = []
        for mode in sorted(self.amplitudes, key=Mode.sort_key):
            channel, pol, tick = mode
            a = self.amplitudes[mode]
            lines.append(f"{channel},{pol.value},{tick},{a.real:.17g},{a.imag:.17g}")
        return "\n".join(lines)


def new_state(qubit: QubitSpec, channel: str = "in") -> PhotonState:
    """Place a polarization qubit at tick 0 of a channel."""
    return PhotonState(
        {
            (channel, H, 0): qubit.alpha,
            (channel, V, 0): qubit.beta,
        }
    )
