"""Sparse single-photon states over channels, polarizations, and time bins.

A photon is described by a finite map from modes to complex amplitudes.
A mode is a (channel, polarization, tick) triple; ticks are integers on a
grid whose unit is half the base interferometer interval, so every delay
in a circuit is an exact integer and no rounding ever occurs.

All operations are pure: they return new states and never mutate inputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

#: Amplitudes with magnitude below this are dropped from the sparse map.
PRUNE_THRESHOLD = 1e-15

#: Default tolerance for float comparisons throughout the package.
TOLERANCE = 1e-12


class Polarization(str, Enum):
    H = "H"
    V = "V"


H = Polarization.H
V = Polarization.V


@dataclass(frozen=True)
class QubitSpec:
    """Polarization qubit a|H> + b|V>, normalized to one."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(n - 1.0) <= TOLERANCE:  # also rejects NaN
            raise ValueError(f"qubit amplitudes not normalized: |a|^2+|b|^2 = {n!r}")


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
                if not abs(a) < PRUNE_THRESHOLD:  # a NaN is kept
                    channel, pol, tick = mode
                    amps[(channel, Polarization(pol), operator.index(tick))] = a
        self.amplitudes = amps

    @classmethod
    def _from_clean(cls, amplitudes: dict) -> "PhotonState":
        # Internal fast path: keys are known-good (str, Polarization, int)
        # tuples, values complex; only pruning is applied.
        state = cls.__new__(cls)
        state.amplitudes = {m: a for m, a in amplitudes.items() if not abs(a) < PRUNE_THRESHOLD}
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
        """Largest amplitude difference between two states, over all modes; NaN if any is."""
        keys = set(self.amplitudes) | set(other.amplitudes)
        return _max_or_nan(abs(self.amplitudes.get(k, 0j) - other.amplitudes.get(k, 0j)) for k in keys)

    def dump(self) -> str:
        """Deterministic text dump, one mode per line: channel,pol,tick,re,im,
        ordered by channel, then tick, then polarization."""
        order = sorted(self.amplitudes.items(), key=lambda item: (item[0][0], item[0][2], item[0][1].value))
        return "\n".join(f"{channel},{pol.value},{tick},{a.real:.17g},{a.imag:.17g}"
                         for (channel, pol, tick), a in order)


def _max_or_nan(values) -> float:
    """The largest of some non-negative numbers, 0.0 for none; NaN if any is, which ``max`` can drop."""
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values, default=0.0)


def new_state(qubit: QubitSpec, channel: str = "in") -> PhotonState:
    """Place a polarization qubit at tick 0 of a channel."""
    return PhotonState(
        {
            (channel, H, 0): qubit.alpha,
            (channel, V, 0): qubit.beta,
        }
    )
