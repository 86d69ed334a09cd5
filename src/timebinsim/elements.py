"""Linear optical elements and their maps on sparse amplitude dicts.

``circuits.apply`` and ``circuits.run`` put them to work on a
``PhotonState``. Every element is mode-local: it maps amplitudes at one
(polarization, tick) slot of its wired channels without touching
anything else. Phase conventions are explicit because they decide which
corrections the receiver must apply:

* ``BsConvention.SYMMETRIC`` - the unitary 50/50 coupler
  (1/sqrt2) [[1, i], [i, 1]] between (in1, in2) -> (out1, out2).
* ``BsConvention.SURFACE_PHASES`` - transmission 1/sqrt2 with reflection
  +i/sqrt2 off the first coated surface (in2 -> out1) and -i/sqrt2 off the
  second (in1 -> out2). As a 2x2 map this is singular, so it is only
  legal while the two inputs never occupy the same (polarization, tick)
  slot; used that way it conserves norm and keeps both output wavepacket
  trains free of relative phases.

Polarizing beam splitters are pure permutations here (H transmits,
V reflects, no reflection phase), so they never contribute corrections.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum

from .noise import NoiseParams
from .state import H, V

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class BsConvention(Enum):
    SYMMETRIC = "symmetric"
    SURFACE_PHASES = "surface"


#: Every element kind and the parameter keys its text form carries.
ELEMENT_KINDS = {
    "pbs": (),
    "bs": ("conv",),
    "hwp": (),
    "phase": ("phi",),
    "delay": ("ticks",),
    "split": ("ticks",),
    "noise": ("d1", "g1", "d2", "g2"),
}


class ConventionError(ValueError):
    """Two occupied inputs met a surface-phase splitter at the same slot.

    The surface-phase map is singular, so interfering overlapping inputs
    under it would silently destroy or create probability.
    """


@dataclass(frozen=True)
class Element:
    """One placed optical component: what it is and how it is wired.

    ``ins``/``outs`` are channel labels. Beam splitters take one or two of
    each (an omitted input is vacuum, an omitted output a dark port); all
    other kinds are strictly one-in one-out.
    """

    kind: str                      # a key of ELEMENT_KINDS
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    phi: float = 0.0               # phase shifters
    ticks: int = 0                 # delay / split intervals, in grid ticks
    convention: BsConvention = BsConvention.SYMMETRIC
    noise: NoiseParams | None = None

    def __post_init__(self):
        if self.kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        lo, hi = (1, 2) if self.kind in ("pbs", "bs") else (1, 1)
        if not (lo <= len(self.ins) <= hi and lo <= len(self.outs) <= hi):
            raise ValueError(f"{self.kind}: bad arity {len(self.ins)} in / {len(self.outs)} out")
        if len(set(self.ins)) != len(self.ins) or len(set(self.outs)) != len(self.outs):
            raise ValueError(f"{self.kind}: repeated channel label")
        if not math.isfinite(self.phi):
            raise ValueError(f"{self.kind}: phase must be finite, got {self.phi!r}")
        if not isinstance(self.convention, BsConvention):
            raise ValueError(f"{self.kind}: convention must be a BsConvention, got {self.convention!r}")
        ticks = operator.index(self.ticks)
        if self.kind == "delay" and ticks < 0:
            raise ValueError("delay must be >= 0 ticks")
        if self.kind == "split" and ticks < 1:
            raise ValueError("split interval must be >= 1 tick")


def _apply_pbs(amps: dict, in1, in2, out1, out2) -> dict:
    """Route H straight through (in1->out1, in2->out2) and cross V.

    No reflection phase is applied: the element is a permutation of modes.
    ``None`` ports are vacuum inputs or dark outputs.
    """
    # the kernels skip an exact zero and add get(mode, 0j) + a, also where they
    # pass a mode through: 0j + a turns a -0.0 part into +0.0, as it always has
    out = {}
    get = out.get
    for mode, a in amps.items():
        if a != 0j:
            ch, pol, tick = mode
            if ch == in1:
                mode = (out1 if pol is H else out2, pol, tick)
            elif ch == in2:
                mode = (out2 if pol is H else out1, pol, tick)
            if mode[0] is not None:
                out[mode] = get(mode, 0j) + a
    return out


def _apply_bs(amps: dict, in1, in2, out1, out2, convention: BsConvention) -> dict:
    """50/50 splitter under the chosen phase convention, slot by slot."""
    # in1 -> out2 reflects off the second surface under the surface-phase
    # convention, hence the sign difference.
    r21 = 1j * _INV_SQRT2 if convention is BsConvention.SYMMETRIC else -1j * _INV_SQRT2
    surface = convention is BsConvention.SURFACE_PHASES
    out = {}
    get = out.get
    pairs: dict = {}
    for mode, a in amps.items():
        ch, pol, tick = mode
        if ch == in1:
            pairs.setdefault((pol, tick), [0j, 0j])[0] = a
        elif ch == in2:
            pairs.setdefault((pol, tick), [0j, 0j])[1] = a
        elif a != 0j:
            out[mode] = get(mode, 0j) + a
    for (pol, tick), (a1, a2) in pairs.items():
        if surface and a1 != 0j and a2 != 0j:
            raise ConventionError(
                f"surface-phase splitter hit occupied inputs {in1!r} and {in2!r} "
                f"at the same slot (pol={pol.value}, tick={tick})"
            )
        if out1 is not None:
            a = a1 * _INV_SQRT2 + a2 * (1j * _INV_SQRT2)
            if a != 0j:
                mode = (out1, pol, tick)
                out[mode] = get(mode, 0j) + a
        if out2 is not None:
            a = a1 * r21 + a2 * _INV_SQRT2
            if a != 0j:
                mode = (out2, pol, tick)
                out[mode] = get(mode, 0j) + a
    return out


def _apply_hwp(amps: dict, channel: str) -> dict:
    """Swap H and V on a channel at every tick (the bit-flip plate)."""
    return {
        ((channel, V if mode[1] is H else H, mode[2]) if mode[0] == channel else mode): a
        for mode, a in amps.items()
    }


def _apply_phase(amps: dict, channel: str, phi: float) -> dict:
    """Multiply every amplitude on a channel by exp(i*phi)."""
    w = cmath.exp(1j * phi)
    return {m: (a * w if m[0] == channel else a) for m, a in amps.items()}


def _apply_delay(amps: dict, channel: str, ticks: int) -> dict:
    """Shift every amplitude on a channel later by a tick count >= 0; 0 returns ``amps``."""
    if ticks == 0:
        return amps
    return {
        ((channel, mode[1], mode[2] + ticks) if mode[0] == channel else mode): a
        for mode, a in amps.items()
    }


def _apply_timebin_splitter(amps: dict, channel: str, ticks: int) -> dict:
    """Split each wavepacket into equal halves at t and t + ticks.

    Ideal primitive: unlike a physical unbalanced interferometer it has no
    second output port, so the full norm stays on the channel. It is an
    isometry as long as the shifted halves land on empty bins, which holds
    whenever ``ticks`` is at least the occupied span; overlapping halves
    add and interfere.
    """
    out = {}
    get = out.get
    for mode, a in amps.items():
        if mode[0] == channel:
            half = a * _INV_SQRT2
            if half != 0j:
                out[mode] = get(mode, 0j) + half
                mode = (channel, mode[1], mode[2] + ticks)
                out[mode] = get(mode, 0j) + half
        elif a != 0j:
            out[mode] = get(mode, 0j) + a
    return out


def _rename_channel(amps: dict, old: str, new: str) -> dict:
    if old == new:
        return amps
    return {((new, pol, tick) if ch == old else (ch, pol, tick)): a for (ch, pol, tick), a in amps.items()}

