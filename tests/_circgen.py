"""Random circuits, corrupted texts, and element chains for property tests."""

import math

import numpy as np

from timebinsim.circuits import Circuit, apply
from timebinsim.elements import BsConvention, Element
from timebinsim.noise import HAAR, sample_noise


def random_lossless_chain(rng, state, channels):
    """Drive a state through random elements used in their lossless regime."""
    for _ in range(int(rng.integers(2, 10))):
        pick = rng.integers(0, 6)
        ch = str(rng.choice(channels))
        other = str(rng.choice([c for c in channels if c != ch]))
        if pick == 0:
            el = Element("hwp", (ch,), (ch,))
        elif pick == 1:
            el = Element("phase", (ch,), (ch,), phi=float(rng.uniform(0, 2 * math.pi)))
        elif pick == 2:
            el = Element("delay", (ch,), (ch,), ticks=int(rng.integers(0, 5)))
        elif pick == 3:
            # splitter interval above the occupied span, where it is an isometry
            ticks_on = [t for (c, _p, t) in state.amplitudes if c == ch]
            span = max(ticks_on) - min(ticks_on) + 1 if ticks_on else 1
            el = Element("split", (ch,), (ch,), ticks=span + int(rng.integers(0, 3)))
        elif pick == 4:
            el = Element("pbs", (ch, other), (ch, other))
        else:
            el = Element("bs", (ch, other), (ch, other), convention=BsConvention.SYMMETRIC)
        state = apply(el, state)
    return state


def random_circuit(rng: np.random.Generator) -> Circuit:
    fresh = iter(f"c{i}" for i in range(1, 200))
    live = ["c0"]
    elements = []
    for _ in range(int(rng.integers(1, 12))):
        kind = rng.choice(["hwp", "phase", "delay", "split", "noise", "bs", "pbs"])
        if kind in ("hwp", "phase", "delay", "split", "noise"):
            src = str(rng.choice(live))
            dst = next(fresh) if rng.random() < 0.3 else src
            extra = {}
            if kind == "phase":
                extra["phi"] = float(rng.normal())
            elif kind == "delay":
                extra["ticks"] = int(rng.integers(0, 9))
            elif kind == "split":
                extra["ticks"] = int(rng.integers(1, 9))
            elif kind == "noise":
                extra["noise"] = sample_noise(HAAR, int(rng.integers(0, 1000)))
            elements.append(Element(kind, (src,), (dst,), **extra))
            live[live.index(src)] = dst
        else:
            conv = BsConvention.SYMMETRIC if rng.random() < 0.5 else BsConvention.SURFACE_PHASES
            extra = {"convention": conv} if kind == "bs" else {}
            if len(live) >= 2 and rng.random() < 0.4:
                i, j = rng.choice(len(live), size=2, replace=False)
                src = (live[int(i)], live[int(j)])
                if rng.random() < 0.5:
                    dst = (next(fresh),)          # polarizing or 50/50 merge
                else:
                    dst = (next(fresh), next(fresh))
            else:
                src = (str(rng.choice(live)),)
                dst = (next(fresh), next(fresh))
            elements.append(Element(kind, src, dst, **extra))
            live = [c for c in live if c not in src] + list(dst)
    return Circuit("c0", tuple(elements), tuple(live))


def corrupt_text(text: str, rng: np.random.Generator) -> str:
    """One random mutation that should surface as a diagnostic, not a crash."""
    lines = text.splitlines()
    element_rows = [i for i, l in enumerate(lines) if not l.startswith(("input", "output"))]
    mutation = int(rng.integers(0, 8))
    if mutation == 0 and element_rows:
        i = int(rng.choice(element_rows))
        lines[i] = "zzz " + lines[i].split(" ", 1)[1]
    elif mutation == 1 and element_rows:
        i = int(rng.choice(element_rows))
        lines[i] = lines[i].replace("->", "")
    elif mutation == 2 and element_rows:
        i = int(rng.choice(element_rows))
        lines[i] = lines[i] + " ghost_channel"
    elif mutation == 3:
        lines.insert(1, "input another")
    elif mutation == 4:
        lines.insert(1, lines[-1])  # early output line
    elif mutation == 5 and element_rows:
        i = int(rng.choice(element_rows))
        lines[i] = lines[i].split("=")[0] + "=not_a_number" if "=" in lines[i] else lines[i] + " ticks=oops"
    elif mutation == 6:
        lines[0] = "input"
    else:
        i = int(rng.choice(element_rows)) if element_rows else 0
        head, _, tail = lines[i].partition(" ")
        lines[i] = f"{head} never_made {tail.split(' ', 1)[1] if ' ' in tail else tail}"
    return "\n".join(lines) + "\n"
