"""Machine-speed probe that the benchmark's timings are scaled by.

On a small shared virtual machine the speed of one core drifts by up to
half over spans of seconds (a neighbour on the sibling hardware thread,
frequency changes), and CPU time drifts with it, so run-to-run spreads of
raw wall time reach 20-25 % of the median. The benchmark therefore times
this fixed kernel right before and after every job and reports each job's
time multiplied by ``NOMINAL_SECONDS / probe``: the time the job would
have taken on a machine that runs the kernel in ``NOMINAL_SECONDS``. Raw
wall times are printed next to every scaled figure.

The kernel does what the sparse interpreter does (rebuild a dict keyed by
mode tuples while multiplying complex amplitudes), so contention slows it
and the program alike. Nothing here imports timebinsim.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Typical probe time between jobs on the machine the seed baseline was
#: recorded on (2-core Intel Xeon VM, Python 3.11.7), so scaled and raw
#: times read alike there. Only a unit: it fixes the scale of reported
#: times and must not change between two commits that are compared.
NOMINAL_SECONDS = 1.0e-3

_KEYS = tuple(("c", i & 1, i) for i in range(800))


def _kernel():
    amps = {key: complex(key[2], 1.0) for key in _KEYS}
    for _ in range(6):
        amps = {(ch, pol, tick + 1): a * 0.5j for (ch, pol, tick), a in amps.items()}
    return amps


def probe() -> float:
    """Median seconds of three kernel runs, measured now."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
