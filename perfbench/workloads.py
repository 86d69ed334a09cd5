"""The benchmark's four workloads: what one job runs and how it is checked.

A job is one call into the workload's entry point at a fixed input size,
seeded by the benchmark; the program sees only that seed. Entry points
are looked up on their module at call time, so a ``spans.Tracer`` that
replaces them is seen. Every check is an oracle from the paper's claims,
at the tolerances the test suite uses, never a value read back from the
program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from timebinsim import analysis, cli, qkd
from timebinsim.circuits import DecoderSpec, encoder_spec_for
from timebinsim.noise import GENERAL, HAAR

#: Exact (detected, sifted, errors) per seed, recorded at the commit that
#: introduced the benchmark. The BB84 counts must stay identical across
#: optimisations; a mismatch fails the job.
FINGERPRINTS = {
    "qkd-fresh-s1": {0: (768, 382, 0), 1: (758, 390, 0), 2: (752, 385, 0)},
    "qkd-drift-s4": {0: (107, 55, 0), 1: (131, 68, 0), 2: (118, 55, 0)},
}

#: A job fails when its detection rate is further than this many binomial
#: standard deviations from eta * (N-1)/N. Deterministic per seed.
DETECTION_SIGMAS = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    items_per_job: int
    #: cascade depths whose circuits and correction table set-up builds
    setup_stages: tuple[int, ...]
    #: (seed, scratch directory) -> the program's output
    job: Callable[[int, Path], object]
    #: (seed, output) -> None when correct, else the reason it is not
    check: Callable[[int, object], str | None]
    #: BB84 output -> (detected, sifted, errors); None for other workloads
    bb84_counts: Callable[[object], tuple] | None = None
    #: seed -> recorded BB84 counts, checked by ``check``; run before timing
    fingerprints: dict = field(default_factory=dict)


def _qkd_workload(name: str, pulses: int, stages: int, refresh_every: int, eta: float) -> Workload:
    n = 2 ** (stages + 1)
    p = eta * (n - 1) / n
    sigma = math.sqrt(p * (1.0 - p) / pulses)
    fingerprints = FINGERPRINTS[name]

    def job(seed: int, scratch: Path):
        return qkd.simulate_bb84(qkd.Bb84Config(
            pulses=pulses, stages=stages, ensemble=HAAR,
            refresh_every=refresh_every, eta=eta, seed=seed,
        ))

    def check(seed: int, stats) -> str | None:
        if stats.sent != pulses:
            return f"sent {stats.sent} pulses, asked for {pulses}"
        if stats.errors != 0:
            return f"{stats.errors} sifted errors, expected exactly 0"
        rate = stats.detected / pulses
        if abs(rate - p) > DETECTION_SIGMAS * sigma:
            return f"detection rate {rate:.6f} is not within {DETECTION_SIGMAS:g} sigma of {p:.6f}"
        expected = fingerprints.get(seed)
        got = (stats.detected, stats.sifted, stats.errors)
        if expected is not None and got != expected:
            return f"counts {got} differ from the recorded {expected} for seed {seed}"
        return None

    return Workload(name, pulses, (stages,), job, check,
                    bb84_counts=lambda s: (s.detected, s.sifted, s.errors),
                    fingerprints=fingerprints)


def _sweep_workload() -> Workload:
    stages, samples = 3, 100
    n = 2 ** (stages + 1)

    def job(seed: int, scratch: Path):
        return analysis.success_probability_sweep(
            encoder_spec_for(stages), DecoderSpec(0), GENERAL, samples, seed
        )

    def check(seed: int, result) -> str | None:
        if len(result.samples) != samples:
            return f"{len(result.samples)} samples, asked for {samples}"
        worst = max(abs(s.success - (n - 1) / n) for s in result.samples)
        if not worst <= 1e-9:
            return f"success deviates from (N-1)/N by {worst:.3e}"
        if not result.max_deviation <= 1e-9:
            return f"reported max_deviation {result.max_deviation:.3e} > 1e-9"
        fidelity = min(s.min_fidelity for s in result.samples)
        if not fidelity >= 1.0 - 1e-12:
            return f"min fidelity {fidelity!r} < 1 - 1e-12"
        return None

    return Workload("sweep-general-s3", samples, (stages,), job, check)


def _scaling_workload() -> Workload:
    max_stages = 6

    def job(seed: int, scratch: Path):
        out = scratch / "scaling.csv"
        out.unlink(missing_ok=True)  # a job that writes nothing must not pass on the last table
        code = cli.main(["scaling", "--max-stages", str(max_stages), "--seed", str(seed),
                         "--out", str(out)])
        return code, out

    def check(seed: int, output) -> str | None:
        code, path = output
        if code != 0:
            return f"exit code {code}"
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[:1] != ["n,N,wavepackets,success"] or len(lines) != max_stages + 1:
            return f"unexpected table layout: {lines[:2]!r}, {len(lines)} lines"
        for expected_n, line in enumerate(lines[1:], start=1):
            n, big_n, packets, success = line.split(",")
            want = 2 ** (expected_n + 1)
            if (int(n), int(big_n), int(packets)) != (expected_n, want, 2 * want):
                return f"row {line!r} is not stage {expected_n} with N = {want}"
            if not abs(float(success) - (want - 1) / want) <= 1e-9:
                return f"row {line!r}: success is not (N-1)/N within 1e-9"
        return None

    return Workload("scaling-s1to6", 1, tuple(range(1, max_stages + 1)), job, check)


WORKLOADS = {
    w.name: w
    for w in (
        _qkd_workload("qkd-fresh-s1", pulses=1000, stages=1, refresh_every=1, eta=1.0),
        _qkd_workload("qkd-drift-s4", pulses=200, stages=4, refresh_every=1000, eta=0.6),
        _sweep_workload(),
        _scaling_workload(),
    )
}
