#!/usr/bin/env python3
"""timebinsim benchmark: Monte Carlo workloads run one job at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload qkd-fresh-s1 --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each job starts when the previous
one has finished and its output has been checked. Job ``i`` is seeded
``seed + i``. Job 0 is a warm-up and is not timed; the qkd workloads
first also run their fingerprint seeds (see ``workloads.FINGERPRINTS``).

``--trace 0`` times jobs for ``--seconds`` and reports the end-to-end
metrics. ``--trace 1`` spends half the time untraced and half traced
(see ``spans.Tracer``) and reports the per-layer metrics. Human-readable
lines come first; the last line of standard output is the JSON result.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import calibration
from spans import SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch output (the scaling CSV, span dumps); listed in .gitignore.
OUT = ROOT / ".perfbench_out"

#: correction_table calls np.linalg.svd; keep BLAS to the one core a job uses.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: Fresh processes timed for setup_s; one more runs first, untimed, to
#: warm the file cache and write bytecode.
SETUP_PROCESSES = 15

#: job_tail_ms is the highest percentile with at least this many jobs
#: beyond it, so a phase runs at least this many jobs plus one.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


PER_LAYER_UNITS = {
    **{f"{span}.{metric}": unit for span in SPAN_NAMES for metric, unit in (
        ("calls_per_item", "calls/item"), ("us_per_call", "us"), ("self_frac", "ratio"))},
    "qkd.hit_ratio": "ratio",
    "qkd.gates_scanned_per_pulse": "gates/pulse",
    "circuits.modes_out_per_call": "modes/call",
    "elements.amps_in_per_item": "amps/item",
    "trace.overhead_frac": "ratio",
}


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, count beyond) of the highest percentile that
    still has at least ``beyond`` samples above it."""
    ordered = sorted(values)
    if len(ordered) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(ordered)}")
    index = len(ordered) - beyond - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


class Runner:
    """Runs and checks jobs of one workload; a failure is counted, never raised."""

    def __init__(self, workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[str] = []

    def job(self, seed: int, reference: dict | None = None):
        """Run one job; returns (seconds, output or None if it raised).

        ``reference`` maps seeds to BB84 counts from another phase; a
        difference fails the job.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            output = self.workload.job(seed, self.scratch)
        except Exception:
            elapsed = perf_counter() - start
            self.failures.append(f"seed {seed}: raised\n{traceback.format_exc()}")
            return elapsed, None
        elapsed = perf_counter() - start
        try:
            reason = self.workload.check(seed, output)
        except Exception:
            reason = f"check raised\n{traceback.format_exc()}"
        if reason is None and reference is not None and seed in reference:
            counts = self.workload.bb84_counts(output)
            if counts != reference[seed]:
                reason = f"traced counts {counts} differ from untraced {reference[seed]}"
        if reason is not None:
            self.failures.append(f"seed {seed}: {reason}")
        return elapsed, output

    def phase(self, first_seed: int, seconds: float, tracer: Tracer | None = None,
              reference: dict | None = None) -> tuple[list[float], list[float], dict]:
        """Timed jobs from ``first_seed`` on until ``seconds`` have passed.

        Returns the job durations scaled to nominal machine speed (see
        calibration.py), the raw wall-clock durations and, for BB84
        workloads, the counts per seed.
        """
        scaled: list[float] = []
        raw: list[float] = []
        counts: dict = {}
        deadline = perf_counter() + seconds
        seed = first_seed
        before = calibration.probe()
        while len(raw) <= TAIL_BEYOND or perf_counter() < deadline:
            if tracer is not None:
                tracer.job = seed
            elapsed, output = self.job(seed, reference)
            after = calibration.probe()
            scale = calibration.NOMINAL_SECONDS / ((before + after) / 2)
            before = after
            if tracer is not None:
                tracer.close_job(scale)
            scaled.append(elapsed * scale)
            raw.append(elapsed)
            if output is not None and self.workload.bb84_counts is not None:
                counts[seed] = self.workload.bb84_counts(output)
            seed += 1
        return scaled, raw, counts


def measure(workload, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """Warm up, run the timed phase(s) and compute the metrics.

    Returns {"metrics": {name: (value, note)}, "attempted", "failures",
    "spans"}; ``spans`` holds the first traced job's spans, or None.
    """
    runner = Runner(workload, scratch)
    for fingerprint_seed in workload.fingerprints:
        runner.job(fingerprint_seed)
    runner.job(seed)

    if not trace:
        durations, raw, _ = runner.phase(seed + 1, seconds)
        value, percentile, beyond = tail(durations)
        metrics = {
            "items_per_s": (workload.items_per_job * len(durations) / sum(durations),
                            f"wall {workload.items_per_job * len(raw) / sum(raw):.6g}"),
            "job_p50_ms": (statistics.median(durations) * 1e3,
                           f"wall {statistics.median(raw) * 1e3:.6g}; {len(durations)} jobs"),
            "job_tail_ms": (value * 1e3, f"wall {tail(raw)[0] * 1e3:.6g}; "
                            f"p{percentile:.1f}, {beyond} of {len(durations)} jobs beyond"),
        }
        return {"metrics": metrics, "attempted": runner.attempted,
                "failures": runner.failures, "spans": None}

    plain, _, plain_counts = runner.phase(seed + 1, seconds / 2)
    with Tracer() as tracer:
        traced, _, traced_counts = runner.phase(seed + 1, seconds / 2, tracer, plain_counts)
    items = workload.items_per_job * len(traced)
    metrics = {}
    for span in SPAN_NAMES:
        calls, total, own = tracer.totals.get(span, (0, 0.0, 0.0))
        metrics[span + ".calls_per_item"] = (calls / items, f"{calls} calls")
        metrics[span + ".us_per_call"] = (total / calls * 1e6 if calls else 0.0, "")
        metrics[span + ".self_frac"] = (own / tracer.root_seconds, "")
    detected = sum(c[0] for c in traced_counts.values())
    plain_rate = workload.items_per_job * len(plain) / sum(plain)
    traced_rate = items / sum(traced)
    metrics.update({
        "qkd.hit_ratio": (detected / items if workload.bb84_counts else 0.0, f"{detected} detected"),
        "qkd.gates_scanned_per_pulse": (tracer.counts["gates_scanned"] / items, ""),
        "circuits.modes_out_per_call": (
            tracer.counts["modes_out"] / tracer.counts["runs"] if tracer.counts["runs"] else 0.0,
            f"{tracer.counts['runs']} runs"),
        "elements.amps_in_per_item": (tracer.counts["amps_in"] / items, "computed op count"),
        "trace.overhead_frac": (1.0 - traced_rate / plain_rate,
                                f"{traced_rate:.6g} traced vs {plain_rate:.6g} untraced items/s"),
    })
    return {"metrics": metrics, "attempted": runner.attempted,
            "failures": runner.failures, "spans": tracer.first_job_spans}


def measure_setup(workload) -> tuple[list[float], list[float]]:
    """Seconds to import timebinsim and build the workload's circuits and
    correction tables, once per fresh process: (scaled, raw) per process."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
               *(str(s) for s in workload.setup_stages)]
    scaled, raw = [], []
    for _ in range(SETUP_PROCESSES + 1):
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed, probe = (float(x) for x in proc.stdout.split())
        scaled.append(elapsed * calibration.NOMINAL_SECONDS / probe)
        raw.append(elapsed)
    return scaled[1:], raw[1:]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_record() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "timebinsim" / "__init__.py").is_file():
        print(f"error: no timebinsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import timebinsim
    if not Path(timebinsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported timebinsim from {timebinsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    record = run_record()
    setup = None if args.trace else measure_setup(workload)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), Path(scratch))

    metrics = result["metrics"]
    if args.trace:
        units = PER_LAYER_UNITS
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": result["spans"],
        }))
        print(f"spans of the first traced job: {spans_path}")
    else:
        units = END_TO_END_UNITS
        scaled, raw = setup
        metrics["setup_s"] = (statistics.median(scaled), f"wall {statistics.median(raw):.6g}; "
                              f"median of {len(scaled)} fresh processes")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "")

    attempted = result["attempted"]
    failed = len(result["failures"])
    for reason in result["failures"][:5]:
        print(f"failed job: {reason}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in units.items():
        value, note = metrics[name]
        print(f"  {name:<44} {value:14.6g} {unit:<11} {note}")
    print(f"  {'failed_frac':<44} {failed / attempted:14.6g} {'ratio':<11} "
          f"{failed} failed of {attempted} attempted")
    record["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
