"""Outside-in tracing of timebinsim's layers.

Nothing in the package is edited. A ``Tracer`` replaces, for the
duration of a ``with`` block, the names each module calls into its
neighbours with timing wrappers, in the *calling* module's namespace
(``timebinsim.circuits._apply_bs`` is what ``circuits.run`` dispatches
to, ``timebinsim.qkd.run`` is what ``simulate_bb84`` calls), and puts
every original back on exit, also when the block raises.

Each call becomes a span ``[name, start, end, parent, job]``; ``parent``
is the index of the enclosing span in the same list, or ``None`` for a
job's root call. Spans are kept in memory; ``close_job`` folds one job's
spans into per-name totals, so a long traced run holds only one job's
spans at a time plus the first job's, which the caller writes out.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

#: Every span name the tracer can emit, in report order.
SPAN_NAMES = (
    "cli.main",
    "qkd.simulate_bb84",
    "analysis.success_probability_sweep",
    "analysis.correction_table",
    "analysis.analyze",
    "noise.sample_noise",
    "noise.apply",
    "qkd.uniform",
    "qkd.detection",
    "circuits.run.encoder",
    "circuits.run.decoder",
    "elements.pbs",
    "elements.bs",
    "elements.hwp",
    "elements.phase",
    "elements.delay",
    "elements.split",
    "elements.rename",
    "state.random_qubit",
    "state.from_clean",
)

#: circuits' private element functions -> span suffix.
_ELEMENT_ATTRS = (
    ("_apply_pbs", "pbs"),
    ("_apply_bs", "bs"),
    ("_apply_hwp", "hwp"),
    ("_apply_phase", "phase"),
    ("_apply_delay", "delay"),
    ("_apply_timebin_splitter", "split"),
    ("_rename_channel", "rename"),
)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Jobs run on one thread, so children nest inside their parent and
    never overlap each other.
    """
    result = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            result[parent] -= end - start
    return result


def summarize(spans) -> dict[str, list]:
    """name -> [calls, total seconds, self seconds] over a list of spans."""
    totals: dict[str, list] = {}
    for (name, start, end, _parent, _job), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    return totals


class Tracer:
    """Context manager that times calls into timebinsim's layers.

    ``counts`` holds the work counters measured at the same boundaries:
    ``amps_in`` (amplitudes handed to element functions), ``modes_out``
    (amplitudes leaving ``circuits.run``) and ``gates_scanned``
    (detection events the BB84 sampler examined).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.first_job_spans: list[list] | None = None
        self.totals: dict[str, list] = {}
        self.root_seconds = 0.0
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, name, after=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                      stack[-1] if stack else None, self.job]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            return after(args, result) if after is not None else result

        return traced

    def _patch(self, owner, attr, name, after=None):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, after))
        else:
            replacement = self._wrap(original, name, after)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def close_job(self, scale: float = 1.0):
        """Fold the finished job's spans into the totals and drop them.

        Durations are multiplied by ``scale`` (see calibration.py) before
        they are added; the spans kept for writing out stay raw.
        """
        if self.first_job_spans is None:
            self.first_job_spans = [list(s) for s in self.spans]
        for name, (calls, total, own) in summarize(self.spans).items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total * scale
            entry[2] += own * scale
        self.root_seconds += scale * sum(e - s for _, s, e, parent, _ in self.spans if parent is None)
        self.spans.clear()

    # -- counters --------------------------------------------------------

    def _count_amps_in(self, args, result):
        self.counts["amps_in"] += len(args[0])
        return result

    def _count_modes_out(self, args, result):
        self.counts["runs"] += 1
        self.counts["modes_out"] += len(result.amplitudes)
        return result

    def _count_scanned(self, args, events):
        counts = self.counts

        def scanned():
            for event in events:
                counts["gates_scanned"] += 1
                yield event

        return scanned()

    # -- install / restore -------------------------------------------------

    def __enter__(self):
        from timebinsim import analysis, circuits, cli, qkd
        from timebinsim.circuits import CHANNEL
        from timebinsim.state import PhotonState

        def run_name(args):
            return "circuits.run.decoder" if args[0].input == CHANNEL else "circuits.run.encoder"

        try:
            self._patch(cli, "main", "cli.main")
            self._patch(qkd, "simulate_bb84", "qkd.simulate_bb84")
            self._patch(analysis, "success_probability_sweep", "analysis.success_probability_sweep")
            for module in (qkd, analysis, cli):
                self._patch(module, "correction_table", "analysis.correction_table")
                self._patch(module, "sample_noise", "noise.sample_noise")
                self._patch(module, "run", run_name, self._count_modes_out)
            for module in (analysis, cli):
                self._patch(module, "analyze", "analysis.analyze")
                self._patch(module, "random_qubit", "state.random_qubit")
            for module in (qkd, analysis, circuits):
                self._patch(module, "_apply_collective_noise", "noise.apply")
            self._patch(cli, "apply_collective_noise", "noise.apply")
            self._patch(qkd, "_uniform", "qkd.uniform")
            self._patch(qkd, "_detection_events", "qkd.detection", self._count_scanned)
            for attr, kind in _ELEMENT_ATTRS:
                self._patch(circuits, attr, "elements." + kind, self._count_amps_in)
            self._patch(PhotonState, "_from_clean", "state.from_clean")
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        """Put back every replaced attribute, most recent first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
