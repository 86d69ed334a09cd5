"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
(The package's own suite under tests/ does not collect this file.)
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from timebinsim import qkd  # noqa: E402
from timebinsim.analysis import Correction  # noqa: E402
from timebinsim.state import PhotonState  # noqa: E402

ELEMENTS = {f"elements.{k}" for k in ("pbs", "bs", "hwp", "phase", "delay", "split", "rename")}
COMMON = ELEMENTS | {"circuits.run.encoder", "circuits.run.decoder", "noise.apply",
                     "noise.sample_noise", "analysis.correction_table", "state.from_clean"}
QKD = COMMON | {"qkd.simulate_bb84", "qkd.uniform", "qkd.detection"}

#: Spans each workload must reach, from the layer table in README.md.
EXPECTED_SPANS = {
    "qkd-fresh-s1": QKD,
    "qkd-drift-s4": QKD,
    "sweep-general-s3": COMMON | {"analysis.success_probability_sweep", "analysis.analyze",
                                  "state.random_qubit"},
    "scaling-s1to6": COMMON | {"cli.main", "analysis.analyze", "state.random_qubit"},
}


def test_tail_is_highest_percentile_with_ten_jobs_beyond():
    assert run.tail(range(100, 0, -1)) == (90, 90.0, 10)
    value, percentile, beyond = run.tail(range(11))
    assert (value, beyond) == (0, 10) and percentile == pytest.approx(100 / 11)
    assert run.tail(range(1, 41), beyond=4) == (36, 90.0, 4)
    with pytest.raises(ValueError):
        run.tail(range(10))


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["root", 0.0, 10.0, None, 7],
        ["a", 1.0, 4.0, 0, 7],
        ["c", 2.0, 3.0, 1, 7],    # grandchild: counted against a, not root
        ["b", 5.0, 6.5, 0, 7],
        ["a", 11.0, 12.0, None, 8],
    ]
    assert spans.self_times(recorded) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    totals = spans.summarize(recorded)
    assert totals["root"] == pytest.approx([1, 10.0, 5.5])
    assert totals["a"] == pytest.approx([2, 4.0, 3.0])


def _namespaces():
    modules = [m for name, m in sys.modules.items() if name.startswith("timebinsim")]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    snapshot.update({("PhotonState", k): v for k, v in vars(PhotonState).items()})
    return snapshot


def test_tracer_restores_every_attribute_even_when_the_job_raises():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            during = _namespaces()
            changed = {k for k in before if during[k] is not before[k]}
            assert len(changed) == len(tracer._saved) > 20
            raise RuntimeError("job failed")
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_traced_job_reaches_its_layers_and_keeps_its_output(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    plain = workload.job(0, tmp_path)
    with spans.Tracer() as tracer:
        tracer.job = 0
        traced = workload.job(0, tmp_path)
        tracer.close_job()
    assert workload.check(0, traced) is None
    if workload.bb84_counts is not None:
        assert workload.bb84_counts(traced) == workload.bb84_counts(plain)
        assert tracer.counts["gates_scanned"] > 0
    reached = {span for span, (calls, _, _) in tracer.totals.items() if calls > 0}
    assert EXPECTED_SPANS[name] <= reached
    assert reached <= set(spans.SPAN_NAMES)
    assert tracer.root_seconds > 0
    assert tracer.counts["amps_in"] > 0 and tracer.counts["modes_out"] > 0
    assert [s for s in tracer.first_job_spans if s[3] is None][0][0] in spans.SPAN_NAMES


def test_fingerprints_match_this_commit(tmp_path):
    for name, seeds in workloads.FINGERPRINTS.items():
        workload = workloads.WORKLOADS[name]
        for seed, expected in seeds.items():
            assert workload.bb84_counts(workload.job(seed, tmp_path)) == expected


def test_a_wrong_correction_is_counted_as_failed_jobs_not_a_crash(monkeypatch, tmp_path):
    original = qkd._gate_map
    flipped = {
        Correction.IDENTITY: Correction.BIT_FLIP,
        Correction.BIT_FLIP: Correction.IDENTITY,
        Correction.PHASE_FLIP: Correction.BIT_PHASE_FLIP,
        Correction.BIT_PHASE_FLIP: Correction.PHASE_FLIP,
    }

    def broken_gate_map(table, encoder, decoder):
        gates = original(table, encoder, decoder)
        key = min(gates)
        gates[key] = flipped[gates[key]]
        return gates

    monkeypatch.setattr(qkd, "_gate_map", broken_gate_map)
    result = run.measure(workloads.WORKLOADS["qkd-fresh-s1"], seed=0, seconds=0.0,
                         trace=False, scratch=tmp_path)
    failed = len(result["failures"])
    assert 0 < failed <= result["attempted"]
    assert any("sifted errors" in reason for reason in result["failures"])
    assert result["metrics"]["items_per_s"][0] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_exactly_the_declared_metrics(trace, section, capsys):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "scaling-s1to6", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 11
    assert {m["name"]: m["unit"] for m in declared[section]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
