import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import timebinsim
from test_cli_bytes import CASES, EXPECTED
from timebinsim import cli, noise
from timebinsim.analysis import analyze, correction_table, total_success
from timebinsim.cli import main
from timebinsim.circfile import print_circuit
from timebinsim.circuits import CHANNEL, MAX_MODES, DecoderSpec, EncoderSpec, build_encoder
from timebinsim.elements import BsConvention
from timebinsim.noise import HAAR, random_qubit, sample_noise
from timebinsim.state import PhotonState


def test_golden_default_passes(capsys):
    assert main(["golden"]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 3


def test_golden_symmetric_passes(capsys):
    assert main(["golden", "--convention", "symmetric"]) == 0
    assert capsys.readouterr().out.count("[pass]") == 3


@pytest.mark.parametrize("convention", ["surface", "symmetric"])
def test_golden_corrupted_circuit_names_encode_check(convention, tmp_path, capsys):
    # a wrong long-arm phase is a Z rotation of the qubit, which no phase may quotient out
    circuit = build_encoder(EncoderSpec(1, BsConvention(convention)))
    text = print_circuit(circuit).replace("phi=4.71238898038469", "phi=4.0")
    assert text != print_circuit(circuit)
    bad = tmp_path / "bad.circ"
    bad.write_text(text)
    assert main(["golden", "--encoder-circ", str(bad), "--convention", convention]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "failed checks: encode"
    assert "encode: max amplitude deviation" in out and "[FAIL]" in out


def test_golden_reports_a_convention_violation_as_a_failed_encode_check(tmp_path, capsys):
    # both arms meet a surface-phase splitter in one slot; the other checks still run
    bad = tmp_path / "violating.circ"
    bad.write_text("input in\npbs in -> s l\nhwp l -> l\nbs s l -> 1 2 conv=surface\n"
                   "pbs 1 2 -> chan\noutput chan\n")
    assert main(["golden", "--encoder-circ", str(bad)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("check encode: error: surface-phase splitter")
    assert out.count("[pass]") == 2
    assert out.splitlines()[-1] == "failed checks: encode"


def test_golden_unparseable_circuit_fails_encode_check(tmp_path, capsys):
    bad = tmp_path / "broken.circ"
    bad.write_text("input in\nwobble in -> out\noutput out\n")
    assert main(["golden", "--encoder-circ", str(bad)]) == 1
    assert "encode" in capsys.readouterr().out


def test_golden_counts_a_nan_deviation_as_a_failed_check(monkeypatch, capsys):
    expected_encoded = cli._expected_encoded

    def with_a_nan(qubit, spec):
        state = expected_encoded(qubit, spec)
        return PhotonState({**state.amplitudes, (CHANNEL, "H", 0): complex("nan")})

    monkeypatch.setattr(cli, "_expected_encoded", with_a_nan)
    assert main(["golden", "--convention", "symmetric"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out and out.splitlines()[-1] == "failed checks: encode"


def test_golden_fails_noise_branches_on_a_nan_after_the_first_draw(monkeypatch, capsys):
    # call 1 is the encode check, calls 2-11 the ten noise-branch draws
    calls = []
    original = PhotonState.max_deviation

    def nan_on_third_call(self, other):
        calls.append(1)
        return float("nan") if len(calls) == 3 else original(self, other)

    monkeypatch.setattr(PhotonState, "max_deviation", nan_on_third_call)
    assert main(["golden"]) == 1
    out = capsys.readouterr().out
    assert "noise-branches: max amplitude deviation nan [FAIL]" in out
    assert out.splitlines()[-1] == "failed checks: noise-branches"


def test_golden_missing_circuit_is_usage_error(capsys):
    assert main(["golden", "--encoder-circ", "/no/such/file.circ"]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_csv_layout_and_determinism(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--samples", "5", "--seed", "12", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0].startswith("d1_re,") and lines[0].endswith("success,min_fidelity")
    assert len(lines) == 7  # header + 5 samples + summary
    assert lines[-1].startswith("summary,")
    for line in lines[1:-1]:
        cells = line.split(",")
        assert len(cells) == 10
        assert abs(float(cells[8]) - 0.75) < 1e-9
    assert main(args) == 0
    assert out.read_bytes() == first  # byte-identical rerun


def test_sweep_json_same_numbers(tmp_path):
    csv_path = tmp_path / "s.csv"
    json_path = tmp_path / "s.json"
    assert main(["sweep", "--samples", "3", "--seed", "5", "--out", str(csv_path)]) == 0
    assert main(["sweep", "--samples", "3", "--seed", "5", "--format", "json", "--out", str(json_path)]) == 0
    rows = csv_path.read_text().splitlines()[1:-1]
    payload = json.loads(json_path.read_text())
    assert len(payload["samples"]) == len(rows) == 3
    for row, sample in zip(rows, payload["samples"]):
        cells = [float(x) for x in row.split(",")]
        assert cells[:8] == pytest.approx(sample["params"], abs=0)
        assert cells[8] == sample["success"]
        assert cells[9] == sample["min_fidelity"]


def test_sweep_bad_config_exit_2(tmp_path, capsys):
    assert main(["sweep", "--samples", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_unwritable_path_reports_path(capsys):
    assert main(["sweep", "--samples", "1", "--out", "/no/dir/here.csv"]) == 2
    assert "/no/dir/here.csv" in capsys.readouterr().err


def test_scaling_rows(tmp_path):
    out = tmp_path / "scaling.csv"
    assert main(["scaling", "--max-stages", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,N,wavepackets,success"
    parsed = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1]), int(r[2])) for r in parsed] == [(1, 4, 8), (2, 8, 16), (3, 16, 32)]
    successes = [float(r[3]) for r in parsed]
    assert successes == pytest.approx([0.75, 0.875, 0.9375], abs=1e-9)
    assert successes == sorted(successes)


def test_scaling_single_row(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["scaling", "--max-stages", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_scaling_json_same_numbers(tmp_path):
    csv_path = tmp_path / "s.csv"
    json_path = tmp_path / "s.json"
    assert main(["scaling", "--max-stages", "2", "--out", str(csv_path)]) == 0
    assert main(["scaling", "--max-stages", "2", "--format", "json", "--out", str(json_path)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    payload = json.loads(json_path.read_text())
    for row, entry in zip(rows, payload):
        assert int(row[0]) == entry["stages"]
        assert float(row[3]) == entry["success"]


@pytest.mark.parametrize("seed", [0, 1, 4])
@pytest.mark.parametrize("convention", list(BsConvention))
def test_scaling_rows_equal_the_interpreter(convention, seed, tmp_path):
    out = tmp_path / "s.json"
    assert main(["scaling", "--max-stages", "6", "--convention", convention.value, "--seed", str(seed),
                 "--format", "json", "--out", str(out)]) == 0
    for row in json.loads(out.read_text()):
        stages = row["stages"]
        table = correction_table(EncoderSpec(stages, convention), DecoderSpec(0, convention))
        q = random_qubit(seed + stages)
        params = sample_noise(HAAR, seed + stages)
        assert abs(row["success"] - total_success(analyze(table.transmit(q, params), table, q))) <= 1e-12



def test_scaling_draws_its_qubit_from_another_stream_than_its_channel(monkeypatch, tmp_path):
    # row n reads its qubit from words 7-9 of seed + n, and its channel from none of them
    channel_reads, qubit_reads = [], []  # (seed, word index) pairs read through noise._words
    words = noise._words

    def recording_words(seed, count, first=1):
        channel_reads.extend((seed, k) for k in range(first, first + count))
        return words(seed, count, first)

    def recording_random_qubit(seed):
        start = len(channel_reads)
        qubit = random_qubit(seed)
        qubit_reads.append(channel_reads[start:])
        del channel_reads[start:]
        return qubit

    monkeypatch.setattr(noise, "_words", recording_words)
    monkeypatch.setattr(cli, "random_qubit", recording_random_qubit)
    assert main(["scaling", "--max-stages", "3", "--seed", "2", "--out", str(tmp_path / "s.csv")]) == 0
    assert qubit_reads == [[(2 + n, 7), (2 + n, 8), (2 + n, 9)] for n in (1, 2, 3)]
    assert sorted(channel_reads) == [(2 + n, k) for n in (1, 2, 3) for k in range(1, 5)]


def test_a_wrong_stage_1_slot_map_stops_scaling(monkeypatch, tmp_path):
    def scale_stage_1(encoder, decoder):
        table = correction_table(encoder, decoder)
        if encoder.stages != 1:
            return table
        maps = table.slot_maps.copy()
        maps[table.slot_correction >= 0] *= 1.01
        return dataclasses.replace(table, slot_maps=maps)

    monkeypatch.setattr(cli, "correction_table", scale_stage_1)
    with pytest.raises(RuntimeError, match=r"scaling row 1 \(stage 1, seed 3\)"):
        main(["scaling", "--max-stages", "2", "--seed", "3", "--out", str(tmp_path / "s.csv")])


@pytest.mark.parametrize("max_stages, message", [("13", "exceed the limit of 12"),
                                                 ("0", "at least one splitter stage"),
                                                 ("-1", "at least one splitter stage")])
def test_scaling_rejects_a_depth_outside_1_to_12(max_stages, message, tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    assert main(["scaling", "--max-stages", max_stages, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


def test_scaling_runs_to_the_deepest_encoder(tmp_path):
    out = tmp_path / "s.json"
    assert main(["scaling", "--max-stages", "12", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [row["stages"] for row in rows] == list(range(1, 13))
    for row in rows:
        n = row["bins_per_group"]
        assert abs(row["success"] - (n - 1) / n) <= 1e-9


@pytest.mark.parametrize("argv", [["sweep", "--seed", "-1"], ["scaling", "--seed", "-3"],
                                  ["scaling", "--seed", "-1"], ["qkd", "--seed", "-1"],
                                  ["qkd", "--seed", str(2**64)],
                                  # the last channel seed, seed + draws - 1, passes 2**64 - 1
                                  ["sweep", "--seed", str(2**64 - 99)],
                                  ["sweep", "--samples", "5", "--seed", str(2**64 - 4)],
                                  ["scaling", "--seed", str(2**64 - 3)],
                                  ["scaling", "--max-stages", "6", "--seed", str(2**64 - 6)]])
def test_negative_seed_exits_2_naming_the_flag_and_writing_nothing(argv, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--seed" in captured.err and captured.out == ""
    assert not out.exists()


def test_golden_negative_seed_exits_2_naming_the_flag(capsys):
    # golden has no --out: it writes only to stdout; its ten draws end at seed + 9
    for seed in ("-1", str(2**64 - 9)):
        assert main(["golden", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [["golden", "--seed", str(2**64 - 10)],
                                  ["sweep", "--samples", "5", "--seed", str(2**64 - 5)],
                                  ["scaling", "--max-stages", "2", "--seed", str(2**64 - 3)],
                                  ["qkd", "--pulses", "50", "--seed", str(2**64 - 1)]])
def test_the_top_seed_whose_draws_fit_runs(argv, capsys):
    assert main(argv) == 0


@pytest.mark.parametrize("command", ["sweep", "qkd"])
def test_excessive_depth_exits_2_writing_nothing(command, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main([command, "--stages", "40", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "exceed" in captured.err and captured.out == ""
    assert not out.exists()


def test_qkd_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "qkd.csv"
    assert main(["qkd", "--pulses", "300", "--seed", "2", "--out", str(out)]) == 0
    assert "qber" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "pulses,sifted,errors,qber,detection_rate"
    cells = lines[1].split(",")
    assert cells[0] == "300" and cells[2] == "0"


def test_qkd_json(tmp_path):
    out = tmp_path / "qkd.json"
    assert main(["qkd", "--pulses", "200", "--seed", "3", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pulses"] == 200
    assert payload["qber"] == 0.0


def test_parse_prints_canonical_form(tmp_path, capsys):
    circ = tmp_path / "c.circ"
    circ.write_text("# demo\ninput a\n  hwp a -> a\noutput a\n")
    assert main(["parse", str(circ)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("input a\nhwp a -> a\noutput a")


def test_parse_runs_qubit_when_asked(tmp_path, capsys):
    circ = tmp_path / "c.circ"
    circ.write_text("input a\nhwp a -> a\noutput a\n")
    assert main(["parse", str(circ), "--alpha", "1", "--beta", "0"]) == 0
    out = capsys.readouterr().out
    assert "a,V,0,1,0" in out


def test_parse_reports_line_numbered_error(tmp_path, capsys):
    circ = tmp_path / "bad.circ"
    circ.write_text("input a\nhwp a ->\noutput a\n")
    assert main(["parse", str(circ)]) == 2
    assert "line 2" in capsys.readouterr().err


def _splits(path, ticks) -> str:
    """A circuit file of one time-bin splitter on channel "in" per entry of ``ticks``."""
    path.write_text("input in\n" + "".join(f"split in -> in ticks={t}\n" for t in ticks) + "output in\n")
    return str(path)


def test_a_state_past_max_modes_exits_2_naming_the_element(tmp_path, capsys):
    # splitters at ticks 1, 2, 4, ... double the state: without the limit, 40 would need terabytes
    circ = _splits(tmp_path / "doubling.circ", [2 ** i for i in range(40)])
    assert main(["parse", circ, "--alpha", "1"]) == 2
    captured = capsys.readouterr()
    # one mode in, 2**k after element k: the first past the limit is element k = MAX_MODES.bit_length()
    assert captured.err == f"error: element {MAX_MODES.bit_length()} (split): over {MAX_MODES} modes\n"
    assert captured.out == ""
    assert main(["golden", "--encoder-circ", circ]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"check encode: error: element {MAX_MODES.bit_length() - 1} (split): over")
    assert out.splitlines()[-1] == "failed checks: encode"


def test_many_overlapping_splitters_run(tmp_path, capsys):
    # 20 splitters one tick apart overlap into 21 ticks: 42 modes, far below the limit
    circ = _splits(tmp_path / "overlapping.circ", [1] * 20)
    assert main(["parse", circ, "--alpha", "0.6", "--beta", "0.8"]) == 0
    out = capsys.readouterr().out
    assert len(out.split("# state dump\n")[1].splitlines()) == 42


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--frequency", "11"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["golden", "--dT", "200"], ["sweep", "--dT", "300"],
                                  ["sweep", "--dTprime", "41"]])
def test_removed_timing_flags_exit_2(argv):
    # no output byte depended on them; the library specs keep dT and dTprime
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["qkd", "--pulses", "1000", "--ensemble", "dephasing", "--phi", "nan"],
    ["sweep", "--ensemble", "dephasing", "--phi", "inf"],
    ["sweep", "--ensemble", "haar", "--phi=-inf"],
])
def test_non_finite_phase_exits_2_writing_nothing(argv, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("alpha, beta", [("nan", "0"), ("1", "nanj"), ("inf", "0")])
def test_parse_rejects_non_finite_qubit_writing_nothing(alpha, beta, capsys):
    circ = Path(timebinsim.__file__).parent / "data" / "encoder_n1.circ"
    assert main(["parse", str(circ), "--alpha", alpha, "--beta", beta]) == 2
    captured = capsys.readouterr()
    assert "normalized" in captured.err and captured.out == ""


def test_parse_rejects_non_finite_phase_with_its_line(tmp_path, capsys):
    circ = tmp_path / "c.circ"
    circ.write_text("input a\nphase a -> a phi=nan\noutput a\n")
    assert main(["parse", str(circ)]) == 2
    captured = capsys.readouterr()
    assert "line 2" in captured.err and captured.out == ""


#: Calls that fail in parsing or in the command, and ``--help``, each with its exit code.
_FAILING_CALLS = [(["sweep", "--frequency", "11"], 2), (["scaling", "--seed", "-1"], 2), (["qkd", "--help"], 0)]


def _call(argv, capsys) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one ``main`` call, a ``SystemExit`` included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_process_can_call_main_many_times(capsys):
    # pinned cases with failing calls between them, a ``--format json`` case first: anything
    # one call left in the shared parser would show in a later call's bytes
    failing = {}
    for name in ("sweep_json", "sweep_csv", "golden_surface"):
        assert _call(CASES[name], capsys) == (0, (EXPECTED / f"{name}.out").read_text(encoding="utf-8"), "")
        for argv, code in _FAILING_CALLS:
            result = _call(argv, capsys)
            assert result[0] == code
            assert failing.setdefault(" ".join(argv), result) == result
    assert "usage: timebinsim qkd" in failing["qkd --help"][1]
    assert "unrecognized arguments: --frequency" in failing["sweep --frequency 11"][2]
    assert "--seed" in failing["scaling --seed -1"][2]


def test_main_builds_no_parser_after_its_first_call(monkeypatch):
    assert main(["golden"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["scaling", "--max-stages", "1"], ["golden"], ["sweep", "--samples", "2"]):
        assert main(argv) == 0
    assert built == []


@pytest.mark.parametrize("entry", [["-m", "timebinsim.cli"],
                                   # what the ``timebinsim`` console script runs
                                   ["-c", "import sys; from timebinsim.cli import main; sys.exit(main())"]],
                         ids=["module", "script"])
def test_a_fresh_interpreter_prints_the_in_process_bytes(entry, capsys):
    argv = ["scaling", "--max-stages", "2", "--seed", "3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(timebinsim.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, *entry, *argv], env=env, capture_output=True, check=True)
    assert out.stdout == expected
