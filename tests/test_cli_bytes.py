"""Exact CLI output bytes, recorded once and compared on every run.

The files under ``data/cli_bytes/`` hold what each command below wrote to
stdout when they were recorded. A refactor that keeps the program's
behaviour keeps these bytes; a deliberate change of output must re-record
them and say so.
"""

from pathlib import Path

import pytest

import timebinsim
from timebinsim.cli import main

EXPECTED = Path(__file__).parent / "data" / "cli_bytes"
CIRCUITS = Path(timebinsim.__file__).parent / "data"

CASES = {
    "golden_surface": ["golden"],
    "golden_symmetric": ["golden", "--convention", "symmetric"],
    "sweep_csv": ["sweep", "--samples", "5", "--seed", "3"],
    "sweep_json": ["sweep", "--samples", "5", "--seed", "3", "--format", "json"],
    "scaling": ["scaling", "--max-stages", "4", "--seed", "1"],
    "qkd": ["qkd", "--pulses", "2000", "--stages", "2", "--eta", "0.6", "--seed", "5"],
    "parse_encoder": ["parse", str(CIRCUITS / "encoder_n1.circ"), "--alpha", "0.6", "--beta", "0.8j"],
    "parse_decoder": ["parse", str(CIRCUITS / "decoder.circ"), "--alpha", "0.6", "--beta", "0.8j"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_are_pinned(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (EXPECTED / f"{name}.out").read_bytes()
