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
    # three blocks of pulses whose channel draws straddle the block edges
    "qkd_general_surface_refresh7": ["qkd", "--pulses", "10000", "--refresh", "7", "--stages", "2",
                                     "--ensemble", "general", "--convention", "surface",
                                     "--seed", "2"],
    "scaling_json_s6": ["scaling", "--max-stages", "6", "--format", "json", "--seed", "4"],
    "sweep_general_surface_s3": ["sweep", "--stages", "3", "--ensemble", "general",
                                 "--convention", "surface", "--samples", "5", "--seed", "8"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_are_pinned(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (EXPECTED / f"{name}.out").read_bytes()
