"""Exact CLI output bytes, recorded once and compared on every run.

The files under ``data/cli_bytes/`` hold what each command below wrote to
stdout when they were recorded. A refactor that keeps the program's
behaviour keeps these bytes; a deliberate change of output must re-record
them and say so. Re-record named cases, never all of them, with

    PYTHONPATH=src python tests/test_cli_bytes.py --record sweep_csv ...

which prints every rewritten line and its largest float shift in ulps.
"""

import argparse
import io
import re
import struct
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import timebinsim
from timebinsim.cli import main

EXPECTED = Path(__file__).parent / "data" / "cli_bytes"
CIRCUITS = Path(timebinsim.__file__).parent / "data"

CASES = {
    "golden_surface": ["golden"],
    "golden_symmetric": ["golden", "--convention", "symmetric"],
    # the shipped encoder file through golden's file path
    "golden_circ_symmetric": ["golden", "--encoder-circ", str(CIRCUITS / "encoder_n1.circ"),
                              "--convention", "symmetric"],
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
    # 1020 accepted bins: the detection sampler at depth, with draws straddling blocks
    "qkd_s7_surface": ["qkd", "--stages", "7", "--pulses", "5000", "--refresh", "7", "--eta", "0.6",
                       "--seed", "11", "--convention", "surface"],
    "scaling_json_s6": ["scaling", "--max-stages", "6", "--format", "json", "--seed", "4"],
    "scaling_surface_s6": ["scaling", "--convention", "surface", "--max-stages", "6", "--seed", "2"],
    "sweep_general_surface_s3": ["sweep", "--stages", "3", "--ensemble", "general",
                                 "--convention", "surface", "--samples", "5", "--seed", "8"],
    # the ensembles that read no seed: every sample has the one channel
    "sweep_identity": ["sweep", "--ensemble", "identity", "--samples", "7", "--seed", "3"],
    "sweep_dephasing_json": ["sweep", "--ensemble", "dephasing", "--phi", "0.7", "--samples", "5",
                             "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_are_pinned(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (EXPECTED / f"{name}.out").read_bytes()


#: A decimal number as the CLI prints it; the text between numbers is the layout.
_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]\d+)?)")


def _ordinal(x: float) -> int:
    """The double's position on the number line, so that ulp distances subtract."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _line_shift(old: str, new: str) -> tuple[int, float] | None:
    """Largest (ulp, absolute) shift between the numbers of two lines; None if their layout differs.

    Both are given because the ulp count of a number near zero, such as a
    deviation from a target, is large for a shift that is tiny next to the target.
    """
    old_parts, new_parts = _NUMBER.split(old), _NUMBER.split(new)
    if len(old_parts) != len(new_parts) or old_parts[0::2] != new_parts[0::2]:
        return None
    pairs = [(float(a), float(b)) for a, b in zip(old_parts[1::2], new_parts[1::2])]
    return (max(abs(_ordinal(a) - _ordinal(b)) for a, b in pairs),
            max(abs(a - b) for a, b in pairs))


def record(names: list[str]) -> None:
    """Rewrite the named pins from the current code and print what moved."""
    for name in names:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(CASES[name])
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}, nothing recorded")
        path = EXPECTED / f"{name}.out"
        old_lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        new_lines = buffer.getvalue().splitlines()
        path.write_bytes(buffer.getvalue().encode("utf-8"))
        if len(old_lines) != len(new_lines):
            print(f"{name}: {len(old_lines)} -> {len(new_lines)} lines")
            continue
        moved = 0
        for number, (old, new) in enumerate(zip(old_lines, new_lines), start=1):
            if old != new:
                moved += 1
                shift = _line_shift(old, new)
                print(f"{name}:{number}: " + ("layout changed" if shift is None else
                                              f"{shift[0]} ulp, {shift[1]:.3g} absolute"))
        print(f"{name}: {moved} of {len(new_lines)} lines moved")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="re-record pinned CLI output")
    parser.add_argument("--record", nargs="+", required=True, choices=sorted(CASES), metavar="NAME")
    record(parser.parse_args().record)
