"""Every script under demos/ runs to the end and prints what it printed when recorded.

The demos are seeded, so their stdout is pinned byte for byte in
``data/demos/<name>.out``. A deliberate change of a demo's output must
re-record it and say so. Re-record named demos, never all of them, with

    PYTHONPATH=src python tests/test_demos.py --record 02_noise_rejection ...

which prints how many lines of each moved.
"""

import argparse
import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
EXPECTED = Path(__file__).parent / "data" / "demos"


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert out.encode("utf-8") == (EXPECTED / f"{path.stem}.out").read_bytes()


def record(names: list[str]) -> None:
    """Rewrite the named pins from the current code and print what moved."""
    for name in names:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            runpy.run_path(str(DEMOS[0].parent / f"{name}.py"), run_name="__main__")
        path = EXPECTED / f"{name}.out"
        old_lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        new_lines = buffer.getvalue().splitlines()
        path.write_bytes(buffer.getvalue().encode("utf-8"))
        moved = sum(old != new for old, new in zip(old_lines, new_lines))
        moved += abs(len(old_lines) - len(new_lines))
        print(f"{name}: {moved} of {len(new_lines)} lines moved")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="re-record pinned demo output")
    parser.add_argument("--record", nargs="+", required=True,
                        choices=[p.stem for p in DEMOS], metavar="NAME")
    record(parser.parse_args().record)
