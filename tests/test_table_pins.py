"""Correction tables pinned bit for bit, at every depth the encoder supports.

``data/table_digests.json`` maps each (stages, convention, ``dTprime``) to
the sha256 of every array of the table it gave when it was recorded:
``slot_maps``, ``slot_branch`` and ``slot_correction`` (dtype, shape and
bytes) and the ``windows`` items. A change of how the table is derived must
keep every digest; a deliberate change must re-record them and say so.
Re-record with

    PYTHONPATH=src python tests/test_table_pins.py --record

which prints how many tables moved.
"""

import argparse
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from timebinsim.analysis import correction_table
from timebinsim.circuits import MAX_STAGES, DecoderSpec, EncoderSpec
from timebinsim.elements import BsConvention

EXPECTED = Path(__file__).parent / "data" / "table_digests.json"


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _array_digest(array: np.ndarray) -> str:
    return _digest(array.dtype.str.encode(), repr(array.shape).encode(), np.ascontiguousarray(array).tobytes())


def table_digests() -> dict[str, dict[str, str]]:
    """Digests per table: stages 1..MAX_STAGES, both conventions, ``dTprime`` 0 and N + 1."""
    digests = {}
    for stages, convention, delayed in itertools.product(range(1, MAX_STAGES + 1), BsConvention, (False, True)):
        encoder = EncoderSpec(stages, convention)
        dtprime = encoder.bins_per_group + 1 if delayed else 0
        table = correction_table(encoder, DecoderSpec(dtprime, convention))
        windows = json.dumps([[port, tick, branch.name, t] for (port, tick), (branch, t) in table.windows.items()])
        digests[f"s{stages} {convention.value} dTprime{dtprime}"] = {
            "slot_maps": _array_digest(table.slot_maps),
            "slot_branch": _array_digest(table.slot_branch),
            "slot_correction": _array_digest(table.slot_correction),
            "windows": _digest(windows.encode()),
        }
    return digests


def test_every_table_equals_the_recorded_digests():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    actual = table_digests()
    assert actual.keys() == expected.keys()
    moved = {key: [name for name in digests if digests[name] != expected[key][name]]
             for key, digests in actual.items() if digests != expected[key]}
    assert not moved


def record() -> None:
    """Rewrite the digests from the current code and print how many tables moved."""
    old = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    new = table_digests()
    EXPECTED.write_text(json.dumps(new, indent=2) + "\n", encoding="utf-8")
    moved = [key for key, digests in new.items() if old.get(key) != digests]
    for key in moved:
        print(f"{key} moved")
    print(f"{len(moved)} of {len(new)} tables moved")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="re-record the correction-table digests")
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args()
    record()
