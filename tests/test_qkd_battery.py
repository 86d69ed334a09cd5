"""BB84 counts over a grid of configs, recorded once and compared on every run.

``data/qkd_battery.json`` maps each config below to the (detected, sifted,
errors) that ``simulate_bb84`` gave when it was recorded. A change of how
the link is read or how detection is sampled must keep these counts; a
deliberate change must re-record them and say so. Re-record with

    PYTHONPATH=src python tests/test_qkd_battery.py --record

which prints how many configs moved.
"""

import argparse
import itertools
import json
from pathlib import Path

import numpy as np

from _oracles import one_pauli_flipped
from timebinsim import qkd
from timebinsim.elements import BsConvention
from timebinsim.noise import GENERAL, HAAR, dephasing
from timebinsim.qkd import Bb84Config, simulate_bb84

EXPECTED = Path(__file__).parent / "data" / "qkd_battery.json"

ENSEMBLES = {"haar": HAAR, "general": GENERAL, "dephasing0.7": dephasing(0.7)}
#: (refresh_every, eta): a fresh channel per pulse, one per 7 pulses, and one for the whole run
CHANNELS = ((1, 1.0), (7, 0.6), (1000, 0.3))
PULSES = 2000


def configs() -> dict[str, Bb84Config]:
    """Every battery config by its key: stages 1-4, both conventions, three ensembles, seeds 0-1."""
    grid = itertools.product(range(1, 5), BsConvention, ENSEMBLES, range(2), CHANNELS)
    return {f"s{stages} {convention.value} {name} seed{seed} refresh{refresh} eta{eta}":
            Bb84Config(pulses=PULSES, stages=stages, ensemble=ENSEMBLES[name], refresh_every=refresh,
                       eta=eta, seed=seed, convention=convention)
            for stages, convention, name, seed, (refresh, eta) in grid}


def battery() -> dict[str, list[int]]:
    counts = {}
    for key, cfg in configs().items():
        stats = simulate_bb84(cfg)
        counts[key] = [stats.detected, stats.sifted, stats.errors]
    return counts


def test_counts_equal_the_recorded_battery():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    actual = battery()
    assert actual.keys() == expected.keys()
    moved = {key: (expected[key], counts) for key, counts in actual.items() if counts != expected[key]}
    assert not moved


def _swap_the_channel_stream(monkeypatch):
    """Draw every channel from other seeds than the ones ``simulate_bb84`` derives."""
    original = qkd._channel_coefficients
    monkeypatch.setattr(qkd, "_channel_coefficients",
                        lambda ensemble, seeds: original(ensemble, seeds ^ np.uint64(0x5DEECE66D5DEECE6)))


def test_the_counts_do_not_depend_on_the_channel_stream(monkeypatch):
    # with right corrections a pulse is detected with mass eta (N-1)/N and Bob's
    # outcome is certain, whichever channel it met
    _swap_the_channel_stream(monkeypatch)
    assert battery() == json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_under_a_wrong_correction_the_counts_do_depend_on_it(monkeypatch):
    # the twin of the test above: it can fail, since a flipped Pauli makes errors that follow the channel
    derive = qkd.correction_table
    monkeypatch.setattr(qkd, "correction_table",
                        lambda encoder, decoder: one_pauli_flipped(derive(encoder, decoder)))
    drawn = battery()
    _swap_the_channel_stream(monkeypatch)
    assert battery() != drawn


def record() -> None:
    """Rewrite the battery from the current code and print how many configs moved."""
    old = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    new = battery()
    lines = (f"  {json.dumps(key)}: {json.dumps(counts)}" for key, counts in new.items())
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    moved = [key for key, counts in new.items() if old.get(key) != counts]
    for key in moved:
        print(f"{key}: {old.get(key)} -> {new[key]}")
    print(f"{len(moved)} of {len(new)} configs moved")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="re-record the BB84 count battery")
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args()
    record()
