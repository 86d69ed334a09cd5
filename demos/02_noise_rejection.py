"""Passive error rejection in action.

The fiber applies one unknown polarization map to every wavepacket. The
decoder sorts the result into four time/port windows (one per channel
parameter), and inside each window every interior bin carries a perfect
copy of the sent qubit up to a known Pauli. Post-selecting interior bins
keeps exactly 3/4 of the probability, whatever the fiber did.
"""

import json

from timebinsim import (
    Correction,
    DecoderSpec,
    EncoderSpec,
    HAAR,
    analyze,
    correction_table,
    random_qubit,
    sample_noise,
    total_success,
)

# the table is the link: its circuits, its detection windows and its corrections
table = correction_table(EncoderSpec(stages=1, dT=64), DecoderSpec())

print("derived corrections (branch, bin) -> Pauli:")
for (branch, tick), index in zip(table.windows.values(), table.slot_correction):
    if index >= 0:
        print(f"  {branch.name} bin {tick}: {list(Correction)[index].value}")

qubit = random_qubit(1)
params = sample_noise(HAAR, seed=7)
print(f"\nchannel draw: d1={params.d1:.3f} g1={params.g1:.3f} "
      f"d2={params.d2:.3f} g2={params.g2:.3f}")

reports = analyze(table.transmit(qubit, params), table, qubit)

for r in reports:
    print(f"\nbranch {r.branch.name} (port {r.port}, offset {r.offset}):")
    print(json.dumps(r.to_dict(), indent=2))

print(f"\ntotal accepted probability: {total_success(reports):.12f}  (target 3/4)")
print("every accepted fidelity is 1: the receiver loses probability, never quality")
