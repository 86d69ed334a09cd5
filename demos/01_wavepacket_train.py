"""What the encoder does to a qubit: one photon, eight wavepackets.

A polarization qubit a|H> + b|V> enters the splitting chain and leaves on
a single fiber as two four-bin trains: an H-polarized one at ticks 0..3
and a V-polarized copy 64 ticks later. Within each train, even bins carry
a and odd bins carry b, all with magnitude 1/2.
"""

import numpy as np

from timebinsim import (
    BsConvention,
    EncoderSpec,
    QubitSpec,
    build_encoder,
    new_state,
    run,
)

qubit = QubitSpec(0.6, 0.8j)
print(f"sending a = {qubit.alpha}, b = {qubit.beta}\n")

for convention in BsConvention:
    spec = EncoderSpec(stages=1, convention=convention)
    train = run(build_encoder(spec), new_state(qubit))
    print(f"--- {convention.value} convention: {len(train)} modes, "
          f"norm^2 = {train.norm_sq():.12f} ---")
    print(train.dump())
    print()

# the two conventions give the same train up to bin-parity phases, so all
# probabilities (and everything the receiver measures) agree
spec = EncoderSpec(stages=2)
train = run(build_encoder(spec), new_state(qubit))
mags = sorted({round(abs(a), 12) for a in train.amplitudes.values()})
print(f"two cascade stages: {len(train)} wavepackets, magnitudes {mags}")
print(f"expected |a|/sqrt(8), |b|/sqrt(8) = "
      f"{abs(qubit.alpha)/np.sqrt(8):.12f}, {abs(qubit.beta)/np.sqrt(8):.12f}")
