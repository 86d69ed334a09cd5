"""Success probability versus cascade depth.

Adding splitter stages doubles the bins per train; only the first and
last bin of each group are ever discarded, so the success probability
climbs as (N-1)/N toward one.
"""

from timebinsim import (
    DecoderSpec,
    EncoderSpec,
    HAAR,
    analyze,
    correction_table,
    random_qubit,
    sample_noise,
    total_success,
)

print(f"{'stages':>6} {'bins/group':>10} {'wavepackets':>11} {'success':>18} {'(N-1)/N':>18}")
for stages in range(1, 6):
    encoder = EncoderSpec(stages)
    table = correction_table(encoder, DecoderSpec())
    qubit = random_qubit(stages)
    params = sample_noise(HAAR, stages)
    success = total_success(analyze(table.transmit(qubit, params), table, qubit))
    n = encoder.bins_per_group
    print(f"{stages:>6} {n:>10} {encoder.wavepackets:>11} {success:>18.15f} {(n - 1) / n:>18.15f}")
