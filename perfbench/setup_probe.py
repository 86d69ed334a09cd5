"""Set-up cost of one workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR STAGES...

Times importing timebinsim from SRC_DIR plus building, for each cascade
depth given, the encoder and decoder circuits and their correction
table. Prints the elapsed seconds and the mean of two machine-speed
probes (see calibration.py) taken, untimed, right before and after.
run.py starts this script several times per run and reports the median.
"""

import sys
import time
from pathlib import Path

import calibration


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    stages = [int(s) for s in sys.argv[2:]]
    sys.path.insert(0, str(src))
    before = calibration.probe()
    start = time.perf_counter()
    import timebinsim

    for depth in stages:
        encoder = timebinsim.encoder_spec_for(depth)
        decoder = timebinsim.DecoderSpec(0)
        timebinsim.build_encoder(encoder)
        timebinsim.build_decoder(decoder)
        timebinsim.correction_table(encoder, decoder)
    elapsed = time.perf_counter() - start
    probe = (before + calibration.probe()) / 2
    if not Path(timebinsim.__file__).resolve().is_relative_to(src):
        print(f"imported timebinsim from {timebinsim.__file__}, not {src}", file=sys.stderr)
        return 2
    print(repr(elapsed), repr(probe))
    return 0


if __name__ == "__main__":
    sys.exit(main())
