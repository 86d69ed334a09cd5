"""Command-line front end.

Subcommands: ``golden`` (closed-form chain checks), ``sweep`` (success
probability over noise draws), ``scaling`` (success vs cascade depth),
``qkd`` (BB84 Monte Carlo), ``parse`` (circuit file validation). Every
command is deterministic given its flags; reruns write byte-identical
output. Exit codes: 0 success, 1 a golden check failed, 2 bad usage or
configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .analysis import _check_with_interpreter, _evaluate, analyze, correction_table, success_probability_sweep
from .circfile import CircuitTextError, load_circuit, print_circuit
from .circuits import (
    CHANNEL,
    Circuit,
    CircuitError,
    DecoderSpec,
    EncoderSpec,
    build_encoder,
    recombiner_elements,
    run,
)
from .elements import BsConvention, ConventionError
from .noise import HAAR, NoiseEnsemble, _seed, apply_collective_noise, random_qubit, sample_noise
from .qkd import Bb84Config, simulate_bb84
from .state import PhotonState, QubitSpec, _max_or_nan, new_state


def _write(out_path: str | None, text: str):
    if out_path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _train(qubit: QubitSpec, channel: str, pol: str, start: int, length: int, scale: complex,
           odd_sign: int = 1) -> dict:
    """Amplitudes ``scale * (alpha, odd_sign * beta, alpha, ...)`` on ``length`` bins from tick ``start``."""
    beta = odd_sign * qubit.beta
    return {(channel, pol, start + t): scale * (qubit.alpha if t % 2 == 0 else beta) for t in range(length)}


def _expected_encoded(qubit: QubitSpec, spec: EncoderSpec) -> PhotonState:
    """Closed form of the encoder output: (a, b, a, ...)/sqrt(N) on H from tick 0, and from
    tick dT on V -i*(a, b, ...)/sqrt(N) under the surface convention, +i*(a, -b, ...)/sqrt(N)
    under the symmetric one."""
    n = spec.bins_per_group
    scale = 1.0 / math.sqrt(n)
    if spec.convention is BsConvention.SURFACE_PHASES:
        v_group = _train(qubit, CHANNEL, "V", spec.dT, n, -1j * scale)
    else:
        v_group = _train(qubit, CHANNEL, "V", spec.dT, n, 1j * scale, odd_sign=-1)
    return PhotonState({**_train(qubit, CHANNEL, "H", 0, n, scale), **v_group})


def cmd_golden(args) -> int:
    _seed(args.seed, 9, name="--seed")  # the qubit reads seed, the noise-branches check seed to seed + 9
    spec = EncoderSpec(stages=1, convention=BsConvention(args.convention))
    qubit = random_qubit(args.seed)
    failures = []

    def report(check: str, dev: float):
        passed = dev < 1e-12  # a NaN deviation fails too
        print(f"check {check}: max amplitude deviation {dev:.3e} [{'pass' if passed else 'FAIL'}]")
        if not passed:
            failures.append(check)

    # check 1: the encoder splits the qubit into the expected 8-mode train
    try:
        encoder = load_circuit(args.encoder_circ) if args.encoder_circ else build_encoder(spec)
        sent = run(encoder, new_state(qubit, encoder.input))
    except (CircuitError, CircuitTextError, ConventionError) as err:
        print(f"check encode: error: {err}")
        failures.append("encode")
    else:
        report("encode", sent.max_deviation(_expected_encoded(qubit, spec)))

    # check 2: collective noise produces the four-branch structure with
    # coefficients d1/2, g1/2, -i*d2/2, -i*g2/2 on the reference train
    ref_spec = EncoderSpec(stages=1, convention=BsConvention.SURFACE_PHASES)
    ref_sent = run(build_encoder(ref_spec), new_state(qubit))
    devs = []
    for k in range(10):
        params = sample_noise(HAAR, args.seed + k)
        noisy = apply_collective_noise(ref_sent, params, CHANNEL)
        expected = {**_train(qubit, CHANNEL, "H", 0, 4, params.d1 / 2),
                    **_train(qubit, CHANNEL, "V", 0, 4, params.g1 / 2),
                    **_train(qubit, CHANNEL, "H", ref_spec.dT, 4, -1j * params.d2 / 2),
                    **_train(qubit, CHANNEL, "V", ref_spec.dT, 4, -1j * params.g2 / 2)}
        devs.append(noisy.max_deviation(PhotonState(expected)))
    report("noise-branches", _max_or_nan(devs))

    # check 3: the recombiner maps the H-group train to the two-arm state
    # that meets the final polarizing merge
    group = PhotonState(_train(qubit, "mid", "H", 0, 4, 1.0 / math.sqrt(2.0)))
    stage = Circuit("mid", recombiner_elements(BsConvention.SURFACE_PHASES), ("sp", "lp"))
    arms = run(stage, group)
    expected = {**_train(qubit, "sp", "V", 0, 4, 0.5), **_train(qubit, "lp", "H", 1, 4, 0.5)}
    report("recombine", arms.max_deviation(PhotonState(expected)))

    if failures:
        print("failed checks: " + ", ".join(failures))
        return 1
    return 0


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parts(coefficients) -> list[float]:
    """(re, im) of each of (d1, g1, d2, g2), flattened: the CSV column order."""
    return [x for c in coefficients for x in (c.real, c.imag)]


def cmd_sweep(args) -> int:
    _seed(args.seed, args.samples - 1, name="--seed")  # sample i draws its channel and qubit from seed + i
    convention = BsConvention(args.convention)
    result = success_probability_sweep(
        EncoderSpec(args.stages, convention), DecoderSpec(0, convention),
        NoiseEnsemble(args.ensemble, args.phi), args.samples, args.seed,
    )

    if args.format == "json":
        payload = {
            "target": result.target,
            "mean_success": result.mean_success,
            "max_deviation": result.max_deviation,
            "samples": [
                {"params": _parts(s.coefficients), "success": s.success,
                 "min_fidelity": s.min_fidelity}
                for s in result.samples
            ],
        }
        _write(args.out, json.dumps(payload, indent=2))
    else:
        header = "d1_re,d1_im,g1_re,g1_im,d2_re,d2_im,g2_re,g2_im,success,min_fidelity"
        lines = [header]
        for s in result.samples:
            cells = [_fmt(x) for x in _parts(s.coefficients)] + [_fmt(s.success), _fmt(s.min_fidelity)]
            lines.append(",".join(cells))
        lines.append("summary,,,,,,,," + _fmt(result.mean_success) + "," + _fmt(result.max_deviation))
        _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_scaling(args) -> int:
    convention = BsConvention(args.convention)
    EncoderSpec(args.max_stages, convention)  # the deepest row's depth is checked before any row
    _seed(args.seed, args.max_stages, name="--seed")  # row n draws its channel and qubit from seed + n
    rows = []
    for stages in range(1, args.max_stages + 1):
        encoder = EncoderSpec(stages, convention)
        table = correction_table(encoder, DecoderSpec(0, convention))
        qubit = random_qubit(args.seed + stages)
        params = sample_noise(HAAR, args.seed + stages)
        success, worst = (x.item() for x in _evaluate(
            table, np.array([params.coefficients()]), np.array([[qubit.alpha, qubit.beta]])))
        if stages == 1:
            _check_with_interpreter(success, worst, analyze(table.transmit(qubit, params), table, qubit),
                                    f"scaling row 1 (stage {stages}, seed {args.seed})")
        rows.append((stages, encoder.bins_per_group, encoder.wavepackets, success))

    if args.format == "json":
        payload = [
            {"stages": n, "bins_per_group": nn, "wavepackets": w, "success": s}
            for n, nn, w, s in rows
        ]
        _write(args.out, json.dumps(payload, indent=2))
    else:
        lines = ["n,N,wavepackets,success"]
        lines += [f"{n},{nn},{w},{_fmt(s)}" for n, nn, w, s in rows]
        _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_qkd(args) -> int:
    _seed(args.seed, name="--seed")  # qkd's draws read the seed as one 64-bit word
    cfg = Bb84Config(
        pulses=args.pulses,
        stages=args.stages,
        ensemble=NoiseEnsemble(args.ensemble, args.phi),
        refresh_every=args.refresh,
        eta=args.eta,
        seed=args.seed,
        convention=BsConvention(args.convention),
    )
    stats = simulate_bb84(cfg)
    print(stats.summary())
    if args.format == "json":
        payload = {
            "pulses": stats.sent, "sifted": stats.sifted, "errors": stats.errors,
            "qber": stats.qber, "detection_rate": stats.detection_rate,
        }
        _write(args.out, json.dumps(payload, indent=2))
    else:
        _write(args.out, "pulses,sifted,errors,qber,detection_rate\n" + stats.csv_row() + "\n")
    return 0


def cmd_parse(args) -> int:
    circuit = load_circuit(args.file)
    state = None
    if args.alpha is not None or args.beta is not None:
        alpha = complex(args.alpha) if args.alpha is not None else 0j
        beta = complex(args.beta) if args.beta is not None else 0j
        state = run(circuit, new_state(QubitSpec(alpha, beta), circuit.input))
    sys.stdout.write(print_circuit(circuit))  # only once every input is accepted
    if state is not None:
        print("# state dump")
        print(state.dump())
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call, not at import.
    It reads nothing a call passes in and parsing leaves it unchanged, so ``main``
    can be called many times."""
    parser = argparse.ArgumentParser(prog="timebinsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    conventions = sorted(c.value for c in BsConvention)

    def common(p):
        p.add_argument("--convention", choices=conventions, default="symmetric")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def link(p):  # the encoder depth and channel ensemble that sweep and qkd share
        p.add_argument("--stages", type=int, default=1)
        p.add_argument("--ensemble", choices=NoiseEnsemble._KINDS, default="haar")
        p.add_argument("--phi", type=float, default=math.pi, help="dephasing angle")

    p = sub.add_parser("golden", help="closed-form checks of the encode/noise/recombine chain")
    p.add_argument("--convention", choices=conventions, default="surface")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--encoder-circ", help="check a circuit file instead of the builder")
    p.set_defaults(func=cmd_golden)

    p = sub.add_parser("sweep", help="success probability over random channel draws")
    common(p)
    link(p)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scaling", help="success probability versus cascade depth")
    common(p)
    p.add_argument("--max-stages", type=int, default=3)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("qkd", help="BB84 Monte Carlo over the noisy fiber")
    common(p)
    p.add_argument("--pulses", type=int, default=10000)
    link(p)
    p.add_argument("--eta", type=float, default=1.0, help="baseline detector efficiency")
    p.add_argument("--refresh", type=int, default=1, help="pulses per fresh channel draw")
    p.set_defaults(func=cmd_qkd)

    p = sub.add_parser("parse", help="validate a circuit file and print its canonical form")
    p.add_argument("file")
    p.add_argument("--alpha", help="optionally run a qubit through; complex literal")
    p.add_argument("--beta", help="complex literal")
    p.set_defaults(func=cmd_parse)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CircuitError, CircuitTextError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
