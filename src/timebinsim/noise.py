"""Collective polarization noise: one unknown 2x2 map for a whole train.

The channel applies the same transformation

    |H> -> d1 |H> + g1 |V>
    |V> -> d2 |H> + g2 |V>

to every wavepacket of a transmission, with each image normalized
(|d1|^2 + |g1|^2 = |d2|^2 + |g2|^2 = 1). Unitarity is deliberately not
required: the normalization alone already guarantees norm conservation
for trains that carry a single polarization per time slot, which is the
regime the encoder produces, and the wider class is worth simulating.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .state import H, V, PhotonState, TOLERANCE, _unit_vector


@dataclass(frozen=True)
class NoiseParams:
    """The four complex channel parameters (d1, g1) and (d2, g2)."""

    d1: complex
    g1: complex
    d2: complex
    g2: complex

    def __post_init__(self):
        for d, g, which in ((self.d1, self.g1, "H"), (self.d2, self.g2, "V")):
            n = abs(d) ** 2 + abs(g) ** 2
            if not abs(n - 1.0) <= TOLERANCE:  # also rejects NaN
                raise ValueError(f"noise image of |{which}> not normalized: {n!r}")

    @staticmethod
    def identity() -> "NoiseParams":
        return NoiseParams(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def bit_flip() -> "NoiseParams":
        return NoiseParams(0.0, 1.0, 1.0, 0.0)

    def coefficients(self) -> tuple[complex, ...]:
        """(d1, g1, d2, g2), the order of ``analysis.BRANCHES``."""
        return (self.d1, self.g1, self.d2, self.g2)

    def as_floats(self) -> tuple[float, ...]:
        """Flatten to 8 floats (re, im per parameter), CSV order."""
        return (
            self.d1.real, self.d1.imag, self.g1.real, self.g1.imag,
            self.d2.real, self.d2.imag, self.g2.real, self.g2.imag,
        )


@dataclass(frozen=True)
class NoiseEnsemble:
    """A named distribution over NoiseParams.

    ``haar`` draws uniformly random unitaries; ``general`` draws each
    basis-state image as an independent random unit vector in C^2, which
    is the widest class the normalization constraint allows; ``dephasing``
    leaves H alone and phase-shifts V by ``phi``.
    """

    kind: str
    phi: float = 0.0

    _KINDS = ("identity", "haar", "general", "dephasing")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown noise ensemble {self.kind!r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"ensemble phase must be finite, got {self.phi!r}")


IDENTITY = NoiseEnsemble("identity")
HAAR = NoiseEnsemble("haar")
GENERAL = NoiseEnsemble("general")


def dephasing(phi: float) -> NoiseEnsemble:
    return NoiseEnsemble("dephasing", phi)


def _haar_u2(rng) -> NoiseParams:
    # Euler-angle form of the uniform measure on U(2): three independent
    # uniform phases plus a mixing angle with sin^2(theta) uniform.
    xi, a, b, g = rng.random(4)
    c = math.sqrt(1.0 - xi)
    s = math.sqrt(xi)
    pa = cmath.exp(2j * math.pi * a)
    pb = cmath.exp(2j * math.pi * b)
    pg = cmath.exp(2j * math.pi * g)
    return NoiseParams(
        pg * pa * c,             # |H> -> H
        -pg * s / pb,            # |H> -> V
        pg * pb * s,             # |V> -> H
        pg * c / pa,             # |V> -> V
    )


def sample_noise(ensemble: NoiseEnsemble, seed: int) -> NoiseParams:
    """Deterministic draw: the same (ensemble, seed) always yields the same params."""
    stochastic = ensemble.kind in ("haar", "general")
    return _draw_noise(ensemble, np.random.default_rng(seed) if stochastic else None)


def _draw_noise(ensemble: NoiseEnsemble, rng) -> NoiseParams:
    """A draw from a numpy Generator, which the identity and dephasing ensembles do not read."""
    if ensemble.kind == "identity":
        return NoiseParams.identity()
    if ensemble.kind == "dephasing":
        return NoiseParams(1.0, 0.0, 0.0, cmath.exp(1j * ensemble.phi))
    if ensemble.kind == "haar":
        return _haar_u2(rng)
    return NoiseParams(*_unit_vector(rng), *_unit_vector(rng))  # (d1, g1), then (d2, g2)


def sample_coefficients(ensemble: NoiseEnsemble, seeds) -> np.ndarray:
    """``sample_noise`` for many seeds: a (draws, 4) complex array.

    Row k is (d1, g1, d2, g2) of ``sample_noise(ensemble, seeds[k])``, bit
    for bit, in the order of ``analysis.BRANCHES``. Haar draws are made in
    one vectorized pass over the seeds; the other ensembles call
    ``sample_noise`` per seed. Seeds must lie in [0, 2**64).
    """
    seeds = _seed_array(seeds)
    if ensemble.kind != "haar":
        rows = [sample_noise(ensemble, int(s)).coefficients() for s in seeds]
        return np.array(rows, dtype=complex).reshape(len(seeds), 4)
    coefficients = _haar_coefficients(_pcg64_random4(seeds))
    squares = coefficients.view(float) ** 2
    norms = np.stack((squares[:, :4].sum(axis=1), squares[:, 4:].sum(axis=1)))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= TOLERANCE).all(axis=0))  # also rejects NaN
    if len(bad):
        raise ValueError(f"noise draw {bad[0]} (seed {seeds[bad[0]]}) not normalized: "
                         f"{norms[:, bad[0]].tolist()!r}")
    return coefficients


def _seed_array(seeds) -> np.ndarray:
    """Seeds as a 1-D uint64 array; one outside [0, 2**64) raises instead of wrapping."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        if seeds.ndim != 1:
            raise ValueError(f"seeds must be one-dimensional, got shape {seeds.shape}")
        return seeds
    values = [operator.index(s) for s in seeds]
    outside = [v for v in values if not 0 <= v < 1 << 64]
    if outside:
        raise ValueError(f"seeds must lie in [0, 2**64), got {outside[0]}")
    return np.array(values, dtype=np.uint64)


def _haar_coefficients(uniforms: np.ndarray) -> np.ndarray:
    """``_haar_u2`` over rows of four uniforms: a (draws, 4) complex array.

    Python's complex ``*`` and ``/`` (CPython's ``_Py_c_prod`` and
    ``_Py_c_quot``, a real operand taken as imaginary part 0) are written
    out on (real, imaginary) pairs in their operation order, because
    numpy's own complex product and quotient round differently in the last
    bit. ``cmath.exp(2j * pi * x)`` is (cos, sin) of the float product
    2 * pi * x, which numpy's complex ``exp`` reproduces.
    """
    xi = uniforms[:, 0]
    zero = np.zeros(len(xi))
    c, s = (np.sqrt(1.0 - xi), zero), (np.sqrt(xi), zero)
    phase = np.zeros((3, len(xi)), dtype=complex)
    phase.imag = 2.0 * math.pi * uniforms[:, 1:].T
    with np.errstate(invalid="ignore"):  # a NaN phase is left to the norm check
        pa, pb, pg = ((p.real, p.imag) for p in np.exp(phase))
    parts = (
        _c_prod(_c_prod(pg, pa), c),                # |H> -> H
        _c_quot(_c_prod((-pg[0], -pg[1]), s), pb),  # |H> -> V
        _c_prod(_c_prod(pg, pb), s),                # |V> -> H
        _c_quot(_c_prod(pg, c), pa),                # |V> -> V
    )
    return np.stack([x for part in parts for x in part], axis=1).view(complex)


def _c_prod(a, b):
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _c_quot(a, b):
    # both of _Py_c_quot's branches, with the ratio's division made once and
    # only by the larger part, so no lane divides by zero
    (ar, ai), (br, bi) = a, b
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi, br) / np.where(by_real, br, bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    return (np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom)


# -- np.random.default_rng(entropy) over many entropies ------------------------
#
# default_rng hashes the entropy with numpy's SeedSequence into a PCG64 128-bit
# state and increment; random() takes the top 53 bits of each XSL-RR output.
# SeedSequence's hash constants advance per call, not per entropy, so they are
# precomputed; for random(4) the seeding steps and the four outputs fold into
# one jump. Constants from numpy/random/bit_generator.pyx and src/pcg64/pcg64.h.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(h: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """Per hash call, the constant XORed in and the one multiplied by, as columns."""
    xors, mults = [], []
    for _ in range(calls):
        xors.append(h)
        h = h * mult & _MASK32
        mults.append(h)
    return np.array(xors, dtype=np.uint32)[:, None], np.array(mults, dtype=np.uint32)[:, None]


#: mix_entropy: four pool words, then 4 x 3 cross-mixes; generate_state: 8 words
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _words128(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as (high, low) uint64 columns."""
    values = [v % (1 << 128) for v in values]
    return (np.array([[v >> 64] for v in values], dtype=np.uint64),
            np.array([[v & (1 << 64) - 1] for v in values], dtype=np.uint64))


# The seeding leaves state M*(seed_state + inc) + inc, and each output steps
# first, so output k reads M^(k+2) seed_state + (M^(k+2) + ... + M + 1) inc.
_STATE_JUMP = _words128(pow(_PCG64_MULT, k + 2, 1 << 128) for k in range(4))
_INC_JUMP = _words128(sum(pow(_PCG64_MULT, i, 1 << 128) for i in range(k + 3)) for k in range(4))


def _hashmix(values, xors, mults):
    values = (values ^ xors) * mults
    return values ^ values >> 16


def _mulhi64(a, b):
    """High 64 bits of the 128-bit product, from 32-bit halves."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _mul128(x, y):
    """x * y mod 2**128 on (high, low) uint64 pairs."""
    (xh, xl), (yh, yl) = x, y
    return _mulhi64(xl, yl) + xh * yl + xl * yh, xl * yl


def _add128(x, y):
    (xh, xl), (yh, yl) = x, y
    low = xl + yl
    return xh + yh + (low < xl), low


def _seed_sequence(pool: np.ndarray):
    """SeedSequence's PCG64 seed state and increment, (high, low) uint64 arrays each, per column
    of a (4, entropies) uint32 pool; an entropy of fewer than four words is zero-padded alike."""
    xors, mults = _POOL_HASH
    pool = _hashmix(pool, xors[:4], mults[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        hashed = _hashmix(pool[src], xors[k:k + 3], mults[k:k + 3])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ mixed >> 16
    # generate_state(4, uint64): eight hashed words, paired little-endian
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_STATE_HASH).astype(np.uint64)
    seed_state_h, seed_state_l, seq_h, seq_l = words[0::2] | words[1::2] << 32
    return (seed_state_h, seed_state_l), (seq_h << 1 | seq_l >> 63, seq_l << 1 | 1)


def _pcg64_random4(seeds: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(seed).random(4)`` per uint64 seed: a (draws, 4) array."""
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> 32
    seed_state, inc = _seed_sequence(pool)
    high, low = _add128(_mul128(seed_state, _STATE_JUMP), _mul128(inc, _INC_JUMP))
    xored, rot = high ^ low, high >> 58
    out = xored >> rot | xored << (64 - rot & 63)
    return (out >> 11).T * 2.0 ** -53


def _entropy_words(entropy) -> list[int]:
    """SeedSequence's 32-bit words of a non-negative int, or of a tuple of them in turn."""
    values = [operator.index(v) for v in (entropy if isinstance(entropy, tuple) else (entropy,))]
    if min(values) < 0:
        raise ValueError(f"seeds must be non-negative, got {min(values)}")
    return [v >> shift & _MASK32 for v in values for shift in range(0, max(v.bit_length(), 1), 32)]


def _seeded_generators(gen, entropies: list):
    """Per entropy, ``gen`` (a ``Generator(PCG64)``) set to the state ``default_rng(entropy)``
    starts in, valid until the next is drawn. Entropies of at most four 32-bit words
    are hashed in one vectorized pass; a longer one gets its own ``default_rng``."""
    words = [_entropy_words(e) for e in entropies]
    pool = np.array([(w + [0, 0, 0])[:4] for w in words], dtype=np.uint32).reshape(-1, 4)
    seed_states, incs = ([h << 64 | l for h, l in zip(high.tolist(), low.tolist())]
                         for high, low in _seed_sequence(pool.T))
    for entropy, w, seed_state, inc in zip(entropies, words, seed_states, incs):
        if len(w) > 4:
            yield np.random.default_rng(entropy)
        else:  # the seeding steps from 0, adds the seed state and steps again
            state = (seed_state + inc) * _PCG64_MULT + inc & _MASK128
            gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": state, "inc": inc}}
            yield gen


def _apply_collective_noise(amps: dict, params: NoiseParams, channels) -> dict:
    d1, g1, d2, g2 = params.d1, params.g1, params.d2, params.g2
    out: dict = {}
    for (ch, pol, tick), a in amps.items():
        if ch in channels:
            if pol is H:
                ah, av = a * d1, a * g1
            else:
                ah, av = a * d2, a * g2
            if ah != 0j:
                key = (ch, H, tick)
                out[key] = out.get(key, 0j) + ah
            if av != 0j:
                key = (ch, V, tick)
                out[key] = out.get(key, 0j) + av
        else:
            out[(ch, pol, tick)] = a
    return out


def apply_collective_noise(state: PhotonState, params: NoiseParams, channels) -> PhotonState:
    """Apply the same polarization map at every tick of the given channels."""
    if isinstance(channels, str):
        channels = {channels}
    return PhotonState._from_clean(_apply_collective_noise(state.amplitudes, params, set(channels)))
