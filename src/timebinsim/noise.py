"""Collective polarization noise: one unknown 2x2 map for a whole train.

The channel applies the same transformation

    |H> -> d1 |H> + g1 |V>
    |V> -> d2 |H> + g2 |V>

to every wavepacket of a transmission, with each image normalized
(|d1|^2 + |g1|^2 = |d2|^2 + |g2|^2 = 1). Unitarity is deliberately not
required: the normalization alone already guarantees norm conservation
for trains that carry a single polarization per time slot, which is the
regime the encoder produces, and the wider class is worth simulating.

Haar and general draws read a counter-based stream: word k of a channel
seed is a splitmix64 hash of the seed and k (Salmon et al., SC'11), so a
draw is a pure function of its seed, and one formula evaluates it on
Python floats for one seed or on numpy arrays for many, bit for bit alike.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .state import H, V, PhotonState, TOLERANCE

_MASK64 = (1 << 64) - 1


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


def _mix64(x):
    # splitmix64 finalizer: cheap, stable, well-distributed; on ints or uint64 arrays
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


#: Words of the channel stream each stochastic ensemble reads.
_WORDS = {"haar": 4, "general": 6}
_GOLDEN = 0x9E3779B97F4A7C15


def _words(seed, count: int):
    """Words 1..count of a channel seed's counter-based stream, uniform in [0, 1).

    Word k is the top 53 bits of ``_mix64(_mix64(seed) + k * _GOLDEN)``: a
    list of floats for an int seed, a (count, seeds) array for a uint64 array.
    """
    base = _mix64(seed)
    if isinstance(seed, np.ndarray):
        k = np.arange(1, count + 1, dtype=np.uint64)[:, None]
        return (_mix64(base + _GOLDEN * k) >> 11) * 2.0 ** -53
    return [(_mix64(base + _GOLDEN * k & _MASK64) >> 11) * 2.0 ** -53 for k in range(1, count + 1)]


def _rows(kind: str, words, sqrt, cis) -> tuple:
    """(re, im) of d1, g1, d2 and g2, flattened, from a stream's words.

    Floats with ``math.sqrt`` and ``cmath.exp``, or arrays with ``np.sqrt``
    and ``np.exp``: the formula takes only real sums and products, which
    IEEE rounds alike, correctly rounded square roots, and ``exp`` of an
    imaginary argument, which both take as (cos, sin) of one float product.
    So one draw and its row of a batch agree bit for bit; qkd's first-row
    check stops a run where a platform's libraries make them disagree.
    """
    def phase(t):
        p = cis(2j * math.pi * t)
        return p.real, p.imag

    if kind == "haar":
        # Euler angles of the uniform measure on U(2): a mixing angle with
        # sin^2 uniform and three uniform phases (Mezzadri 2007)
        xi, a, b, g = words
        c, s = sqrt(1.0 - xi), sqrt(xi)
        pa, pb, pg = phase(a), phase(b), phase(g)
        return (*_scale(_c_prod(pg, pa), c),             # |H> -> H
                *_scale(_c_prod(pg, _conj(pb)), -s),     # |H> -> V
                *_scale(_c_prod(pg, pb), s),             # |V> -> H
                *_scale(_c_prod(pg, _conj(pa)), c))      # |V> -> V
    # each image (sqrt(1 - x) e^(2 pi i a), sqrt(x) e^(2 pi i b)) is uniform on
    # the unit sphere of C^2, where |second entry|^2 is uniform (Hopf coordinates)
    x1, a1, b1, x2, a2, b2 = words
    return (*_scale(phase(a1), sqrt(1.0 - x1)), *_scale(phase(b1), sqrt(x1)),
            *_scale(phase(a2), sqrt(1.0 - x2)), *_scale(phase(b2), sqrt(x2)))


def _c_prod(a, b):
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _conj(a):
    return a[0], -a[1]


def _scale(a, x):
    return a[0] * x, a[1] * x


def sample_noise(ensemble: NoiseEnsemble, seed: int) -> NoiseParams:
    """Deterministic draw: the same (ensemble, seed) always yields the same params.

    A haar or general draw reads the channel stream of ``seed``, which must
    lie in [0, 2**64); the identity and dephasing ensembles read no seed.
    """
    if ensemble.kind == "identity":
        return NoiseParams.identity()
    if ensemble.kind == "dephasing":
        return NoiseParams(1.0, 0.0, 0.0, cmath.exp(1j * ensemble.phi))
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seeds must lie in [0, 2**64), got {seed}")
    parts = _rows(ensemble.kind, _words(seed, _WORDS[ensemble.kind]), math.sqrt, cmath.exp)
    return NoiseParams(*map(complex, parts[0::2], parts[1::2]))


def sample_coefficients(ensemble: NoiseEnsemble, seeds) -> np.ndarray:
    """``sample_noise`` for many seeds: a (draws, 4) complex array.

    Row k is (d1, g1, d2, g2) of ``sample_noise(ensemble, seeds[k])``, bit
    for bit, in the order of ``analysis.BRANCHES``: haar and general rows
    evaluate ``sample_noise``'s formula once over arrays of all the seeds.
    Seeds must lie in [0, 2**64).
    """
    seeds = _seed_array(seeds)
    if ensemble.kind not in _WORDS:
        row = np.array(sample_noise(ensemble, 0).coefficients(), dtype=complex)
        return np.tile(row, (len(seeds), 1))
    with np.errstate(invalid="ignore"):  # a NaN word is left to the norm check
        parts = _rows(ensemble.kind, _words(seeds, _WORDS[ensemble.kind]), np.sqrt, np.exp)
    coefficients = np.stack(parts, axis=1).view(complex)
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


# -- np.random.default_rng(entropy) over many entropies ------------------------
#
# default_rng hashes the entropy with numpy's SeedSequence into a PCG64 128-bit
# state and increment; the sweep's random qubits start from that state.
# SeedSequence's hash constants advance per call, not per entropy, so they are
# precomputed. Constants from numpy/random/bit_generator.pyx and src/pcg64/pcg64.h.

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


def _hashmix(values, xors, mults):
    values = (values ^ xors) * mults
    return values ^ values >> 16


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
