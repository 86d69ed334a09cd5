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
A random qubit reads the same stream, at words no channel draw reads, so
the sweep takes a sample's channel and its qubit from one seed.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .state import H, V, PhotonState, QubitSpec, TOLERANCE

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
    if isinstance(x, np.ndarray):
        # uint64 arithmetic wraps by itself, so no mask; in place on one fresh
        # buffer, never on the caller's array
        y = x >> 30
        y ^= x
        y *= 0xBF58476D1CE4E5B9
        y ^= y >> 27
        y *= 0x94D049BB133111EB
        y ^= y >> 31
        return y
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


#: Words of the channel stream each stochastic ensemble reads, from word 1 on.
_WORDS = {"haar": 4, "general": 6}
#: A qubit reads words 7-9 of its seed's stream: a channel drawn from the same
#: seed reads at most words 1-6, so the two never share a word.
_QUBIT_WORD = 7
_GOLDEN = 0x9E3779B97F4A7C15


def _words(seed, count: int, first: int = 1):
    """Words first..first+count-1 of a seed's counter-based stream, uniform in [0, 1).

    Word k is the top 53 bits of ``_mix64(_mix64(seed) + k * _GOLDEN)``: a
    list of floats for an int seed, a (count, seeds) array for a uint64 array.
    """
    base = _mix64(seed)
    if isinstance(seed, np.ndarray):
        k = np.arange(first, first + count, dtype=np.uint64)[:, None]
        return (_mix64(base + _GOLDEN * k) >> 11) * 2.0 ** -53
    return [(_mix64(base + _GOLDEN * k & _MASK64) >> 11) * 2.0 ** -53 for k in range(first, first + count)]


def _rows(kind: str, words, sqrt, cis) -> tuple:
    """(re, im) of d1, g1, d2 and g2, flattened, from a stream's words.

    Floats with ``math.sqrt`` and ``cmath.exp``, or arrays with ``np.sqrt``
    and ``np.exp``: the formula takes only real sums and products, which
    IEEE rounds alike, correctly rounded square roots, and ``exp`` of an
    imaginary argument, which both take as (cos, sin) of one float product.
    So one draw and its row of a batch agree bit for bit; qkd's first-row
    check stops a run where a platform's libraries make them disagree.
    """
    if kind == "haar":
        # Euler angles of the uniform measure on U(2): a mixing angle with
        # sin^2 uniform and three uniform phases (Mezzadri 2007)
        xi, a, b, g = words
        c, s = sqrt(1.0 - xi), sqrt(xi)
        pa, pb, pg = _phase(a, cis), _phase(b, cis), _phase(g, cis)
        return (*_scale(_c_prod(pg, pa), c),             # |H> -> H
                *_scale(_c_prod(pg, _conj(pb)), -s),     # |H> -> V
                *_scale(_c_prod(pg, pb), s),             # |V> -> H
                *_scale(_c_prod(pg, _conj(pa)), c))      # |V> -> V
    return (*_unit_vector(words[:3], sqrt, cis), *_unit_vector(words[3:], sqrt, cis))


def _unit_vector(words, sqrt, cis) -> tuple:
    """(re, im) of both entries of (sqrt(1 - x) e^(2 pi i a), sqrt(x) e^(2 pi i b)), from words (x, a, b).

    The vector is uniform on the unit sphere of C^2, where |second entry|^2
    is uniform (Hopf coordinates): a general channel's image of a basis state,
    or a random qubit. Evaluated as ``_rows`` is, on floats or on arrays.
    """
    x, a, b = words
    return (*_scale(_phase(a, cis), sqrt(1.0 - x)), *_scale(_phase(b, cis), sqrt(x)))


def _phase(t, cis):
    p = cis(2j * math.pi * t)
    return p.real, p.imag


def _c_prod(a, b):
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _conj(a):
    return a[0], -a[1]


def _scale(a, x):
    return a[0] * x, a[1] * x


def _seed(seed, last: int = 0, name: str = "seed") -> int:
    """``seed`` as an int; raises naming ``name`` if seeds ``seed`` to ``seed + last`` leave [0, 2**64)."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64 - last:
        raise ValueError(f"{name} must be in [0, 2**64), non-negative, "
                         f"with {name} + {last} below 2**64, got {seed}")
    return seed


def sample_noise(ensemble: NoiseEnsemble, seed: int) -> NoiseParams:
    """Deterministic draw: the same (ensemble, seed) always yields the same params.

    A haar or general draw reads the channel stream of ``seed``, which must
    lie in [0, 2**64); the identity and dephasing ensembles read no seed.
    """
    if ensemble.kind == "identity":
        return NoiseParams.identity()
    if ensemble.kind == "dephasing":
        return NoiseParams(1.0, 0.0, 0.0, cmath.exp(1j * ensemble.phi))
    parts = _rows(ensemble.kind, _words(_seed(seed), _WORDS[ensemble.kind]), math.sqrt, cmath.exp)
    return NoiseParams(*map(complex, parts[0::2], parts[1::2]))


def random_qubit(seed: int) -> QubitSpec:
    """A uniformly random pure qubit, read from words 7-9 of the stream of ``seed`` in [0, 2**64)."""
    re_a, im_a, re_b, im_b = _unit_vector(_words(_seed(seed), 3, _QUBIT_WORD), math.sqrt, cmath.exp)
    return QubitSpec(complex(re_a, im_a), complex(re_b, im_b))


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
    return _normalized(np.stack(parts, axis=1).view(complex), seeds, "noise draw")


def sample_qubits(seeds) -> np.ndarray:
    """``random_qubit`` for many seeds: a (draws, 2) complex array of (alpha, beta).

    Row k equals ``random_qubit(seeds[k])`` bit for bit: the one formula is
    evaluated over arrays of all the seeds. Seeds must lie in [0, 2**64).
    """
    seeds = _seed_array(seeds)
    with np.errstate(invalid="ignore"):  # a NaN word is left to the norm check
        parts = _unit_vector(_words(seeds, 3, _QUBIT_WORD), np.sqrt, np.exp)
    return _normalized(np.stack(parts, axis=1).view(complex), seeds, "qubit draw")


def _normalized(rows: np.ndarray, seeds: np.ndarray, what: str) -> np.ndarray:
    """``rows``, one or two unit vectors of C^2 per draw, unless one is not normalized (NaN included).

    Then ValueError names ``what``, the draw's index and its seed.
    """
    vectors = rows.view(float).reshape(rows.shape[0], rows.shape[1] // 2, 4)
    norms = np.einsum("dij,dij->di", vectors, vectors)
    # each bad vector's draw; flat, as an all() over the vectors of a draw costs more than the test
    bad = np.flatnonzero(~(np.abs(norms.ravel() - 1.0) <= TOLERANCE)) // norms.shape[1]
    if len(bad):
        raise ValueError(f"{what} {bad[0]} (seed {seeds[bad[0]]}) not normalized: {norms[bad[0]].tolist()!r}")
    return rows


def _seed_array(seeds) -> np.ndarray:
    """Seeds as a 1-D uint64 array; one outside [0, 2**64) raises instead of wrapping."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        if seeds.ndim != 1:
            raise ValueError(f"seeds must be one-dimensional, got shape {seeds.shape}")
        return seeds
    return np.array([_seed(s) for s in seeds], dtype=np.uint64)


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
