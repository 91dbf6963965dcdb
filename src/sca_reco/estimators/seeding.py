"""PCG64 generators for the trees, seeded in one vectorized pass.

Every forest tree draws from numpy's PCG64, one stream per tree seeded with
a seed derived from the forest's ``random_state`` (``rng.derive_seed``).
``derive_seeds`` derives many such seeds at once, and ``pcg64_generators``
builds their generators: it computes the ``SeedSequence`` words of every
seed in one vectorized pass, which is most of what ``np.random.PCG64(seed)``
costs, so each generator comes out as if built from its seed alone.
``pcg64_words`` takes raw words from bit generators seeded the same way, and
``pcg64_integers`` turns them into the bootstrap draws of
``Generator.integers`` with numpy's own bounding, so a forest's samples
need no ``Generator`` and no per-tree ``integers`` call.

This is the numpy half of the package's seeding.  It lives here, beside the
tree estimators that use it, so that ``rng`` stays pure Python and the
corpus generator runs without importing numpy.
"""

from __future__ import annotations

import functools

import numpy as np

from ..rng import GAMMA, MASK64

# the hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _as_u64(value) -> np.ndarray:
    """Ints, or an integer array, as a uint64 array wrapped to 64 bits."""
    if not isinstance(value, np.ndarray):
        value = np.array(value, dtype=object) & MASK64
    return np.atleast_1d(value).astype(np.uint64)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``rng.mix64`` of every element of a uint64 array (products wrap mod 2**64)."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def derive_seeds(master, *parts) -> np.ndarray:
    """``rng.derive_seed`` element by element over broadcast integer arrays
    (or ints), as a uint64 array."""
    seed = _mix64_array(_as_u64(master))
    for part in parts:
        seed = _mix64_array(seed + np.uint64(GAMMA) * (_as_u64(part) + np.uint64(1)))
    return seed


def _hash(values: np.ndarray, constant: int, multiplier: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 values with its running constant;
    returns the hashed values and the next constant."""
    values = values ^ np.uint32(constant)
    constant = (constant * multiplier) & 0xFFFFFFFF
    values = values * np.uint32(constant)
    return values ^ (values >> 16), constant


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(int(s)).generate_state(4, np.uint64)`` of each uint64 seed,
    as rows of an (n, 4) array.

    A seed below 2**32 is one word of entropy and a larger one two, but the
    pool reads missing words as zeros, so every seed mixes as its low half,
    its high half and two zero words.
    """
    entropy = [seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    entropy += [np.zeros_like(entropy[0])] * (_POOL_SIZE - 2)
    pool, constant = [], _INIT_A
    for word in entropy:
        hashed, constant = _hash(word, constant, _MULT_A)
        pool.append(hashed)
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                hashed, constant = _hash(pool[source], constant, _MULT_A)
                mixed = np.uint32(_MIX_MULT_L) * pool[target] - np.uint32(_MIX_MULT_R) * hashed
                pool[target] = mixed ^ (mixed >> 16)
    state = np.empty((len(seeds), 2 * _POOL_SIZE), dtype=np.uint32)
    constant = _INIT_B
    for word in range(2 * _POOL_SIZE):
        state[:, word], constant = _hash(pool[word % _POOL_SIZE], constant, _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """A seed sequence that hands a bit generator words computed in advance.

    The class is made on first use because it subclasses a numpy.random
    type, and importing numpy.random adds about 6 MB of resident memory
    (numpy 2.4, x86-64 Linux) that a run fitting no tree never needs.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def pcg64_generators(seeds) -> list[np.random.Generator]:
    """``np.random.Generator(np.random.PCG64(int(s)))`` for each seed."""
    words = _seed_sequence_words(_as_u64(seeds))
    seed_words = _seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(row))) for row in words]


def pcg64_words(seeds, n_words: int) -> np.ndarray:
    """The first ``n_words`` raw outputs of ``np.random.PCG64(int(s))`` for
    each seed, as the rows of a uint64 array."""
    seed_words = _seed_words_type()
    words = np.empty((len(seeds), n_words), dtype=np.uint64)
    for row, state in zip(words, _seed_sequence_words(_as_u64(seeds))):
        row[:] = np.random.PCG64(seed_words(state)).random_raw(n_words)
    return words


def pcg64_integers(seeds, n: int) -> np.ndarray:
    """``np.random.Generator(np.random.PCG64(int(s))).integers(0, n, size=n)``
    for each seed, as the rows of an int64 array (``n`` below 2**32).

    numpy bounds each draw with Lemire's method on the next 32-bit half of a
    raw word, low half first: a half ``h`` gives ``(h * n) >> 32`` unless
    ``(h * n) mod 2**32`` falls under ``2**32 mod n``, and then it draws
    again.  So a row is ``ceil(n / 2)`` raw words bounded all at once, and
    only a row with such a rejection (a chance of about n / 2**32 a draw)
    is drawn again by numpy itself.  ``n`` = 1 draws nothing.
    """
    seeds = _as_u64(seeds)
    if n == 1:
        return np.zeros((len(seeds), 1), dtype=np.int64)
    words = pcg64_words(seeds, (n + 1) // 2)
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=2).reshape(len(seeds), -1)[:, :n]
    scaled = halves * np.uint64(n)
    samples = (scaled >> 32).astype(np.int64)
    for t in np.flatnonzero(((scaled & 0xFFFFFFFF) < 2**32 % n).any(axis=1)):
        samples[t] = pcg64_generators(seeds[t : t + 1])[0].integers(0, n, size=n)
    return samples
