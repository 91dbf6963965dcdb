"""Deterministic 64-bit PRNG used wherever cross-platform stability matters.

This is splitmix64: a 64-bit Weyl sequence (state += golden gamma) pushed
through an avalanching finalizer on every draw.  It is tiny, well documented
in the literature, and produces identical streams on every platform, which
is what seeded baselines and fold assignment need.  Child seeds are derived
by folding stream indices into the master seed, so independent units of work
(folds, trees, repeats) get independent streams that do not depend on
execution order.  ``extend_seed`` continues a derivation from a seed already
derived, so a caller that derives many streams under one prefix of indices
folds that prefix in once.

The module is pure Python, so the corpus generator, which uses nothing else
of the package's numpy side, imports no numpy.  The trees draw from numpy's
PCG64 instead, seeded with derived seeds; the vectorized seeding they use
lives in ``estimators.seeding``.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """splitmix64 finalizer; bijective avalanche over 64-bit integers."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Derive a child seed from a master seed and a tuple of stream indices."""
    return extend_seed(mix64(master & MASK64), *parts)


def extend_seed(seed: int, *parts: int) -> int:
    """Fold more stream indices into a derived seed:
    ``extend_seed(derive_seed(m, *a), *b) == derive_seed(m, *a, *b)``."""
    for part in parts:
        seed = mix64((seed + GAMMA * ((part & MASK64) + 1)) & MASK64)
    return seed


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) built from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ValueError("randrange requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
