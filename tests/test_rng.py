"""The seeded generator must reproduce the published splitmix64 stream, and
the batch-built tree generators and bootstrap draws must equal numpy's own,
seed by seed."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sca_reco.estimators import forest, seeding
from sca_reco.estimators.seeding import derive_seeds, pcg64_generators
from sca_reco.rng import MASK64, SplitMix64, derive_seed, extend_seed, mix64

# First five outputs of splitmix64 for seed 0, as published with the
# reference implementation.
SEED0_STREAM = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)


def test_seed0_known_vectors():
    stream = SplitMix64(0)
    assert tuple(stream.next_u64() for _ in range(5)) == SEED0_STREAM


def test_arbitrary_seed_known_vectors():
    # Frozen from an independent recomputation of the reference algorithm.
    stream = SplitMix64(0x0123456789ABCDEF)
    assert stream.next_u64() == 0x157A3807A48FAA9D
    assert stream.next_u64() == 0xD573529B34A1D093
    assert stream.next_u64() == 0x2F90B72E996DCCBE


def test_mix64_is_bijective_on_sample():
    values = [mix64(v) for v in range(4096)]
    assert len(set(values)) == len(values)
    assert all(0 <= v <= MASK64 for v in values)


def test_seed_is_masked_to_64_bits():
    wide = SplitMix64((1 << 64) + 7)
    narrow = SplitMix64(7)
    assert wide.next_u64() == narrow.next_u64()


def test_derive_seed_distinguishes_parts():
    master = 42
    seen = {derive_seed(master)}
    for part in range(100):
        seen.add(derive_seed(master, part))
    # (i,) vs (i, j) nestings must not collide either
    seen.add(derive_seed(master, 0, 0))
    seen.add(derive_seed(master, 1, 1))
    assert len(seen) == 103


def test_derive_seed_deterministic():
    assert derive_seed(9, 1, 2) == derive_seed(9, 1, 2)
    assert derive_seed(9, 1, 2) != derive_seed(9, 2, 1)


def test_uniform_range():
    stream = SplitMix64(123)
    draws = [stream.uniform() for _ in range(1000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.4 < sum(draws) / len(draws) < 0.6


def test_randrange_bounds_and_coverage():
    stream = SplitMix64(7)
    counts = Counter(stream.randrange(3) for _ in range(3000))
    assert set(counts) == {0, 1, 2}
    for value in counts.values():
        assert 850 < value < 1150  # loose uniformity check


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randrange(0)


def test_randrange_n1_draws_nothing_surprising():
    stream = SplitMix64(5)
    assert all(stream.randrange(1) == 0 for _ in range(10))


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=2, max_value=12))
def test_shuffle_is_a_permutation(seed, n):
    items = list(range(n))
    SplitMix64(seed).shuffle(items)
    assert sorted(items) == list(range(n))


def test_shuffle_deterministic():
    a = list(range(20))
    b = list(range(20))
    SplitMix64(99).shuffle(a)
    SplitMix64(99).shuffle(b)
    assert a == b
    c = list(range(20))
    SplitMix64(100).shuffle(c)
    assert a != c


@given(
    st.integers(-(2**70), 2**70),
    st.lists(st.integers(-(2**70), 2**70), max_size=4),
    st.lists(st.integers(-(2**70), 2**70), max_size=4),
)
def test_extend_seed_continues_a_derivation(master, prefix, rest):
    assert extend_seed(derive_seed(master, *prefix), *rest) == derive_seed(master, *prefix, *rest)


# seeds at the edges of one and two 32-bit entropy words, plus any 64-bit seed
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, MASK64]
SEEDS = st.lists(st.integers(0, MASK64), max_size=20).map(lambda drawn: EDGE_SEEDS + drawn)


@settings(max_examples=200)
@given(st.integers(-(2**70), 2**70), SEEDS, st.integers(-(2**70), 2**70))
def test_derive_seeds_equals_derive_seed(master, parts, last):
    assert derive_seeds(master).tolist() == [derive_seed(master)]
    derived = derive_seeds(master, np.array(parts, dtype=np.uint64), last)
    assert derived.dtype == np.uint64
    assert derived.tolist() == [derive_seed(master, part, last) for part in parts]
    assert derive_seeds(parts).tolist() == [derive_seed(seed) for seed in parts]


def test_derive_seeds_takes_signed_arrays_like_ints():
    parts = np.array([-1, -(2**63), 0, 2**63 - 1], dtype=np.int64)
    assert derive_seeds(9, parts, 1).tolist() == [derive_seed(9, p, 1) for p in parts.tolist()]


@settings(max_examples=100)
@given(SEEDS)
def test_batch_built_generators_equal_numpy_seeding(seeds):
    generators = pcg64_generators(np.array(seeds, dtype=np.uint64))
    assert len(generators) == len(seeds)
    for generator, seed in zip(generators, seeds):
        assert generator.bit_generator.state == np.random.PCG64(seed).state
    for generator, seed in zip(pcg64_generators(derive_seeds(7, np.arange(5), 1)), range(5)):
        expected = np.random.PCG64(derive_seed(7, seed, 1)).state
        assert generator.bit_generator.state == expected


@settings(max_examples=250)
@given(st.integers(0, MASK64), st.integers(1, 40), st.integers(1, 12))
def test_permuted_rows_are_successive_permutations(seed, d, rows):
    # trees draw their per-node permutation(d) in blocks with permuted()
    blocked = np.random.Generator(np.random.PCG64(seed))
    one_by_one = np.random.Generator(np.random.PCG64(seed))
    drawn = np.empty((rows, d), dtype=np.int64)
    blocked.permuted(np.broadcast_to(np.arange(d), (rows, d)), axis=1, out=drawn)
    assert (drawn == np.array([one_by_one.permutation(d) for _ in range(rows)])).all()
    assert blocked.bit_generator.state == one_by_one.bit_generator.state


def numpy_bootstrap(seed, t, n):
    return np.random.Generator(np.random.PCG64(derive_seed(seed, t, 0))).integers(0, n, size=n)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, MASK64),
    st.one_of(st.sampled_from([1, 2, 3, 128, 190, 255, 256, 257, 400]), st.integers(1, 400)),
    st.integers(1, 300),
)
def test_bootstrap_rows_equal_numpy_integers(seed, n, n_trees):
    samples = forest._bootstrap(seed, n_trees, n, True)
    assert samples.shape == (n_trees, n) and samples.dtype == np.int64
    for t in range(n_trees):
        assert (samples[t] == numpy_bootstrap(seed, t, n)).all()


def test_bootstrap_row_with_a_lemire_rejection_is_drawn_again(monkeypatch):
    """A raw word whose halves fall under Lemire's threshold makes numpy
    draw again, so the sampler must hand that row to numpy."""
    n = 190  # 2**32 % 190 = 6: a half of 0 is rejected
    assert 2**32 % n > 0
    original = seeding.pcg64_words

    def one_row_rejected(seeds, n_words):
        words = original(seeds, n_words)
        words[1] = 0  # every draw of tree 1 rejected, which would give zeros
        return words

    monkeypatch.setattr(seeding, "pcg64_words", one_row_rejected)
    samples = forest._bootstrap(3, 4, n, True)
    for t in range(4):
        assert (samples[t] == numpy_bootstrap(3, t, n)).all()
    assert samples[1].any()
