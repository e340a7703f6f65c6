"""Markov measures: stationarity, support checks, reproducible sampling and
the frequencies of sampled letters and pairs."""

import tracemalloc

import numpy as np
import pytest

from sftlab import (
    NotStochastic,
    SupportViolation,
    sample_window,
    stationary_markov,
    validate_spec,
)
from sftlab.measure import _BLOCK, _buckets, _chunk_tables, _lane_walk

FULL = validate_spec(2, [])
GOLDEN = validate_spec(2, [(2, 2)])
THREE = validate_spec(3, [(2, 2), (3, 1)])


def full_uniform():
    return stationary_markov(FULL, [[0.5, 0.5], [0.5, 0.5]])


def golden_half():
    return stationary_markov(GOLDEN, [[0.5, 0.5], [1.0, 0.0]])


def three_markov():
    return stationary_markov(THREE, [[0.2, 0.3, 0.5], [0.6, 0.0, 0.4], [0.0, 0.7, 0.3]])


def zero_one_weights():
    # forbidden pairs put interior cumulative weights at exactly 0.0 (row 1)
    # and 1.0 (row 2); 0.5 repeats within row 3 and across all three rows
    spec = validate_spec(3, [(1, 1), (2, 3), (3, 2)])
    return stationary_markov(spec, [[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]])


def three_bench():
    # thresholds 1/3, 1/2, 2/3 with 1/2 in two rows and a 0.0 weight: nb = 4
    return stationary_markov(THREE, [[1 / 3, 1 / 3, 1 / 3], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])


def two_thresholds():
    # thresholds 0.3 and 0.9 on two letters: nb = 3, and the Monte-Carlo
    # kernel walks chunks of its word length, 8
    return stationary_markov(FULL, [[0.3, 0.7], [0.9, 0.1]])


def skewed_three():
    # six distinct thresholds: nb = 7
    spec = validate_spec(3, [])
    return stationary_markov(spec, [[0.1, 0.2, 0.7], [0.45, 0.05, 0.5], [0.3, 0.3, 0.4]])


def four_letters():
    # ten distinct thresholds, 0.5 and 0.75 in two rows: nb = 11, k = 2
    spec = validate_spec(4, [])
    return stationary_markov(
        spec,
        [[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25], [0.05, 0.15, 0.35, 0.45], [0.5, 0.25, 0.15, 0.1]],
    )


def full_25():
    # thresholds j/25: nb = 25, so k = 1
    return stationary_markov(validate_spec(25, []), np.full((25, 25), 1.0 / 25.0))


def random_17():
    # 17 * 16 distinct thresholds: 273 buckets, more than a uint8 holds
    p = np.random.default_rng(17).random((17, 17)) + 0.05
    return stationary_markov(validate_spec(17, []), p / p.sum(axis=1, keepdims=True))


CHUNK_MEASURES = [
    full_uniform, golden_half, three_markov, zero_one_weights, three_bench,
    two_thresholds, skewed_three, four_letters, full_25, random_17,
]


def contract_window(measure, length, seed):
    """The documented sampling contract, literally and one letter at a time:
    one uniform per letter, inverse CDF on the stationary vector for the
    first letter and on the predecessor's transition row after it."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    u = rng.random(length)

    def pick(cum, x):
        return int(np.sum(cum[:-1] <= x))

    cum_rows = np.cumsum(measure.transition, axis=1)
    cur = pick(np.cumsum(measure.stationary), u[0])
    letters = [cur + 1]
    for t in range(1, length):
        cur = pick(cum_rows[cur], u[t])
        letters.append(cur + 1)
    return tuple(letters)


def test_stationary_full_uniform():
    mu = full_uniform()
    assert mu.stationary == pytest.approx([0.5, 0.5], abs=1e-12)


def test_stationary_golden_mean():
    # pi P = pi solved by hand: pi proportional to (1, 1 - a) with a = 0.5
    mu = golden_half()
    assert mu.stationary == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)


def test_stationarity_equation_holds():
    mu = golden_half()
    assert np.max(np.abs(mu.stationary @ mu.transition - mu.stationary)) < 1e-12


def test_support_violation_zero_on_allowed():
    with pytest.raises(SupportViolation):
        stationary_markov(GOLDEN, [[1.0, 0.0], [1.0, 0.0]])


def test_support_violation_positive_on_forbidden():
    with pytest.raises(SupportViolation):
        stationary_markov(GOLDEN, [[0.5, 0.5], [0.9, 0.1]])


def test_not_stochastic():
    with pytest.raises(NotStochastic):
        stationary_markov(FULL, [[0.6, 0.5], [0.5, 0.5]])
    with pytest.raises(NotStochastic):
        stationary_markov(FULL, [[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(NotStochastic):
        stationary_markov(FULL, [[0.5, 0.5]])


def test_sample_window_deterministic():
    mu = full_uniform()
    w1 = sample_window(mu, -1, 10, 1234)
    w2 = sample_window(mu, -1, 10, 1234)
    assert w1 == w2
    assert len(w1) == 12
    assert w1.base_index == -1
    assert sample_window(mu, -1, 10, 1235) != w1


def test_sample_window_tuple_seed():
    mu = full_uniform()
    assert sample_window(mu, 0, 9, (7, 3)) == sample_window(mu, 0, 9, (7, 3))
    assert sample_window(mu, 0, 9, (7, 3)) != sample_window(mu, 0, 9, (7, 4))


@pytest.mark.parametrize("make", CHUNK_MEASURES)
def test_sample_window_matches_contract_reference(make):
    mu = make()
    # lengths 1 (first letter only), 2 (one step), 51 and 54 (one short block)
    # and 2*_BLOCK + 37 (whole blocks of _BLOCK letters and a short last one)
    for seed in (2024, (7, 3)):
        for length in (1, 2, 51, 54, 2 * _BLOCK + 37):
            assert sample_window(mu, -1, length - 2, seed).letters == contract_window(mu, length, seed)
    # many seeds spread the first uniforms over [0, 1), so the first letter's
    # inverse CDF is exercised between every pair of weights
    for seed in [*range(32), *((7, i) for i in range(32))]:
        assert sample_window(mu, 0, 2, seed).letters == contract_window(mu, 3, seed)
    # a window's letters do not depend on its length
    assert sample_window(mu, 0, 4999, 31).letters[:50] == sample_window(mu, 0, 49, 31).letters


@pytest.mark.parametrize("make", CHUNK_MEASURES)
def test_chunk_tables_step_at_thresholds(make):
    # sampling never draws u exactly at a threshold or at 0.0, so check the
    # bucket of those u, and the step its position's word takes, against
    # the contract's inverse CDF directly; then every position against
    # steps: position s*nb**k + code has the word of s and the k letters
    # after it, and the words are distinct, each the word of some position
    mu = make()
    cum_rows = np.cumsum(mu.transition, axis=1)
    theta, pairs, pair_of, last = _chunk_tables(mu, 1)
    l = len(cum_rows)
    assert pairs.shape[1] == 2
    assert theta == sorted({float(c) for c in cum_rows[:, :-1].ravel() if 0.0 < c < 1.0})
    nb = len(theta) + 1
    assert pair_of.shape == (l * nb,)
    steps = pairs[pair_of]  # the step of letter s in bucket q, at position s*nb + q
    probes = [0.0, *theta, *np.nextafter(theta, 0.0), *np.nextafter(theta, 1.0)]
    buckets = _buckets(np.array(probes), theta, np.intp)
    for x, q in zip(probes, buckets):
        for s in range(l):
            assert steps[s * nb + q, 0] == s
            assert steps[s * nb + q, 1] == np.sum(cum_rows[s, :-1] <= x), (x, s)
    for k in [k for k in (1, 3, 9) if nb**k <= 4096]:
        theta, words, word_of, last = _chunk_tables(mu, k)
        nbk = nb**k
        assert words.shape[1] == k + 1
        assert word_of.shape == last.shape == (l * nbk,)
        assert np.array_equal(np.unique(word_of), np.arange(len(words)))
        assert len({tuple(w) for w in words.tolist()}) == len(words)
        for s in range(l):
            for code in range(nbk):
                p = s * nbk + code
                row = words[word_of[p]]
                assert row[0] == s
                cur = s
                for i in range(k):
                    cur = steps[cur * nb + code // nb ** (k - 1 - i) % nb, 1]
                    assert row[i + 1] == cur
                assert last[p] == cur * nbk


@pytest.mark.parametrize("make", [golden_half, three_markov])
def test_lane_walk_lanes_match_one_lane_windows(make):
    # the lanes walk chunks of 3 letters in blocks of 768, sample_window
    # one letter at a time: the two implementations must agree; a lane's
    # first letter starts the word of its first chunk
    mu = make()
    seeds = [(5, i) for i in range(37)]
    n_letters = 2 * _BLOCK + 37
    words, walk = _lane_walk(mu, seeds, n_letters, 3)
    blocks = list(walk)
    letters = [words[blocks[0][1][0], :1]]
    letters += [words[ids.T, 1:].reshape(len(seeds), -1)[:, :b] for b, ids in blocks]
    lanes = np.concatenate(letters, axis=1)
    assert lanes.shape == (37, n_letters)
    for seed, row in zip(seeds, lanes):
        assert tuple((row + 1).tolist()) == sample_window(mu, 0, n_letters - 1, seed).letters


@pytest.mark.parametrize("make", [golden_half, three_bench, two_thresholds, four_letters])
def test_lane_walk_any_chunk_length_matches_contract(make):
    # the Monte-Carlo kernel walks chunks of its word length, and any
    # chunk length walks the contract's letters in blocks of k * 2**m
    # letters (2**m whole chunks, the most within _BLOCK) and a short last
    # block, and every chunk's word starts with the letter before the chunk
    mu = make()
    seeds = [(9, i) for i in range(5)]
    n_letters = 2 * _BLOCK + 2
    expected = np.array([contract_window(mu, n_letters, seed) for seed in seeds]) - 1
    nb = len(_chunk_tables(mu, 1)[0]) + 1
    for k, block in ((1, 1024), (2, 1024), (3, 768), (4, 1024), (8, 1024)):
        if nb**k > 8192:
            continue
        words, walk = _lane_walk(mu, seeds, n_letters, k)
        assert words.shape[1] == k + 1
        letters, sizes, t0 = [], [], 1
        for b, ids in walk:
            assert ids.shape == (-(-b // k), len(seeds))
            assert np.array_equal(words[ids, 0], expected[:, t0 - 1 : t0 - 1 + b : k].T)
            letters.append(words[ids.T, 1:].reshape(len(seeds), -1)[:, :b])
            sizes.append(b)
            t0 += b
        assert sizes == [block, block, n_letters - 1 - 2 * block]
        assert np.array_equal(np.concatenate(letters, axis=1), expected[:, 1:])


def test_lane_walk_memory_per_lane():
    # peak traced memory over two blocks at 1000 lanes in chunks of 8
    # letters, the Monte-Carlo kernel's word length on this shift, with the
    # caller holding the previous block: a block's uniforms (8 kB per lane),
    # its buckets and codes, its letters and the previous block's, about 21 kB
    mu = full_uniform()
    lanes = 1000
    tracemalloc.start()
    try:
        words, walk = _lane_walk(mu, [(3, i) for i in range(lanes)], 1 + 2 * _BLOCK, 8)
        for b, ids in walk:
            block = words[ids.T, 1:].reshape(lanes, -1)[:, :b]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / lanes <= 24_000


def test_sample_window_memory_per_letter():
    # a long window holds its letters (a list of small ints, then the
    # Word's tuple) and one block of uniforms, about 21 bytes a letter; one
    # draw of the whole window as Python floats would add 32 bytes a letter
    mu = golden_half()
    n = 200_000
    tracemalloc.start()
    try:
        sample_window(mu, 0, n - 1, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 32


def test_sample_window_pinned_letters():
    # the first 40 golden-mean letters at seed (7, 3), as the per-letter
    # implementation of the contract drew them
    w = sample_window(golden_half(), 0, 39, (7, 3))
    assert "".join(map(str, w.letters)) == "2112121121111121211211112112111212121212"


def test_golden_samples_avoid_forbidden_word():
    mu = golden_half()
    w = sample_window(mu, 0, 20000, 99)
    assert all(GOLDEN.allows(a, b) for a, b in zip(w.letters, w.letters[1:]))
    assert (2, 2) not in set(zip(w.letters, w.letters[1:]))


def test_letter_frequencies_match_stationary():
    # law of large numbers at 3 sigma over 1e6 steps
    mu = golden_half()
    n = 1_000_000
    w = sample_window(mu, 0, n - 1, 2024)
    freq1 = w.letters.count(1) / n
    assert abs(freq1 - 2.0 / 3.0) < 3.0 / np.sqrt(n)


def test_pair_frequencies_match_cylinders():
    # ergodic sampling: length-2 word frequencies converge to the cylinder
    # probabilities pi_a P_ab (3 sigma, 1e6 steps)
    mu = golden_half()
    n = 1_000_000
    w = sample_window(mu, 0, n, 555)
    pairs = list(zip(w.letters, w.letters[1:]))
    for target in ((1, 1), (1, 2), (2, 1)):
        emp = pairs.count(target) / n
        a, b = target
        exact = mu.stationary[a - 1] * mu.transition[a - 1, b - 1]
        assert abs(emp - exact) < 3.0 / np.sqrt(n)


def test_generator_stream_is_call_size_independent():
    # the sampling contract splits one stream into blocks; numpy's
    # Generator.random must consume the stream identically either way
    s = np.random.SeedSequence((42, 0))
    a = np.random.Generator(np.random.PCG64(s))
    b = np.random.Generator(np.random.PCG64(s))
    left = np.concatenate([a.random(5), a.random(3)])
    assert np.array_equal(left, b.random(8))


def test_sample_window_rejects_reversed_indices():
    with pytest.raises(ValueError, match="first_index must be <= last_index"):
        sample_window(full_uniform(), 3, 2, 0)
