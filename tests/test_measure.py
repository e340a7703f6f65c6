"""Markov measures: stationarity, support checks, reproducible sampling and
cylinder probabilities."""

import numpy as np
import pytest

from sftlab import (
    NotStochastic,
    SupportViolation,
    Word,
    cylinder_probability,
    is_admissible,
    sample_window,
    stationary_markov,
    validate_spec,
)
from sftlab.measure import _BLOCK

FULL = validate_spec(2, [])
GOLDEN = validate_spec(2, [(2, 2)])
THREE = validate_spec(3, [(2, 2), (3, 1)])


def full_uniform():
    return stationary_markov(FULL, [[0.5, 0.5], [0.5, 0.5]])


def golden_half():
    return stationary_markov(GOLDEN, [[0.5, 0.5], [1.0, 0.0]])


def three_markov():
    return stationary_markov(THREE, [[0.2, 0.3, 0.5], [0.6, 0.0, 0.4], [0.0, 0.7, 0.3]])


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


@pytest.mark.parametrize("make", [full_uniform, golden_half, three_markov])
def test_sample_window_matches_contract_reference(make):
    mu = make()
    # lengths 1 (first letter only), 51 (one short block) and 2*_BLOCK + 37
    # (whole blocks and a short last one)
    for seed in (2024, (7, 3)):
        for length in (1, 51, 2 * _BLOCK + 37):
            assert sample_window(mu, -1, length - 2, seed).letters == contract_window(mu, length, seed)
    # many seeds spread the first uniforms over [0, 1), so the first letter's
    # inverse CDF is exercised between every pair of weights
    for seed in [*range(32), *((7, i) for i in range(32))]:
        assert sample_window(mu, 0, 2, seed).letters == contract_window(mu, 3, seed)


def test_sample_window_pinned_letters():
    # the first 40 golden-mean letters at seed (7, 3), as the per-letter
    # implementation of the contract drew them
    w = sample_window(golden_half(), 0, 39, (7, 3))
    assert "".join(map(str, w.letters)) == "2112121121111121211211112112111212121212"


def test_golden_samples_avoid_forbidden_word():
    mu = golden_half()
    w = sample_window(mu, 0, 20000, 99)
    assert is_admissible(GOLDEN, w)
    assert (2, 2) not in set(zip(w.letters, w.letters[1:]))


def test_letter_frequencies_match_stationary():
    # law of large numbers at 3 sigma over 1e6 steps
    mu = golden_half()
    n = 1_000_000
    w = sample_window(mu, 0, n - 1, 2024)
    freq1 = w.letters.count(1) / n
    assert abs(freq1 - 2.0 / 3.0) < 3.0 / np.sqrt(n)


def test_pair_frequencies_match_cylinders():
    # ergodic sampling: length-2 word frequencies converge to cylinder
    # probabilities (3 sigma, 1e6 steps)
    mu = golden_half()
    n = 1_000_000
    w = sample_window(mu, 0, n, 555)
    pairs = list(zip(w.letters, w.letters[1:]))
    for target in ((1, 1), (1, 2), (2, 1)):
        emp = pairs.count(target) / n
        exact = cylinder_probability(mu, Word(target))
        assert abs(emp - exact) < 3.0 / np.sqrt(n)


def test_cylinder_probability_full_uniform():
    mu = full_uniform()
    assert cylinder_probability(mu, Word((1, 2))) == pytest.approx(0.25, abs=1e-15)


def test_cylinder_probability_golden():
    mu = golden_half()
    assert cylinder_probability(mu, Word((2, 1))) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_cylinder_single_letter_is_stationary():
    mu = golden_half()
    for j in (1, 2):
        assert cylinder_probability(mu, Word((j,))) == pytest.approx(mu.stationary[j - 1], abs=1e-15)


def test_cylinder_base_index_invariance():
    mu = golden_half()
    for base in (-3, 0, 7):
        assert cylinder_probability(mu, Word((1, 2, 1), base)) == cylinder_probability(
            mu, Word((1, 2, 1), 0)
        )


def test_cylinder_additivity():
    mu = golden_half()
    for prefix in ((1,), (2,), (1, 2), (1, 1, 2)):
        total = sum(
            cylinder_probability(mu, Word(prefix + (j,)))
            for j in (1, 2)
            if GOLDEN.allows(prefix[-1], j)
        )
        assert total == pytest.approx(cylinder_probability(mu, Word(prefix)), abs=1e-12)


def test_empty_word_has_probability_one():
    assert cylinder_probability(full_uniform(), Word(())) == 1.0


def test_generator_stream_is_call_size_independent():
    # the sampling contract splits one stream into blocks; numpy's
    # Generator.random must consume the stream identically either way
    s = np.random.SeedSequence((42, 0))
    a = np.random.Generator(np.random.PCG64(s))
    b = np.random.Generator(np.random.PCG64(s))
    left = np.concatenate([a.random(5), a.random(3)])
    assert np.array_equal(left, b.random(8))
