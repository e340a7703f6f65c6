"""Exponent estimators: periodic closed forms, Monte-Carlo statistics and
determinism, the exclusion windows and the periodic-approximation
diagnostic."""

import errno
import itertools
import math
import os
import random
import signal
import time
from fractions import Fraction

import numpy as np
import pytest

from sftlab import (
    PeriodicPoint,
    ScaledMat2,
    SingularEnergy,
    Word,
    a_matrix,
    cocycle_product,
    enumerate_periodic_points,
    in_exclusion_window,
    kalinin_profile,
    lyapunov_mc,
    lyapunov_mc_grid,
    lyapunov_periodic,
    sample_window,
    scaled_from,
    stationary_markov,
    validate_spec,
)
import sftlab.lyapunov as lyapunov_module
from sftlab.lyapunov import _WORD_BITS_MAX, _block_slots, _mc_rates, _step_bits, _word_steps
from sftlab.measure import _BLOCK, _lane_walk, _thresholds, _walk_size

FULL = validate_spec(2, [])
GOLDEN = validate_spec(2, [(2, 2)])
FULL_UNIFORM = stationary_markov(FULL, [[0.5, 0.5], [0.5, 0.5]])
GOLDEN_HALF = stationary_markov(GOLDEN, [[0.5, 0.5], [1.0, 0.0]])
THREE = validate_spec(3, [(2, 2), (3, 1)])
THREE_MARKOV = stationary_markov(THREE, [[0.2, 0.3, 0.5], [0.6, 0.0, 0.4], [0.0, 0.7, 0.3]])
FULL4_UNIFORM = stationary_markov(validate_spec(4, []), np.full((4, 4), 0.25))
FULL25_UNIFORM = stationary_markov(validate_spec(25, []), np.full((25, 25), 0.04))
# thresholds 0.3 and 0.9: three buckets, so the walk in chunks of the word
# length L = 8 has 2 * 3**8 positions for 512 words
TWO_THRESHOLDS = stationary_markov(FULL, [[0.3, 0.7], [0.9, 0.1]])
# near-deterministic: nb = 1 and two words at every length, so only the
# entry-growth cap ends the word length
TWO_CYCLE = stationary_markov(validate_spec(2, [(1, 1), (2, 2)]), [[0.0, 1.0], [1.0, 0.0]])
# each letter has two successors: 512 words of 8 letters, but five buckets
# give 4 * 5**7 walk positions, above 2**16, so the walk cap sets L = 6
SPARSE4 = stationary_markov(
    validate_spec(4, [(1, 1), (2, 2), (3, 3), (4, 4), (1, 3), (3, 1), (2, 4), (4, 2)]),
    [[0.0, 0.3, 0.0, 0.7], [0.6, 0.0, 0.4, 0.0], [0.0, 0.5, 0.0, 0.5], [0.2, 0.0, 0.8, 0.0]],
)
# the kernel's shapes: word length L and letters per whole sampler block,
# L * 2**m with 2**m whole words the most that fit in _BLOCK letters
KERNEL_SHAPES = {
    "full": (FULL_UNIFORM, 8, 1024),
    "golden": (GOLDEN_HALF, 11, 704),
    "three": (THREE_MARKOV, 6, 768),
    "full4": (FULL4_UNIFORM, 3, 768),
    "full25": (FULL25_UNIFORM, 1, 1024),
    "nb3": (TWO_THRESHOLDS, 8, 1024),
    "cycle2": (TWO_CYCLE, 16, 1024),
    "sparse4": (SPARSE4, 6, 768),
}
P1 = PeriodicPoint.from_letters((1,))
P12 = PeriodicPoint.from_letters((1, 2))
LN2_OVER_2 = 0.34657359027997264


@pytest.fixture
def one_worker(monkeypatch):
    """Keep _mc_rates in-process, one worker, whatever the host's CPUs: a
    spy or stand-in patched into the kernel sees only the calls of this
    process, and an assertion inside it would surface in a forked worker
    only as a worker failure."""
    monkeypatch.setattr(lyapunov_module, "_usable_cpus", lambda: 1)


def growth_rate(sm, n_steps):
    """Per-step expansion rate of an accumulated renormalized product."""
    return (sm.log_scale + math.log(sm.mat.spectral_norm())) / n_steps


# ------------------------------------------------------------- periodic


def test_periodic_fixed_point_vanishes():
    for k in (0.2, 1.0, math.pi / 2, 2.9):
        assert lyapunov_periodic(P1, k) == 0.0


def test_periodic_alternating_at_half_pi():
    # monodromy diag(-2, -1/2): spectral radius 2, period 2
    assert lyapunov_periodic(P12, math.pi / 2) == pytest.approx(LN2_OVER_2, abs=1e-10)


def test_periodic_alternating_inside_band():
    # cos^2(1.0) > 1/9, so k = 1.0 lies inside the band: exponent 0
    assert math.cos(1.0) ** 2 > 1.0 / 9.0
    assert lyapunov_periodic(P12, 1.0) == 0.0


def test_periodic_matches_rate_of_repeated_cycle():
    # n -> infinity rate along the repeated cycle, extracted by the
    # difference quotient (log||A_{2N}|| - log||A_N||)/N, which converges
    # exponentially fast for a hyperbolic monodromy
    p = P12
    k = math.pi / 2
    n1 = 40 * p.period
    n2 = 80 * p.period
    r1 = cocycle_product(k, p.window(-1, n1 - 1))
    r2 = cocycle_product(k, p.window(-1, n2 - 1))
    log_n1 = r1.log_scale + math.log(r1.mat.spectral_norm())
    log_n2 = r2.log_scale + math.log(r2.mat.spectral_norm())
    rate = (log_n2 - log_n1) / (n2 - n1)
    assert rate == pytest.approx(lyapunov_periodic(p, k), abs=1e-8)
    # elliptic case: the plain rate itself collapses like (log n)/n
    k_in_band = 1.0
    r = cocycle_product(k_in_band, p.window(-1, 4000 * p.period - 1))
    assert growth_rate(r, 4000 * p.period) == pytest.approx(0.0, abs=1e-3)


# ------------------------------------------------------------ monte carlo


def test_mc_validates_arguments():
    with pytest.raises(ValueError):
        lyapunov_mc(FULL_UNIFORM, 1.0, 100, 10, 0)
    with pytest.raises(ValueError):
        lyapunov_mc(FULL_UNIFORM, 1.0, 2000, 1, 0)


def test_mc_singular_energy():
    from sftlab import SingularEnergy

    with pytest.raises(SingularEnergy):
        lyapunov_mc(FULL_UNIFORM, math.pi, 2000, 4, 0)


def test_mc_positive_inside_spectrum_free_region():
    est = lyapunov_mc(FULL_UNIFORM, 1.0, 20_000, 20, 11)
    assert est.value > 3.0 * est.stderr
    assert est.value > 0.01
    assert est.value == pytest.approx(0.0443, abs=0.01)  # long-run reference


def test_mc_cancellation_at_half_pi():
    est = lyapunov_mc(FULL_UNIFORM, math.pi / 2, 50_000, 16, 23)
    assert abs(est.value) < max(2e-3, 3.0 * est.stderr) + 2e-3


def _half_pi_sigma(measure):
    """sigma with sigma**2 = 2 <f, (I + P)^-1 f>_pi - <f, f>_pi and
    f = log w - pi(log w): the spread of S_n / sqrt(n) for the alternating
    sum S_n = sum_j (-1)**j log w_j of the stationary chain (Meyn & Tweedie,
    Markov Chains and Stochastic Stability, ch. 17)."""
    pi, p = measure.stationary, measure.transition
    log_w = np.log(np.arange(1, len(pi) + 1))
    f = log_w - pi @ log_w
    return math.sqrt(2.0 * (pi * f) @ np.linalg.solve(np.eye(len(pi)) + p, f) - (pi * f) @ f)


# letter 1 <-> letters 2 and 3: the sign +1 on 1 and -1 on 2 and 3 flips
# along every allowed pair
BIPARTITE = stationary_markov(
    validate_spec(3, [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]), [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
)
# the alternation 1, 2, 1, 2 breaks once in about 1000 steps, so S_n drifts
# far between sign changes: the product loses its small direction unless
# each column keeps its own scale
STICKY_ALTERNATION = stationary_markov(FULL, [[1e-3, 0.999], [0.999, 1e-3]])
# measure and the sigma of _half_pi_sigma, or None on the bipartite shift
NULL_MODELS = {
    "full": (FULL_UNIFORM, 0.3465736),  # ln 2 / 2: iid letters
    "golden": (GOLDEN_HALF, 0.5659523),
    "three": (THREE_MARKOV, 0.3215079),
    "bipartite": (BIPARTITE, None),
    "sticky": (STICKY_ALTERNATION, 10.954138),
}


def test_mc_half_pi_reads_the_null_model():
    # companion to acceptance criterion 6 (ROADMAP item 9): at pi/2 every
    # step matrix is antidiagonal, so a sample's log is +-S_n + O(1).  On
    # the bipartite shift S_n / n tends to |sum_s pi_s sign(s) log s|,
    # (ln 2 + ln 3) / 4 here; otherwise S_n / sqrt(n) tends to N(0, sigma**2),
    # and a true zero reads E|sigma Z| / sqrt(n) = sigma * sqrt(2 / (pi n)),
    # about 13 stderr above 0 with 100 samples, not 0
    for name, (measure, sigma) in NULL_MODELS.items():
        if sigma is not None:
            assert _half_pi_sigma(measure) == pytest.approx(sigma, rel=1e-6), name
        for n in (10_000, 100_000):
            est = lyapunov_mc(measure, math.pi / 2, n, 100, 20260811)
            if sigma is None:
                predicted = (math.log(2) + math.log(3)) / 4
            else:
                predicted = sigma * math.sqrt(2 / (math.pi * n))
            assert abs(est.value - predicted) < 3.0 * est.stderr, (name, n)
            assert est.value > 10.0 * est.stderr, (name, n)


def test_mc_bias_near_zero_energy_is_order_one_over_n():
    # ROADMAP item 7: log||M_n|| = gamma n + O(1) and the O(1) term is large
    # near k = 0, so r_n = gamma + b / n + ... with b about 3.2-3.5 on the
    # uniform full shift at k = 0.05, far above the stderr; r_n - r_4n =
    # 3 b / (4 n) reads b without an oracle for gamma
    n = 25_000
    r_n = lyapunov_mc(FULL_UNIFORM, 0.05, n, 100, 20260811).value
    r_4n = lyapunov_mc(FULL_UNIFORM, 0.05, 4 * n, 100, 20260811).value
    assert 2.5 <= 4.0 / 3.0 * n * (r_n - r_4n) <= 4.5


@pytest.mark.parametrize(
    "measure, a", [(FULL_UNIFORM, Fraction(1, 16)), (GOLDEN_HALF, Fraction(3, 160))], ids=["full", "golden"]
)
def test_mc_richardson_rate_near_zero_energy_reads_the_k_squared_law(measure, a):
    # ROADMAP items 7 and 15: gamma = a k**2 + O(k**4) near k = 0 (Matsuda &
    # Ishii 1970), with a exact: 1/16 on the uniform full shift, 3/160 on
    # the golden mean.  Each lane shares its stream prefix between n and
    # 4 n steps, so (4 r_4n - r_n) / 3 per lane cancels the b / n bias of
    # test_mc_bias_near_zero_energy_is_order_one_over_n and must read the
    # law within 3 stderr, where the raw r_n misses it by more
    k, n = 0.05, 100_000
    law = float(a) * k * k
    r_n = _mc_rates(measure, [k], n, 100, 20260811)[0]
    r_4n = _mc_rates(measure, [k], 4 * n, 100, 20260811)[0]

    def z(rates):
        return (rates.mean() - law) / (rates.std(ddof=1) / math.sqrt(len(rates)))

    assert abs(z((4.0 * r_4n - r_n) / 3.0)) < 3.0
    assert abs(z(r_n)) > 3.0


def test_mc_nonnegative():
    for k in (0.1, 1.0, 2.0):
        est = lyapunov_mc(FULL_UNIFORM, k, 2000, 8, 3)
        assert est.value >= -1e-6


def test_mc_subadditivity_bound():
    # a single-step norm bound: the rate never exceeds the largest
    # log-norm among the allowed pairs
    for measure, spec in ((FULL_UNIFORM, FULL), (GOLDEN_HALF, GOLDEN)):
        k = 0.7
        bound = max(
            math.log(a_matrix(k, i, j).spectral_norm())
            for i in spec.letters
            for j in spec.letters
            if spec.allowed[i - 1][j - 1]
        )
        est = lyapunov_mc(measure, k, 2000, 8, 5)
        assert est.value <= bound + 1e-9


def test_mc_seed_determinism():
    a = lyapunov_mc(GOLDEN_HALF, 0.8, 5000, 8, 123)
    b = lyapunov_mc(GOLDEN_HALF, 0.8, 5000, 8, 123)
    assert a == b
    c = lyapunov_mc(GOLDEN_HALF, 0.8, 5000, 8, 124)
    assert c.value != a.value


def test_mc_branch_invariance_bitwise():
    k = 0.8
    k2 = math.acos(math.cos(k))
    a = lyapunov_mc(GOLDEN_HALF, k, 5000, 8, 99)
    b = lyapunov_mc(GOLDEN_HALF, k2, 5000, 8, 99)
    assert a.value == b.value
    assert a.stderr == b.stderr


def test_mc_grid_matches_single_energy_calls():
    ks = [0.4, 0.9, 1.9, 2.6]
    grid = lyapunov_mc_grid(FULL_UNIFORM, ks, 5000, 8, 7)
    for k, est in zip(ks, grid):
        single = lyapunov_mc(FULL_UNIFORM, k, 5000, 8, 7)
        assert est == single


@pytest.mark.parametrize("name", ["golden", "three", "full4", "full25", "nb3", "cycle2", "sparse4"])
def test_block_slots_match_sample_window(name):
    # sample i of the estimator walks exactly the letters of
    # sample_window(measure, -1, n_steps - 1, seed=(seed, i)) in chunks of
    # L letters; with the bit-reversal undone, each whole block's slots are
    # its 2**m words, and a short last block's are its whole words, its
    # leftover single steps and identity padding, down to a single letter
    # whose step starts at the previous block's last letter.  _block_slots
    # reads the leftover steps off the words' pair ids; the expected slots
    # are built from the window's letters instead
    measure, length, block = KERNEL_SHAPES[name]
    l = measure.spec.alphabet_size
    assert _word_steps(measure) == length
    n_samples, seed = 3, 8
    for n_steps in (2 * block + 37, 2 * block + 1):
        windows = [
            [a - 1 for a in sample_window(measure, -1, n_steps - 1, (seed, i)).letters]
            for i in range(n_samples)
        ]
        seeds = [(seed, i) for i in range(n_samples)]
        words, walk = _lane_walk(measure, seeds, n_steps + 1, length)
        blocks = list(walk)
        assert words.shape[1] == length + 1
        assert words[blocks[0][1][0], 0].tolist() == [w[0] for w in windows]
        pairs = words[:, :-1] * l + words[:, 1:]
        step0 = len(words)
        pad = step0 + l * l
        sizes, t0 = [], 0
        for b, ids in blocks:
            slots = _block_slots(ids, b, pairs, step0, pad)
            bits = len(slots).bit_length() - 1
            rows = [int(format(t, f"0{bits}b")[::-1], 2) for t in range(len(slots))]
            whole = b - b % length
            for i, w in enumerate(windows):
                full = w[t0 : t0 + b + 1]
                got = [int(slots[r, i]) for r in rows]
                n_words = whole // length
                assert all(x < step0 for x in got[:n_words])
                assert [words[x].tolist() for x in got[:n_words]] == [
                    full[j : j + length + 1] for j in range(0, whole, length)
                ]
                expected = [step0 + full[t] * l + full[t + 1] for t in range(whole, b)]
                assert len(slots) == 1 << (n_words + len(expected) - 1).bit_length()
                expected += [pad] * (len(slots) - n_words - len(expected))
                assert got[n_words:] == expected
            sizes.append(b)
            t0 += b
            if b == block:  # a whole block is words alone, with no padding
                assert len(slots) == block // length
        assert sizes == [block, block, n_steps - 2 * block]
        assert t0 == n_steps


@pytest.mark.parametrize("name", list(KERNEL_SHAPES))
def test_sampler_words_are_the_admissible_words_in_order(name):
    # at k = L the sampler's word table is exactly the admissible
    # (L+1)-letter words in lexicographic order, as many as _word_steps
    # counted (the sum of the entries of A**L), so a chunk's word id is its
    # slot in the kernel's word table
    measure, length, _ = KERNEL_SHAPES[name]
    allowed = measure.spec.allowed
    words = [(a,) for a in range(len(allowed))]
    for _ in range(length):  # extending sorted words letter by letter keeps them sorted
        words = [w + (b,) for w in words for b in range(len(allowed)) if allowed[w[-1]][b]]
    got, _ = _lane_walk(measure, [0], 2, length)
    assert [tuple(w) for w in got.tolist()] == words
    assert len(words) == np.linalg.matrix_power(np.array(allowed, dtype=np.int64), length).sum()


def test_word_steps_follow_admissible_words():
    # L is the longest length with at most 512 admissible (L+1)-letter
    # words, unless the walk's positions or the entry bound cap it first:
    # the 2-cycle has two words at every length, so only the entry bound
    # ends it, and the sparse 4-letter shift has 512 words of 8 letters but
    # too many walk positions for them
    assert {name: _word_steps(m) for name, (m, _, _) in KERNEL_SHAPES.items()} == {
        name: length for name, (_, length, _) in KERNEL_SHAPES.items()
    }
    assert _word_steps(stationary_markov(THREE, [[1 / 3] * 3, [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])) == 6
    stops = {}
    for name, (measure, length, block) in KERNEL_SHAPES.items():
        l = measure.spec.alphabet_size
        nb = len(_thresholds(measure)[1]) + 1
        assert _walk_size(measure, length) == l * nb**length <= 1 << 16, name
        assert length * _step_bits(l) <= _WORD_BITS_MAX, name
        words_per_block = block // length
        assert block % length == 0 and words_per_block & (words_per_block - 1) == 0, name
        assert block <= _BLOCK < 2 * block, name

        def count(n):  # admissible n-letter words, listed one letter at a time
            words = [(a,) for a in range(l)]
            for _ in range(n - 1):
                words = [w + (b,) for w in words for b in range(l) if measure.spec.allowed[w[-1]][b]]
            return len(words)

        assert count(length + 1) <= 512 or length == 1, name  # L = 1 is the floor
        if count(length + 2) > 512:
            stops[name] = "words"
        elif l * nb ** (length + 1) > 1 << 16:
            stops[name] = "walk"
        else:
            assert (length + 1) * _step_bits(l) > _WORD_BITS_MAX, name
            stops[name] = "entries"
    assert stops == {name: "words" for name in KERNEL_SHAPES} | {"cycle2": "entries", "sparse4": "walk"}


def test_mc_rates_match_per_step_product():
    # oracle: the every-step renormalized scalar product on the sample's own
    # letters; 2*block + 37 steps make the sampler's last block short, so
    # the leftover single steps after the last whole word run as well, and
    # 2*block + 1 leave a last block of one step.  On 25 letters (L = 1)
    # every slot is a single step; the 2-cycle's words have 17 letters.
    n_samples, seed = 4, 2024
    ks = [0.31, 1.2, math.pi / 2, 2.7]
    for measure, length, block in KERNEL_SHAPES.values():
        for n_steps in (2 * block + 37, 2 * block + 1):
            rates = _mc_rates(measure, ks, n_steps, n_samples, seed)
            assert rates.shape == (len(ks), n_samples)
            assert np.all(np.isfinite(rates))
            for i in range(n_samples):
                word = sample_window(measure, -1, n_steps - 1, (seed, i))
                for a, k in enumerate(ks):
                    oracle = growth_rate(cocycle_product(k, word), n_steps)
                    assert rates[a, i] == pytest.approx(oracle, rel=0, abs=1e-12)


def _path_walk(path, length):
    """A stand-in for measure._lane_walk that walks one lane along the given
    1-based letters in chunks of length letters.  Word c of its table is
    chunk c's word (the letter before the chunk, then its letters, the last
    padded by repeating the last letter), so its word ids are the chunk
    indices, yielded in blocks of length * 2**m letters as the sampler's
    are."""
    x = np.array(path) - 1
    block = length << ((_BLOCK // length).bit_length() - 1)
    n_chunks = -(-(len(x) - 1) // length)
    padded = np.concatenate((x, np.full(n_chunks * length + 1 - len(x), x[-1])))
    words = np.lib.stride_tricks.sliding_window_view(padded, length + 1)[::length]

    def blocks():
        for done in range(1, len(x), block):
            b = min(block, len(x) - done)
            c0 = (done - 1) // length
            yield b, np.arange(c0, c0 - (-b // length))[:, None]

    def lane_walk(measure, seeds, n_letters, k):
        assert (len(seeds), n_letters, k) == (1, len(x), length)
        return words, blocks()

    return lane_walk


def _half_pi_rate(path):
    """The exact rate at c = 0 on the 1-based letters path.  A step
    A = sqrt(cur/prev) [[0, -prev/cur], [1, 0]] moves a column's one
    nonzero entry from row 0 to row 1 times sqrt(cur/prev), or from row 1
    to row 0 times sqrt(prev/cur) up to sign, so the product stays diagonal
    or antidiagonal and its spectral norm is its larger entry, kept here as
    each column's log."""
    logs, rows = [0.0, 0.0], [0, 1]  # the columns M e1 and M e2
    for prev, cur in zip(path, path[1:]):
        for i in (0, 1):
            logs[i] += (0.5 if rows[i] == 0 else -0.5) * math.log(cur / prev)
            rows[i] ^= 1
    return max(logs) / (len(path) - 1)


# a full-shift path whose first 2000 steps at pi/2 grow one direction by
# 2**1000, beyond double range, and whose next 4000 shrink it again
CHOSEN_PATH = [1, 2] * 1000 + [2] + [1, 2] * 2000


@pytest.mark.usefixtures("one_worker")
def test_mc_kernel_on_chosen_paths(monkeypatch):
    # the kernel walks a hand-built word table as it walks the sampler's:
    # at k = 1.0 it matches the scalar product on the chosen path, also cut
    # to end in a partial chunk, and at pi/2 on the alternating path, whose
    # exact rate is ln(2)/2, it matches the c = 0 recursion
    length = _word_steps(FULL_UNIFORM)
    for path in (CHOSEN_PATH, CHOSEN_PATH[:-3]):
        monkeypatch.setattr(lyapunov_module, "_lane_walk", _path_walk(path, length))
        rate = _mc_rates(FULL_UNIFORM, [1.0], len(path) - 1, 1, 0)[0, 0]
        oracle = growth_rate(cocycle_product(1.0, Word(tuple(path), -1)), len(path) - 1)
        assert rate == pytest.approx(oracle, rel=0, abs=1e-12)
    alternating = [1, 2] * 1000 + [1]
    assert _half_pi_rate(alternating) == pytest.approx(LN2_OVER_2, rel=0, abs=1e-13)
    monkeypatch.setattr(lyapunov_module, "_lane_walk", _path_walk(alternating, length))
    rate = _mc_rates(FULL_UNIFORM, [math.pi / 2], len(alternating) - 1, 1, 0)[0, 0]
    assert rate == pytest.approx(_half_pi_rate(alternating), rel=0, abs=1e-12)
    assert _half_pi_rate(CHOSEN_PATH) == pytest.approx(0.1155822923583652, rel=0, abs=1e-13)


@pytest.mark.usefixtures("one_worker")
def test_mc_kernel_keeps_the_small_direction_at_half_pi(monkeypatch):
    # renormalized by one max entry for both columns, the running product
    # would lose the small direction after the first 2000 steps and read
    # -0.11558 where the exact rate is +0.11558; the kernel scales each
    # column on its own, as the scalar cocycle_product does
    monkeypatch.setattr(lyapunov_module, "_lane_walk", _path_walk(CHOSEN_PATH, _word_steps(FULL_UNIFORM)))
    rate = _mc_rates(FULL_UNIFORM, [math.pi / 2], len(CHOSEN_PATH) - 1, 1, 0)[0, 0]
    assert rate == pytest.approx(_half_pi_rate(CHOSEN_PATH), rel=0, abs=1e-12)


@pytest.mark.usefixtures("one_worker")
@pytest.mark.parametrize("l", [3, 5, 25])
def test_mc_kernel_keeps_the_small_direction_on_wider_alphabets(monkeypatch, l):
    # the chosen path with letters 1 and l: at pi/2 each step grows one
    # direction by sqrt(l), so the first 2000 steps grow it by 1000 ln l
    # nats, beyond double range, before the next 4000 shrink it again; the
    # step bound 2 sqrt(l) + 1 sets the word length and the roots per block
    measure = stationary_markov(validate_spec(l, []), np.full((l, l), 1.0 / l))
    path = [1 if x == 1 else l for x in CHOSEN_PATH]
    monkeypatch.setattr(lyapunov_module, "_lane_walk", _path_walk(path, _word_steps(measure)))
    rate = _mc_rates(measure, [math.pi / 2], len(path) - 1, 1, 0)[0, 0]
    assert rate == pytest.approx(_half_pi_rate(path), rel=0, abs=1e-12)


def test_cocycle_product_keeps_the_small_direction_at_half_pi():
    # the public scalar reference scales each column on its own, so the
    # small direction survives the first 2000 steps and the rate is +0.11558
    rate = growth_rate(cocycle_product(math.pi / 2, Word(tuple(CHOSEN_PATH), -1)), len(CHOSEN_PATH) - 1)
    assert rate == pytest.approx(_half_pi_rate(CHOSEN_PATH), rel=0, abs=1e-12)


def test_mc_rates_at_half_pi_are_nonnegative_on_a_sticky_random_path():
    # at pi/2 each sample's exact rate is |S_n| / n >= 0 (ROADMAP item 9); on
    # the sticky alternation the walk drifts far enough that a product with
    # one scale for both columns loses its small direction, and 11 of these
    # 20 rates would read < 0
    rates = _mc_rates(STICKY_ALTERNATION, [math.pi / 2], 100_000, 20, 1)
    assert np.all(np.isfinite(rates)) and np.all(rates >= 0.0)


# 1 <-> 3 alternates with probability 1 - 2e-4 per step, and each such step
# grows one direction by sqrt(3) at pi/2
STICKY_THREE = stationary_markov(
    validate_spec(3, []), [[1e-4, 1e-4, 1 - 2e-4], [1 / 3, 1 / 3, 1 / 3], [1 - 2e-4, 1e-4, 1e-4]]
)


def test_mc_rates_at_half_pi_are_nonnegative_on_a_sticky_three_letter_path():
    # as on the sticky alternation, every exact rate |S_n| / n is >= 0; a
    # product that loses its small direction reads no finite rate here
    rates = _mc_rates(STICKY_THREE, [math.pi / 2], 100_000, 20, 1)
    assert np.all(np.isfinite(rates)) and np.all(rates >= 0.0)


def _record_gathered(monkeypatch, record):
    """Pass every gathered block array of _mc_rates, shape (4, P, lanes, n_k),
    to record before its tree product."""
    tree_product = lyapunov_module._tree_product

    def spy(mats, span):
        record(mats)
        return tree_product(mats, span)

    monkeypatch.setattr(lyapunov_module, "_tree_product", spy)


@pytest.mark.usefixtures("one_worker")
@pytest.mark.parametrize("name", ["golden", "three"])
def test_mc_results_independent_of_gather_schedule(monkeypatch, name):
    # the tree's association order depends only on the sampler block, so a
    # budget small enough to split the energies (whole blocks, one lane at a
    # time) and the lanes (the short last block) into several chunks leaves
    # every bit unchanged
    measure, _, block = KERNEL_SHAPES[name]
    ks = [float(k) for k in np.linspace(0.2, 2.9, 12)]
    n_steps, n_samples, seed = 2 * block + 20, 6, 41
    default_grid = lyapunov_mc_grid(measure, ks, n_steps, n_samples, seed)
    default_single = [lyapunov_mc(measure, k, n_steps, n_samples, seed) for k in ks]

    shapes = []
    monkeypatch.setattr(lyapunov_module, "_GATHER_BUDGET", 1024)
    _record_gathered(monkeypatch, lambda mats: shapes.append((mats.shape[3], mats.shape[2])))
    small_grid = lyapunov_mc_grid(measure, ks, n_steps, n_samples, seed)
    assert any(1 < n_k < len(ks) for n_k, _ in shapes)
    assert any(lanes < n_samples for _, lanes in shapes)
    small_single = [lyapunov_mc(measure, k, n_steps, n_samples, seed) for k in ks]
    assert default_grid == default_single == small_grid == small_single


@pytest.mark.usefixtures("one_worker")
def test_mc_gathered_blocks_stay_within_budget(monkeypatch):
    # one energy at 1e5 lanes would gather about 400 MB per block without
    # the lane chunks; here 2000 lanes must split into budget-sized runs
    sizes = []
    _record_gathered(monkeypatch, lambda mats: sizes.append(mats.size))
    n_samples = 2000
    rates = _mc_rates(FULL_UNIFORM, [1.0], 1000, n_samples, 3)
    assert np.all(np.isfinite(rates))
    assert len(sizes) > 1  # one energy, one sampler block: the lanes split
    assert max(sizes) <= lyapunov_module._GATHER_BUDGET


@pytest.mark.usefixtures("one_worker")
def test_mc_gathers_contiguous_energy_rows(monkeypatch):
    # energies are the innermost axis: at the default budget a 101-energy,
    # 100-sample grid gathers whole-grid blocks (runs of lanes with every
    # energy), each one C-contiguous array, so every slot is one row
    ks = [float(k) for k in np.linspace(0.05, math.pi - 0.05, 101)]
    shapes = []

    def record(mats):
        assert mats.flags.c_contiguous
        shapes.append(mats.shape)

    _record_gathered(monkeypatch, record)
    rates = _mc_rates(GOLDEN_HALF, ks, 2000, 100, 5)
    assert rates.shape == (101, 100) and rates.flags.c_contiguous
    assert shapes and all(shape[3] == 101 for shape in shapes)
    assert any(shape[2] < 100 for shape in shapes)  # the lanes do split


def test_mc_empty_grid(monkeypatch):
    # neither walks nor forks, though at 1e5 steps x 100 samples the
    # sampler alone is work for two workers
    forks, walks = _count_forks(monkeypatch), _count_walks(monkeypatch)
    monkeypatch.setattr(lyapunov_module, "_usable_cpus", lambda: 2)
    assert lyapunov_mc_grid(GOLDEN_HALF, [], 1000, 4, 3) == []
    assert lyapunov_mc_grid(FULL_UNIFORM, [], 100_000, 100, 1) == []
    assert _mc_rates(FULL_UNIFORM, [], 100_000, 100, 1).shape == (0, 100)
    assert forks == [] and walks == []


# ------------------------------------------------------------- forked workers

# the bench's 3-letter shift: forbidden words (2, 2) and (3, 1)
BENCH_THREE = stationary_markov(THREE, [[1 / 3, 1 / 3, 1 / 3], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])


def _count_forks(monkeypatch):
    """Count the os.fork calls of this process; the children's own counts
    are lost with them."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _force_workers(monkeypatch, w):
    """Let _mc_rates use up to w workers whatever its work and the host's
    CPUs: W is then min(w, n_samples)."""
    monkeypatch.setattr(lyapunov_module, "_usable_cpus", lambda: w)
    monkeypatch.setattr(lyapunov_module, "_SPLIT_WORK", 1)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", ["golden", "bench_three", "full25"])
def test_mc_rates_bytes_do_not_depend_on_the_worker_count(monkeypatch, name):
    # lanes are independent and the tree's association order depends only
    # on the block, so W = 1..4 workers give the same bytes; 5 and 7 lanes
    # do not divide evenly, 3 lanes cap W = 4 at 3, and 2*block + 37 steps
    # end in a short last block
    measure, block = {
        "golden": (GOLDEN_HALF, 704),
        "bench_three": (BENCH_THREE, 768),
        "full25": (FULL25_UNIFORM, 1024),
    }[name]
    n_steps, seed = 2 * block + 37, 11
    grid = [float(k) for k in np.linspace(0.05, math.pi - 0.05, 101)]
    forks = _count_forks(monkeypatch)
    for ks, n_samples in (([1.234], 5), (grid, 7), (grid[::9], 3)):
        reference = lyapunov_module._lane_rates(measure, ks, n_steps, [(seed, i) for i in range(n_samples)])
        for w in (1, 2, 3, 4):
            _force_workers(monkeypatch, w)
            forks.clear()
            rates = _mc_rates(measure, ks, n_steps, n_samples, seed)
            assert len(forks) == min(w, n_samples) - 1
            assert rates.shape == (len(ks), n_samples) and rates.flags.c_contiguous
            assert rates.tobytes() == reference.tobytes(), (len(ks), n_samples, w)
    _assert_no_child_left()


def _count_walks(monkeypatch):
    """Count the sampler walks this process starts."""
    walks = []
    lane_walk = lyapunov_module._lane_walk

    def counting_walk(*args):
        walks.append(1)
        return lane_walk(*args)

    monkeypatch.setattr(lyapunov_module, "_lane_walk", counting_walk)
    return walks


def test_mc_worker_count_follows_cpus_lanes_and_work(monkeypatch):
    # W = max(1, min(usable CPUs, n_samples, work // _SPLIT_WORK)), work
    # n_steps * n_samples * (len(k_values) + _SAMPLER_ENERGIES): on two CPUs
    # the README quickstart and the mc_path op (one energy, 100 samples of
    # 1e5 steps) split in two, as the mc_scan op (101 energies, 100 samples
    # of 1e4 steps) does, and one energy at 1e4 steps stays in-process
    # only the worker count is under test: the parent and the workers it
    # forks run a kernel of zeros
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(lyapunov_module, "_lane_rates", lambda measure, ks, n_steps, seeds: np.zeros((len(ks), len(seeds))))
    monkeypatch.setattr(lyapunov_module, "_usable_cpus", lambda: 2)
    grid = [float(k) for k in np.linspace(0.05, math.pi - 0.05, 101)]
    for ks, n_steps, w in (([1.0], 100_000, 2), ([1.0], 10_000, 1), (grid, 10_000, 2)):
        forks.clear()
        _mc_rates(FULL_UNIFORM, ks, n_steps, 100, 0)
        assert len(forks) == w - 1, (len(ks), n_steps)
    # the README shape splits with a factor 2 to spare, one energy at 1e4
    # steps is below the split by more than that
    assert 100_000 * 100 * (1 + lyapunov_module._SAMPLER_ENERGIES) >= 4 * lyapunov_module._SPLIT_WORK
    assert 10_000 * 100 * (1 + lyapunov_module._SAMPLER_ENERGIES) * 4 < 2 * lyapunov_module._SPLIT_WORK
    # work binds at one energy, lanes at (8, 14, 5), CPUs at (3, 20, 5) and
    # (1, 20, 5); (8, 1, 3) and (8, 1, 5) split only because the sampler
    # counts
    monkeypatch.setattr(lyapunov_module, "_SPLIT_WORK", 10_000)
    rows = ((8, 1, 2, 1), (8, 1, 3, 2), (8, 1, 5, 3), (8, 14, 5, 5), (3, 20, 5, 3), (1, 20, 5, 1))
    for cpus, n_k, n_samples, w in rows:
        monkeypatch.setattr(lyapunov_module, "_usable_cpus", lambda: cpus)
        forks.clear()
        _mc_rates(GOLDEN_HALF, [0.5 + 0.1 * a for a in range(n_k)], 1000, n_samples, 2)
        assert len(forks) == w - 1, (cpus, n_k, n_samples)
    _assert_no_child_left()


@pytest.mark.parametrize(
    "k, error", [(math.pi, SingularEnergy), (-2 * math.pi, SingularEnergy), (math.nan, ValueError), (math.inf, ValueError)]
)
def test_mc_bad_energy_raises_before_any_fork_or_walk(monkeypatch, k, error):
    # the bad energy comes last on the grid, and every energy is checked
    # before the parent forks or its kernel starts the walk
    forks, walks = _count_forks(monkeypatch), _count_walks(monkeypatch)
    _force_workers(monkeypatch, 2)
    with pytest.raises(error):
        lyapunov_mc_grid(GOLDEN_HALF, [0.5, 1.5, k], 1000, 4, 3)
    assert forks == [] and walks == []
    _assert_no_child_left()


def test_usable_cpus_is_the_affinity_mask_or_one(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert lyapunov_module._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert lyapunov_module._usable_cpus() == 1


def test_mc_worker_failure_raises_and_leaves_no_process(monkeypatch):
    parent = os.getpid()
    lane_rates = lyapunov_module._lane_rates

    def failing_in_workers(*args):
        if os.getpid() != parent:
            raise ValueError("worker kernel failed")
        return lane_rates(*args)

    monkeypatch.setattr(lyapunov_module, "_lane_rates", failing_in_workers)
    _force_workers(monkeypatch, 3)
    with pytest.raises(RuntimeError, match=r"^Monte-Carlo worker 1 \(lanes 2\.\.3\) exited with code 1 after writing 0 of 32 bytes$"):
        _mc_rates(GOLDEN_HALF, [0.5, 1.5], 1000, 6, 4)
    _assert_no_child_left()


def test_mc_interrupted_parent_kills_its_workers(monkeypatch):
    # the workers would sleep for a minute; the parent's KeyboardInterrupt
    # kills and reaps them at once
    parent = os.getpid()
    lane_rates = lyapunov_module._lane_rates

    def interrupted(*args):
        if os.getpid() != parent:
            time.sleep(60)
            return lane_rates(*args)
        raise KeyboardInterrupt

    monkeypatch.setattr(lyapunov_module, "_lane_rates", interrupted)
    _force_workers(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _mc_rates(GOLDEN_HALF, [0.5], 1000, 6, 4)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_mc_worker_payload_above_the_pipe_buffer(monkeypatch):
    # a worker's 12 lanes of 1000 energies are 96,000 bytes, more than a
    # 64 KiB pipe holds, so the parent must read before it reaps; an alarm
    # turns a deadlock into a failure
    ks = [float(k) for k in np.linspace(0.05, math.pi - 0.05, 1000)]
    assert 8 * len(ks) * 12 > 1 << 16
    reference = lyapunov_module._lane_rates(GOLDEN_HALF, ks, 1000, [(9, i) for i in range(24)])

    def timeout(signum, frame):
        raise TimeoutError("the parent blocked on a worker's payload")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        _force_workers(monkeypatch, 2)
        rates = _mc_rates(GOLDEN_HALF, ks, 1000, 24, 9)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rates.tobytes() == reference.tobytes()
    _assert_no_child_left()


def test_mc_fork_failure_computes_the_share_in_process(monkeypatch):
    # EAGAIN at a process limit: the shares whose fork fails are computed
    # in-process, with the same bytes
    reference = _mc_rates(GOLDEN_HALF, [0.5, 2.0], 1000, 7, 8)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    _force_workers(monkeypatch, 3)
    assert _mc_rates(GOLDEN_HALF, [0.5, 2.0], 1000, 7, 8).tobytes() == reference.tobytes()
    _assert_no_child_left()


def _recursion_rates(measure, k, n_steps, n_samples, seed):
    """Per-sample rates from the plain Kirchhoff recursion
    w_j u_{j+1} = (w_j + w_{j-1}) cos k u_j - w_{j-1} u_{j-1}, run without
    renormalization on the solutions with (u_0, u_{-1}) = (1, 0) and (0, 1).

    A recursion step has determinant w_{j-1}/w_j; the cocycle's step is the
    same matrix times sqrt(w_j/w_{j-1}), and these factors telescope to
    sqrt(w_{n-1}/w_{-1}), the exact term added to the log-norm below."""
    c = math.cos(k)
    rates = []
    for i in range(n_samples):
        w = sample_window(measure, -1, n_steps - 1, (seed, i)).letters  # w[j + 1] = w_j
        a, a_prev, b, b_prev = 1.0, 0.0, 0.0, 1.0
        for j in range(n_steps):
            w_prev, w_cur = w[j], w[j + 1]
            a, a_prev = ((w_cur + w_prev) * c * a - w_prev * a_prev) / w_cur, a
            b, b_prev = ((w_cur + w_prev) * c * b - w_prev * b_prev) / w_cur, b
        norm = np.linalg.norm(np.array([[a, b], [a_prev, b_prev]]), 2)
        rates.append((math.log(norm) + math.log(w[n_steps] / w[0]) / 2.0) / n_steps)
    return np.array(rates)


def test_mc_matches_plain_recursion_below_old_margin():
    # grid points of acceptance criteria 5 and 7 whose exponent is positive
    # but below 0.01: full shift at k = 0.2021, golden mean at k = 0.5062
    grid = np.linspace(0.05, math.pi - 0.05, 101)
    n_steps, n_samples, seed = 20_000, 8, 20260811
    for measure, k in ((FULL_UNIFORM, float(grid[5])), (GOLDEN_HALF, float(grid[15]))):
        rates = _recursion_rates(measure, k, n_steps, n_samples, seed)
        est = lyapunov_mc(measure, k, n_steps, n_samples, seed)
        assert est.value == pytest.approx(float(np.mean(rates)), rel=0, abs=1e-12)
        stderr = float(np.std(rates, ddof=1)) / math.sqrt(n_samples)
        assert est.stderr == pytest.approx(stderr, rel=0, abs=1e-12)
        assert 3.0 * est.stderr < est.value < 0.01


def test_rate_scale_invariance():
    # feeding the same matrix through the renormalized representation with
    # any positive scalar split leaves the reported rate unchanged
    word = sample_window(GOLDEN_HALF, -1, 200, 8)
    sm = cocycle_product(1.2, word.window(-1, 199))
    base = growth_rate(sm, 200)
    for c in (2.0, 0.25, 1024.0):  # powers of two: exact
        shifted = ScaledMat2(
            type(sm.mat)(sm.mat.a11 * c, sm.mat.a12 * c, sm.mat.a21 * c, sm.mat.a22 * c),
            sm.log_scale - math.log(c),
        )
        assert growth_rate(scaled_from(shifted.mat, shifted.log_scale), 200) == pytest.approx(
            base, abs=1e-12
        )
    for c in (3.7, 0.0031):
        shifted = scaled_from(
            type(sm.mat)(sm.mat.a11 * c, sm.mat.a12 * c, sm.mat.a21 * c, sm.mat.a22 * c),
            sm.log_scale - math.log(c),
        )
        assert growth_rate(shifted, 200) == pytest.approx(base, rel=1e-12, abs=1e-12)


# -------------------------------------------------------- exclusion windows


def test_exclusion_window_predicate():
    assert in_exclusion_window(0.01)
    assert in_exclusion_window(math.pi / 2 - 0.015)
    assert in_exclusion_window(math.pi - 0.005)
    assert not in_exclusion_window(1.0)
    assert not in_exclusion_window(math.pi / 2 - 0.05)


# ---------------------------------------------------------------- kalinin


def test_kalinin_gap_fixed_points_only():
    # with only fixed points available the gap is the estimate itself
    est = lyapunov_mc(FULL_UNIFORM, 0.9, 5000, 8, 13)
    gap = kalinin_profile(FULL_UNIFORM, 0.9, 1, 5000, 8, 13)[-1]
    assert gap == abs(est.value)


def test_kalinin_gap_inside_all_bands():
    # k = 0.3 lies inside every periodic band up to period 4, so all
    # periodic exponents vanish and the gap equals the estimate
    est = lyapunov_mc(FULL_UNIFORM, 0.3, 5000, 8, 17)
    gap = kalinin_profile(FULL_UNIFORM, 0.3, 4, 5000, 8, 17)[-1]
    assert gap == abs(est.value)


def test_kalinin_gap_small_at_half_pi():
    # at the cancellation energy the estimate is pure finite-n noise of
    # order 1/sqrt(n_steps), and the periodic exponents vanish
    gap = kalinin_profile(FULL_UNIFORM, math.pi / 2, 2, 50_000, 8, 19)[-1]
    assert gap < 6e-3


def test_kalinin_gap_shrinks_with_more_periods():
    mc = (20_000, 16, 29)
    k = 1.2
    gaps = [kalinin_profile(FULL_UNIFORM, k, mp, *mc)[-1] for mp in (1, 2, 4)]
    assert gaps[1] <= gaps[0] + 1e-12
    assert gaps[2] <= gaps[1] + 1e-12


def test_kalinin_profile_rejects_empty_budget_before_sampling(monkeypatch):
    def no_sampling(*args):
        pytest.fail("the estimate ran before max_period was validated")

    monkeypatch.setattr("sftlab.lyapunov.lyapunov_mc", no_sampling)
    with pytest.raises(ValueError, match="max_period"):
        kalinin_profile(FULL_UNIFORM, 1.0, 0, 100_000, 100, 1)


def test_kalinin_profile_entries_are_gaps_per_budget():
    mc = (5000, 8, 37)
    for measure, k in ((FULL_UNIFORM, 1.2), (GOLDEN_HALF, 0.6)):
        profile = kalinin_profile(measure, k, 5, *mc)
        for mp in range(1, 6):
            assert profile[:mp] == kalinin_profile(measure, k, mp, *mc)


def test_kalinin_profile_is_the_min_over_each_budget():
    # the running minimum equals the min over the points of each budget
    # taken one budget at a time, bit for bit
    mc = (5000, 8, 37)
    for measure, k in ((FULL_UNIFORM, 2.0), (GOLDEN_HALF, 1.2), (THREE_MARKOV, 2.7)):
        points = enumerate_periodic_points(measure.spec, 7)
        est = lyapunov_mc(measure, k, *mc)
        gaps = [abs(lyapunov_periodic(p, k) - est.value) for p in points]
        expected = [
            min(g for p, g in zip(points, gaps) if p.period <= budget) for budget in range(1, 8)
        ]
        assert kalinin_profile(measure, k, 7, *mc) == expected


def test_kalinin_profile_without_fixed_points():
    # the 2-cycle shift has no point of period 1: that budget is the minimum
    # over no points, and the period-2 point (1, 2) sets every later entry
    profile = kalinin_profile(TWO_CYCLE, 1.0, 4, 2000, 4, 3)
    est = lyapunov_mc(TWO_CYCLE, 1.0, 2000, 4, 3)
    gap = abs(lyapunov_periodic(PeriodicPoint.from_letters((1, 2)), 1.0) - est.value)
    assert profile == [math.inf, gap, gap, gap]
