"""Lyapunov exponents: exact values on periodic orbits, Monte-Carlo ergodic
estimates, zero-exponent scans and the periodic-approximation diagnostic.

The Monte-Carlo estimator runs ``n_samples`` independent windows of
``n_steps`` steps each.  Sample ``i`` is lane ``i`` of the lane walk in
:mod:`sftlab.measure`, seeded with ``(seed, i)``: by the sampling contract its
letters are those of ``sample_window(measure, -1, n_steps - 1, seed=(seed, i))``.
It multiplies the per-step matrices with max-entry renormalization and
reports

    rate_i = (accumulated log scale + log spectral norm of the residual) / n_steps.

The L-step products of the admissible (L+1)-letter words are tabulated per
energy from the single-step matrices, with L the longest length that has at
most 512 such words (8 steps on the full 2-shift, 11 on the golden mean).
The sampler walks blocks of L * 2**m steps in chunks of exactly L letters
and hands out the admissible (L+1)-letter words in lexicographic order and,
per chunk, the id of its word: the letter before the chunk and the chunk.
So a whole block is 2**m word slots, its ids as they come.  Only a short
last block has the r leftover letters of a partial chunk, one slot per
single step, and identity padding up to a power of two.  The slots are
multiplied as a balanced tree (later half on the left, renormalized every
third level); the block's product then advances the running lane product.
Energies sit on the innermost axis of every kernel array, so gathering a
slot copies one contiguous row of all energies.  Blocks are gathered in
chunks of lanes with every energy, or of energies for one lane, of at most
``_GATHER_BUDGET`` elements.

The estimate is the sample mean; stderr is the sample standard deviation over
the independent rates divided by sqrt(n_samples).  Everything, the word
tables included, is elementwise arithmetic per energy and per-sample lane,
and the tree's association order depends only on the block, never on the
chunks, so results are bit-identical whether energies are estimated one at a
time or batched on a grid, and identical at k and acos(cos k) because the
letter streams never depend on k and the matrices are functions of the
canonicalized cosine.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .cocycle import a_matrix
from .measure import MarkovMeasure, _lane_walk, _walk_size
from .sft import PeriodicPoint, enumerate_periodic_points
from .spectra import monodromy_trace

_WORD_TABLE_MAX = 512
_WALK_POSITIONS_MAX = 1 << 16
_ENTRY_BITS_MAX = 256  # log2 bound on entries before a tree renormalization
_GATHER_BUDGET = 1 << 18  # elements (2 MiB of float64) in one gathered block chunk
_RENORM_LEVELS = 3


def _word_steps(measure: MarkovMeasure) -> int:
    """Steps per word-table entry: the longest L >= 1 with at most
    _WORD_TABLE_MAX = 512 admissible (L+1)-letter words, counted exactly as
    the sum of the entries of A**L, A the 0/1 matrix of allowed pairs (8 on
    the full 2-shift, 11 on the golden mean, 3 on the full 4-shift, 1 on full
    shifts from 23 letters on).  Two caps bound L as well:

    - the sampler's walk in chunks of L letters has l * nb**L positions
      (:func:`sftlab.measure._walk_size`), at most _WALK_POSITIONS_MAX = 2**16;
    - a step's rows have absolute sums below 2*sqrt(l) + 1, and so do its
      inverse's, so a word's entries stay below (2*sqrt(l) + 1)**L, and the
      product of the 2**_RENORM_LEVELS = 8 words :func:`_tree_product`
      multiplies before its first renormalization below
      (2*sqrt(l) + 1)**(8L), which must stay at most 2**_ENTRY_BITS_MAX =
      2**256, far inside double range (2e51 on the golden mean at L = 11).

    The second cap alone ends a near-deterministic shift, such as the
    2-cycle with nb = 1 and two words at every length (L = 16 there)."""
    entry_bits = 2**_RENORM_LEVELS * math.log2(2 * math.sqrt(measure.spec.alphabet_size) + 1)
    allowed = np.array(measure.spec.allowed, dtype=np.int64)
    ends = allowed.sum(axis=0)  # admissible 2-letter words by last letter
    length = 1
    while True:
        ends = ends @ allowed  # (length + 2)-letter words, at most 512 * l
        if (
            ends.sum() > _WORD_TABLE_MAX
            or _walk_size(measure, length + 1) > _WALK_POSITIONS_MAX
            or entry_bits * (length + 1) > _ENTRY_BITS_MAX
        ):
            return length
        length += 1


@dataclass(frozen=True)
class McParams:
    """Monte-Carlo estimator controls shared by the scanning operations."""

    n_steps: int = 100_000
    n_samples: int = 100
    seed: int = 0


@dataclass(frozen=True)
class LyapunovEstimate:
    k: float
    value: float
    stderr: float
    n_steps: int
    n_samples: int
    seed: int


@dataclass(frozen=True)
class ZeroSetHit:
    """A grid point whose estimate fell below the zero threshold."""

    k: float
    estimate: LyapunovEstimate
    in_exclusion_window: bool


def lyapunov_periodic(p: PeriodicPoint, k: float) -> float:
    """(1/n_p) log(spectral radius) of the one-period product: zero when the
    trace lies in [-2, 2] (elliptic/parabolic), else log of the larger
    eigenvalue magnitude of the unimodular monodromy."""
    return math.acosh(max(abs(monodromy_trace(p, k)) / 2.0, 1.0)) / p.period


def _step_table(measure: MarkovMeasure, k_values: Sequence[float]) -> np.ndarray:
    """Entries (a11, a12, a21, a22) of the single-step matrix for every letter
    pair index (prev-1)*l + (cur-1), shape (4, l*l, n_k) with energies last;
    NaN on forbidden pairs."""
    l = measure.spec.alphabet_size
    table = np.full((4, l * l, len(k_values)), np.nan)
    for a, k in enumerate(k_values):
        for prev in measure.spec.letters:
            for cur in measure.spec.letters:
                if measure.spec.allowed[prev - 1][cur - 1]:
                    table[:, (prev - 1) * l + (cur - 1), a] = a_matrix(k, prev, cur)
    return table


def _word_table(steps: np.ndarray, l: int, words: np.ndarray) -> np.ndarray:
    """Entries of the L-step product A(w_L-1, w_L) ... A(w_0, w_1) of every
    word w_0 ... w_L in the rows of words (n_words, L+1), shape
    (4, n_words, n_k) like the steps (4, l*l, n_k), each step multiplied on
    the left of the ones before."""
    pairs = words[:, :-1] * l + words[:, 1:]
    table = steps[:, pairs[:, 0]]
    for m in range(1, pairs.shape[1]):
        table = _mul(steps[:, pairs[:, m]], table)
    return table


def _mul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise 2x2 products a @ m over stacked (a11, a12, a21, a22)
    entries; a and m have equal shapes."""
    out = np.empty(a.shape)
    tmp = np.empty(out.shape[1:])
    for i in (0, 2):
        for j in (0, 1):
            np.multiply(a[i], m[j], out=out[i + j])
            out[i + j] += np.multiply(a[i + 1], m[j + 2], out=tmp)
    return out


def _renormalize(mats: np.ndarray) -> np.ndarray:
    """Divide stacked (a11, a12, a21, a22) entries in place by each matrix's
    max absolute entry and return its log."""
    mag = np.abs(mats).max(axis=0)
    mats /= mag
    return np.log(mag)


def _advance(a: np.ndarray, m: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """a @ m renormalized by its max entry, whose log is added to logs in place."""
    prod = _mul(a, m)
    logs += _renormalize(prod)
    return prod


@lru_cache(maxsize=None)
def _bit_reversal(size: int) -> np.ndarray:
    """bitrev(t) for t < size, a power of two, built once per size."""
    rev = np.zeros(1, dtype=np.intp)
    while len(rev) < size:
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    rev.setflags(write=False)
    return rev


def _block_slots(
    ids: np.ndarray, b: int, words: np.ndarray, l: int, step0: int, pad: int
) -> np.ndarray:
    """Indices into the combined table of a sampler block of b letters, from
    the ids (chunks, lanes) of its chunks' words in the sampler's word table
    words (n_words, L+1), shape (P, lanes) with P the next power of two:
    the word id of every whole chunk, then the leftover single steps
    step0 + x*l + y of the r = b % L letters of a last partial chunk, read
    off its word's first r+1 letters, then identity padding (index pad).  A
    whole block of the walk is 2**m whole chunks, so it fills P = 2**m slots
    with words alone; only a short last block has leftover steps or
    padding.  Time t is stored at row bitrev(t), so that the later half of
    every level of :func:`_tree_product` is its upper half (time order with
    strided pairing gives the same bits but is slower; see there)."""
    whole, r = divmod(b, words.shape[1] - 1)
    n = whole + r
    rev = _bit_reversal(1 << (n - 1).bit_length())
    slots = np.full((len(rev), ids.shape[1]), pad, dtype=np.intp)
    slots[rev[:whole]] = ids[:whole]
    if r:
        full = words[ids[whole], : r + 1]
        slots[rev[whole:n]] = (step0 + full[:, :-1] * l + full[:, 1:]).T
    return slots


def _tree_product(mats: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Time-ordered product of the P slots of mats, shape (4, P, lanes, n_k) in
    :func:`_block_slots` order (the cached :func:`_bit_reversal`), as a
    balanced tree along axis 1: each level multiplies the upper half (later
    times) onto the lower half.  Every _RENORM_LEVELS levels below the root
    each slot is divided by its max entry, whose logs are folded pairwise
    over the slot axis and added to logs (lanes, n_k) in place; all of it is
    elementwise per energy and lane (a numpy sum over the slot axis is not:
    its order follows the array's shape).  Returns the root, (4, lanes, n_k).

    Entries stay in range: below the first renormalization they are bounded
    as in :func:`_word_steps`; after it a slot has max entry 1 and row sums at
    most 2, so _RENORM_LEVELS further levels give row sums at most 2**8, and
    the root, renormalized by :func:`_advance`, no more.

    Slots in time order, paired odd onto even on strided views
    (``mats[:, 1::2]`` onto ``mats[:, ::2]``), give the same bits but run
    slower: on a 2-core Xeon the tree took 1.13-1.28 ms against 0.73-0.88 ms
    at shape (4, 64, 10, 101), and :func:`_mc_rates` at the mc_scan shape
    (golden mean, 101 energies, 100 samples of 1e4 steps) 0.24 s against
    0.17-0.20 s."""
    level = 0
    while mats.shape[1] > 1:
        h = mats.shape[1] // 2
        mats = _mul(mats[:, h:], mats[:, :h])
        level += 1
        if level % _RENORM_LEVELS == 0 and h > 1:
            lg = _renormalize(mats)
            while len(lg) > 1:
                lg = lg[len(lg) // 2 :] + lg[: len(lg) // 2]
            logs += lg[0]
    return mats[:, 0]


def _chunks(n_k: int, n_lanes: int, slot_elements: int) -> Iterator[tuple[slice, list[slice]]]:
    """Runs of energies, each with its runs of lanes, whose gathered blocks
    hold at most _GATHER_BUDGET elements at slot_elements per energy and
    lane: every energy with runs of lanes while one lane fits, else runs of
    energies with one lane at a time.  An empty grid has no chunks."""
    if n_k == 0:
        return
    per_lane = n_k * slot_elements
    lane_run = max(1, _GATHER_BUDGET // per_lane)
    k_run = n_k if per_lane <= _GATHER_BUDGET else max(1, _GATHER_BUDGET // slot_elements)
    lane_runs = [slice(s0, s0 + lane_run) for s0 in range(0, n_lanes, lane_run)]
    for k0 in range(0, n_k, k_run):
        yield slice(k0, k0 + k_run), lane_runs


def _mc_rates(
    measure: MarkovMeasure, k_values: Sequence[float], n_steps: int, n_samples: int, seed: int
) -> np.ndarray:
    """Per-sample rates, shape (len(k_values), n_samples).

    The sampler walks blocks of L * 2**m letters in chunks of
    L = _word_steps(measure) letters and hands out the id of each chunk's
    (L+1)-letter word in its table of the admissible words;
    :func:`_block_slots` makes each whole chunk's id its slot and, in a
    short last block, adds one slot per leftover single step and identity
    padding up to a power of two, gathered from one combined table
    (admissible words | steps | identity) per energy; no letters are built
    for whole chunks.
    :func:`_tree_product` multiplies the slots as a balanced tree and
    :func:`_advance` applies the block's product to the running lane
    product.  Tables, running product (4, n_samples, n_k) and logs
    (n_samples, n_k) keep energies last, so a gathered slot is one contiguous
    row of every energy; the rates are transposed once at the end.  The work
    runs in chunks of lanes, or of energies, that keep each gathered array
    within _GATHER_BUDGET elements; the association order depends only on the
    block, so the chunks never change a bit of the result."""
    l = measure.spec.alphabet_size
    length = _word_steps(measure)
    words, walk = _lane_walk(measure, [(int(seed), i) for i in range(n_samples)], n_steps + 1, length)
    steps = _step_table(measure, k_values)
    eye = np.zeros((4, 1, len(k_values)))
    eye[0] = eye[3] = 1.0
    table = np.concatenate((_word_table(steps, l, words), steps, eye), axis=1)
    step0, pad = len(words), table.shape[1] - 1

    m = np.zeros((4, n_samples, len(k_values)))
    m[0] = m[3] = 1.0
    logs = np.zeros((n_samples, len(k_values)))

    for b, ids in walk:
        slots = _block_slots(ids, b, words, l, step0, pad)
        for ks, lane_runs in _chunks(len(k_values), n_samples, 4 * len(slots)):
            sub = np.ascontiguousarray(table[:, :, ks])  # a copy only if the energies split
            for lanes in lane_runs:
                mats = np.take(sub, slots[:, lanes], axis=1)
                root = _tree_product(mats, logs[lanes, ks])
                m[:, lanes, ks] = _advance(root, m[:, lanes, ks], logs[lanes, ks])

    q = m[0] * m[0] + m[1] * m[1] + m[2] * m[2] + m[3] * m[3]
    det = m[0] * m[3] - m[1] * m[2]
    smax = np.sqrt((q + np.sqrt(np.maximum(q * q - 4.0 * det * det, 0.0))) / 2.0)
    return np.ascontiguousarray(((logs + np.log(smax)) / n_steps).T)


def lyapunov_mc(
    measure: MarkovMeasure, k: float, n_steps: int, n_samples: int, seed: int
) -> LyapunovEstimate:
    """Monte-Carlo estimate of the exponent at a single energy: the
    one-point grid of :func:`lyapunov_mc_grid`."""
    return lyapunov_mc_grid(measure, [k], n_steps, n_samples, seed)[0]


def lyapunov_mc_grid(
    measure: MarkovMeasure, k_values: Sequence[float], n_steps: int, n_samples: int, seed: int
) -> list[LyapunovEstimate]:
    """Estimates for a whole energy grid in one pass over the sampled paths;
    each is bit-identical to the grid's estimate at that energy alone."""
    if n_steps < 1000:
        raise ValueError("n_steps must be at least 1000")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rates = _mc_rates(measure, list(k_values), n_steps, n_samples, seed)
    return [
        LyapunovEstimate(
            k=float(k),
            value=float(np.mean(row)),
            stderr=float(np.std(row, ddof=1) / math.sqrt(n_samples)),
            n_steps=n_steps,
            n_samples=n_samples,
            seed=seed,
        )
        for row, k in zip(rates, k_values)
    ]


def in_exclusion_window(k: float, halfwidth: float = 0.02) -> bool:
    """Whether k lies within ``halfwidth`` of one of 0, pi/2, pi, the three
    energies the positivity statements leave untouched."""
    return any(abs(k - x) <= halfwidth for x in (0.0, math.pi / 2.0, math.pi))


def zero_set_scan(
    measure: MarkovMeasure,
    k_grid: Sequence[float],
    epsilon: float,
    mc_params: McParams,
    exclusion_halfwidth: float = 0.02,
) -> list[ZeroSetHit]:
    """All grid points whose estimate falls below epsilon, annotated with
    whether they sit inside the exclusion windows around 0, pi/2, pi."""
    estimates = lyapunov_mc_grid(
        measure, k_grid, mc_params.n_steps, mc_params.n_samples, mc_params.seed
    )
    return [
        ZeroSetHit(est.k, est, in_exclusion_window(est.k, exclusion_halfwidth))
        for est in estimates
        if est.value < epsilon
    ]


def kalinin_profile(
    measure: MarkovMeasure, k: float, max_period: int, mc_params: McParams
) -> list[float]:
    """For each period budget n = 1..max_period, the min over periodic points
    of period <= n of |periodic exponent - Monte-Carlo estimate|: a
    diagnostic that should shrink as the budget grows.  It is a running
    minimum over the period-sorted points, so a budget below the shortest
    period (1 on a shift without fixed points) reads inf, the minimum over
    no points."""
    points = enumerate_periodic_points(measure.spec, max_period)
    est = lyapunov_mc(measure, k, mc_params.n_steps, mc_params.n_samples, mc_params.seed)
    running = list(accumulate((abs(lyapunov_periodic(p, k) - est.value) for p in points), min))
    periods = [p.period for p in points]
    ends = [bisect_right(periods, budget) for budget in range(1, max_period + 1)]
    return [running[n - 1] if n else math.inf for n in ends]
