"""Lyapunov exponents: exact values on periodic orbits, Monte-Carlo ergodic
estimates, zero-exponent scans and the periodic-approximation diagnostic.

The Monte-Carlo estimator runs ``n_samples`` independent windows of
``n_steps`` steps each.  Sample ``i`` is lane ``i`` of the sampler in
:mod:`sftlab.measure`, seeded with ``(seed, i)``, so its letters are those of
``sample_window(measure, -1, n_steps - 1, seed=(seed, i))`` by construction.
It multiplies the per-step matrices with max-entry renormalization once per
L-step word, and reports

    rate_i = (accumulated log scale + log spectral norm of the residual) / n_steps.

The L-step products of every (L+1)-letter word are tabulated per energy from
the single-step matrices, with L the longest length whose table has at most
512 words (8 steps for two letters), so the product advances L steps per
Python iteration.

The estimate is the sample mean; stderr is the sample standard deviation over
the independent rates divided by sqrt(n_samples).  Everything, the word
tables included, is elementwise arithmetic per energy and per-sample lane, so
results are bit-identical whether energies are estimated one at a time or
batched on a grid, and identical at k and acos(cos k) because the letter
streams never depend on k and the matrices are functions of the
canonicalized cosine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .cocycle import ScaledMat2, a_matrix
from .measure import MarkovMeasure, _lane_blocks
from .sft import PeriodicPoint, enumerate_periodic_points
from .spectra import monodromy_trace

_WORD_TABLE_MAX = 512


def _word_steps(alphabet_size: int) -> int:
    """Steps per word-table entry: the longest L >= 1 with
    alphabet_size**(L+1) <= 512 (8 for two letters, 4 for three, 1 from 23
    letters on).  A step's rows have absolute sums below
    2*sqrt(alphabet_size) + 1, and so do its inverse's, so renormalizing once
    per L steps keeps every entry far inside double range."""
    length = 1
    while alphabet_size ** (length + 2) <= _WORD_TABLE_MAX:
        length += 1
    return length


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
    half = abs(monodromy_trace(p, k)) / 2.0
    if half <= 1.0:
        return 0.0
    return math.log(half + math.sqrt(half * half - 1.0)) / p.period


def growth_rate(sm: ScaledMat2, n_steps: int) -> float:
    """Per-step expansion rate of an accumulated renormalized product."""
    return (sm.log_scale + math.log(sm.mat.spectral_norm())) / n_steps


def _iter_pair_blocks(
    measure: MarkovMeasure, n_steps: int, n_samples: int, seed: int
) -> Iterator[np.ndarray]:
    """Stream (n_samples, block) matrices of letter-pair indices
    (prev-1)*l + (cur-1) over the n_steps + 1 letters of each sample, drawn
    by the lane sampler with entropy (seed, sample_index)."""
    l = measure.spec.alphabet_size
    blocks = _lane_blocks(measure, [(int(seed), i) for i in range(n_samples)], n_steps + 1)
    prev = next(blocks)[:, 0]
    for pairs in blocks:  # letters, turned into pair indices in place
        last = pairs[:, -1].copy()
        pairs[:, 1:] += pairs[:, :-1] * l
        pairs[:, 0] += prev * l
        prev = last
        yield pairs


def _step_table(measure: MarkovMeasure, k_values: Sequence[float]) -> np.ndarray:
    """Entries (a11, a12, a21, a22) of the single-step matrix for every letter
    pair index (prev-1)*l + (cur-1), shape (4, n_k, l*l); NaN on forbidden
    pairs."""
    l = measure.spec.alphabet_size
    table = np.full((4, len(k_values), l * l), np.nan)
    for a, k in enumerate(k_values):
        for prev in measure.spec.letters:
            for cur in measure.spec.letters:
                if measure.spec.allowed[prev - 1][cur - 1]:
                    table[:, a, (prev - 1) * l + (cur - 1)] = a_matrix(k, prev, cur)
    return table


def _word_table(steps: np.ndarray, l: int, length: int) -> np.ndarray:
    """Entries of the ``length``-step product A(w_L-1, w_L) ... A(w_0, w_1) for
    every (length+1)-letter word, indexed base l with w_0 most significant,
    shape (4, n_k, l**(length+1)).  Words containing a forbidden pair hold NaN."""
    table = steps
    for _ in range(length - 1):
        # appending letter c to word w gives index w*l + c and the step (w % l, c)
        words = np.repeat(np.arange(table.shape[-1]), l)
        step = steps[:, :, (words % l) * l + np.tile(np.arange(l), table.shape[-1])]
        table = _mul(step, table[:, :, words])
    return table


def _mul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise 2x2 products a @ m over stacked (a11, a12, a21, a22) entries."""
    return np.stack(
        (
            a[0] * m[0] + a[1] * m[2],
            a[0] * m[1] + a[1] * m[3],
            a[2] * m[0] + a[3] * m[2],
            a[2] * m[1] + a[3] * m[3],
        )
    )


def _advance(a: np.ndarray, m: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """a @ m renormalized by its max entry, whose log is added to logs in place."""
    prod = _mul(a, m)
    mag = np.abs(prod).max(axis=0)
    logs += np.log(mag)
    return prod / mag


def _mc_rates(
    measure: MarkovMeasure, k_values: Sequence[float], n_steps: int, n_samples: int, seed: int
) -> np.ndarray:
    """Per-sample rates, shape (len(k_values), n_samples).

    Each Python iteration applies the precomputed L-step product of one
    (L+1)-letter word per lane, L = _word_steps(l), and renormalizes once;
    the steps a block leaves over after its last whole word use the
    single-step table."""
    l = measure.spec.alphabet_size
    length = _word_steps(l)
    steps = _step_table(measure, k_values)
    words = _word_table(steps, l, length)

    m = np.zeros((4, len(k_values), n_samples))
    m[0] = m[3] = 1.0
    logs = np.zeros((len(k_values), n_samples))

    for pairs in _iter_pair_blocks(measure, n_steps, n_samples, seed):
        b = pairs.shape[1]
        whole = b - b % length
        idx = pairs[:, 0:whole:length]
        for i in range(1, length):
            idx = idx * l + pairs[:, i:whole:length] % l
        for j in range(idx.shape[1]):
            m = _advance(words[:, :, idx[:, j]], m, logs)
        for t in range(whole, b):
            m = _advance(steps[:, :, pairs[:, t]], m, logs)

    q = m[0] * m[0] + m[1] * m[1] + m[2] * m[2] + m[3] * m[3]
    det = m[0] * m[3] - m[1] * m[2]
    smax = np.sqrt((q + np.sqrt(np.maximum(q * q - 4.0 * det * det, 0.0))) / 2.0)
    return (logs + np.log(smax)) / n_steps


def _estimate_from_rates(row: np.ndarray, k: float, n_steps, n_samples, seed) -> LyapunovEstimate:
    value = float(np.mean(row))
    stderr = float(np.std(row, ddof=1) / math.sqrt(n_samples))
    return LyapunovEstimate(
        k=float(k), value=value, stderr=stderr, n_steps=n_steps, n_samples=n_samples, seed=seed
    )


def _check_mc_args(n_steps: int, n_samples: int):
    if n_steps < 1000:
        raise ValueError("n_steps must be at least 1000")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")


def lyapunov_mc(
    measure: MarkovMeasure, k: float, n_steps: int, n_samples: int, seed: int
) -> LyapunovEstimate:
    """Monte-Carlo estimate of the exponent at a single energy."""
    _check_mc_args(n_steps, n_samples)
    rates = _mc_rates(measure, [k], n_steps, n_samples, seed)
    return _estimate_from_rates(rates[0], k, n_steps, n_samples, seed)


def lyapunov_mc_grid(
    measure: MarkovMeasure, k_values: Sequence[float], n_steps: int, n_samples: int, seed: int
) -> list[LyapunovEstimate]:
    """Estimates for a whole energy grid in one pass over the sampled paths;
    bit-identical to calling :func:`lyapunov_mc` per energy."""
    _check_mc_args(n_steps, n_samples)
    rates = _mc_rates(measure, list(k_values), n_steps, n_samples, seed)
    return [
        _estimate_from_rates(rates[i], k, n_steps, n_samples, seed)
        for i, k in enumerate(k_values)
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
    diagnostic that should shrink as the budget grows."""
    points = enumerate_periodic_points(measure.spec, max_period)
    est = lyapunov_mc(measure, k, mc_params.n_steps, mc_params.n_samples, mc_params.seed)
    gaps = [abs(lyapunov_periodic(p, k) - est.value) for p in points]
    return [
        min(g for p, g in zip(points, gaps) if p.period <= budget)
        for budget in range(1, max_period + 1)
    ]


def kalinin_gap(measure: MarkovMeasure, k: float, max_period: int, mc_params: McParams) -> float:
    """The last entry of :func:`kalinin_profile`: the gap over every periodic
    point of period <= max_period."""
    return kalinin_profile(measure, k, max_period, mc_params)[-1]
