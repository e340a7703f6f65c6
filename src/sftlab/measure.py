"""Stationary Markov measures on a subshift: the concrete, fully supported
ergodic measure class used everywhere downstream.

Sampling contract (stable across releases): a window draw with seed ``s``
uses ``numpy.random.Generator(PCG64(SeedSequence(s)))`` where ``s`` may be an
int or a tuple of ints, consumes exactly one uniform from ``Generator.random``
per letter, picks the first letter by inverse CDF on the stationary vector and
each subsequent letter by inverse CDF on the transition row of its
predecessor.  Inverse CDF on cumulative weights ``cum`` maps a uniform ``u``
to ``#{i < len(cum)-1 : cum[i] <= u}``.

One sampler, :func:`_lane_blocks`, implements it for any number of lanes:
:func:`sample_window` is its one-lane case, and Monte-Carlo samples are lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NotStochastic, SupportViolation
from .sft import SubshiftSpec, Word

_ROW_TOL = 1e-12
_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Row-stochastic transitions supported exactly on the allowed pairs,
    plus the (unique) stationary probability vector."""

    spec: SubshiftSpec
    transition: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        self.transition.setflags(write=False)
        self.stationary.setflags(write=False)


def stationary_markov(spec: SubshiftSpec, transition) -> MarkovMeasure:
    """Validate a transition matrix against the spec and attach its stationary
    vector (unique by strong connectivity of the allowed graph)."""
    p = np.asarray(transition, dtype=float)
    n = spec.alphabet_size
    if p.shape != (n, n):
        raise NotStochastic(f"transition matrix must be {n}x{n}, got shape {p.shape}")
    if np.any(p < 0.0):
        raise NotStochastic("transition probabilities must be nonnegative")
    rowsum = p.sum(axis=1)
    if np.any(np.abs(rowsum - 1.0) > _ROW_TOL):
        raise NotStochastic(f"rows must sum to 1 within {_ROW_TOL}; sums are {rowsum}")
    for i in range(n):
        for j in range(n):
            if spec.allowed[i][j] and p[i, j] <= 0.0:
                raise SupportViolation(
                    f"allowed transition ({i + 1}, {j + 1}) has probability 0: supp(mu) would miss part of the subshift"
                )
            if not spec.allowed[i][j] and p[i, j] != 0.0:
                raise SupportViolation(
                    f"forbidden transition ({i + 1}, {j + 1}) has positive probability {p[i, j]}"
                )

    # pi P = pi, sum(pi) = 1: replace one balance equation by the normalization
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = pi / pi.sum()
    if np.any(pi <= 0.0) or np.max(np.abs(pi @ p - pi)) > _ROW_TOL:
        raise NotStochastic("failed to compute a positive stationary vector")
    return MarkovMeasure(spec, p, pi)


def _lane_blocks(measure: MarkovMeasure, seeds, n_letters: int) -> Iterator[np.ndarray]:
    """The contract's 0-based letters, n_letters per lane (one per seed), as new
    (lanes, b) arrays: each lane's first letter alone, then up to _BLOCK letters."""
    gens = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s))) for s in seeds]
    interior_rows = np.cumsum(measure.transition, axis=1)[:, :-1]
    u0 = np.array([g.random() for g in gens])
    cur = np.sum(np.cumsum(measure.stationary)[None, :-1] <= u0[:, None], axis=1)
    yield cur[:, None]
    for done in range(1, n_letters, _BLOCK):
        letters = _walk_block(gens, interior_rows, cur, min(_BLOCK, n_letters - done))
        cur = letters[-1].copy()  # callers may change the block they get
        yield letters.T


def _walk_block(gens, interior_rows: np.ndarray, cur: np.ndarray, b: int) -> np.ndarray:
    """The b letters after the letters cur in every lane, shape (b, lanes), by one
    gather per step in nxt[t, lane*l + s] = lane*l + the letter after s at step t."""
    l = len(interior_rows)
    offsets = np.arange(len(gens)) * l
    u = np.empty((b, len(gens), 1))
    for i, g in enumerate(gens):
        u[:, i, 0] = g.random(b)
    nxt = np.tile(np.repeat(offsets, l), (b, 1))
    for cum in interior_rows.T:
        nxt += (cum <= u).reshape(b, -1)
    out = np.empty((b, len(gens)), dtype=nxt.dtype)
    idx = offsets + cur
    for t in range(b):
        idx = nxt[t][idx]
        out[t] = idx
    out -= offsets
    return out


def sample_window(measure: MarkovMeasure, first_index: int, last_index: int, seed) -> Word:
    """Draw a window of letters covering [first_index, last_index].

    Deterministic in (measure, indices, seed); see the module docstring for
    the seed-to-stream mapping.  This is the one-lane case of the sampler
    the Monte-Carlo estimator uses.
    """
    if first_index > last_index:
        raise ValueError("first_index must be <= last_index")
    blocks = _lane_blocks(measure, [seed], last_index - first_index + 1)
    letters = np.concatenate([block[0] for block in blocks])
    return Word(tuple((letters + 1).tolist()), first_index)


def cylinder_probability(measure: MarkovMeasure, word: Word) -> float:
    """stationary[w_0] * prod transition[w_i][w_{i+1}]; base-index independent."""
    if len(word.letters) == 0:
        return 1.0
    p = float(measure.stationary[word.letters[0] - 1])
    for a, b in zip(word.letters, word.letters[1:]):
        p *= float(measure.transition[a - 1, b - 1])
    return p
