"""Stationary Markov measures on a subshift: the concrete, fully supported
ergodic measure class used everywhere downstream.

Sampling contract (stable across releases): a window draw with seed ``s``
uses ``numpy.random.Generator(PCG64(SeedSequence(s)))`` where ``s`` may be an
int or a tuple of ints, consumes exactly one uniform from ``Generator.random``
per letter, picks the first letter by inverse CDF on the stationary vector and
each subsequent letter by inverse CDF on the transition row of its
predecessor.  Inverse CDF on cumulative weights ``cum`` maps a uniform ``u``
to ``#{i < len(cum)-1 : cum[i] <= u}``.

Two implementations read the same doubles (:func:`_thresholds`).
:func:`sample_window` is the reference: one generator, one
``bisect_right`` per letter, uniforms drawn in blocks of ``_BLOCK``.
:func:`_lane_walk` is the lane kernel the Monte-Carlo estimator walks, one
lane per sample.

The next letter depends on ``u`` only through its bucket
``#{theta in Theta : theta <= u}``, where Theta is the sorted set of distinct
interior cumulative transition weights strictly inside (0, 1): a weight
``<= 0`` is always ``<= u`` and a weight ``>= 1`` never is, since ``u`` lies in
[0, 1).  So there are only ``nb = len(Theta) + 1`` step maps.  Per call the
lane walk tabulates, for every letter and every code of k buckets, the k
letters that follow, k the chunk length its caller names.  Each block of
k * 2**m letters, the largest power-of-two count of whole chunks within 1024
letters (the last block may be shorter), draws every lane's uniforms into a
row, turns them into bucket codes, and walks the lanes with one table gather
per k letters.  The block length never changes a letter: each lane reads
one stream.  The walk hands out the distinct (k+1)-letter words, each the
letter before a chunk and then its k letters, numbered once in
lexicographic order while the tables are built, and yields each chunk's
word id; how walk positions are numbered stays inside this module.  The
Monte-Carlo kernel takes the ids as its word slots, walking chunks of
exactly its word length L.
"""

from __future__ import annotations

from bisect import bisect_right
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
    if not np.all((p >= 0.0) & np.isfinite(p)):
        raise NotStochastic("transition probabilities must be finite and nonnegative")
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

    # pi P = pi, sum(pi) = 1: replace one balance equation by the normalization.
    # The diagonal of P - I is minus each row's off-diagonal sum, summed
    # directly: p_ii - 1 would round away weights below an ulp of the row
    # (Grassmann, Taksar & Heyman 1985).
    a = p.T.copy()
    np.fill_diagonal(a, -np.where(np.eye(n, dtype=bool), 0.0, p).sum(axis=1))
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = pi / pi.sum()
    if np.any(pi <= 0.0) or np.max(np.abs(pi @ p - pi)) > _ROW_TOL:
        raise NotStochastic("failed to compute a positive stationary vector")
    return MarkovMeasure(spec, p, pi)


def _lane_walk(
    measure: MarkovMeasure, seeds, n_letters: int, k: int
) -> tuple[np.ndarray, Iterator[tuple[int, np.ndarray]]]:
    """The contract's walk over n_letters letters per lane (one per seed):
    the words of :func:`_chunk_tables` for chunks of k letters, each the
    letter before a chunk and then the chunk, so the first chunk's word
    starts with the lane's first letter; and an iterator over the blocks
    after the first letter that yields (b, ids), ids the id of every
    chunk's word, shape (ceil(b / k), lanes).
    Every block but the last has b = k * 2**m letters, the largest
    power-of-two count of whole chunks within _BLOCK letters, so it is 2**m
    whole chunks; the last block may be shorter.  The letters do not depend
    on the block length: each lane draws one stream."""
    gens = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s))) for s in seeds]
    first_cum = _thresholds(measure)[2]
    first = np.array([bisect_right(first_cum, g.random()) for g in gens], dtype=np.intp)
    theta, words, word_of, last = _chunk_tables(measure, k)
    block = k << ((_BLOCK // k).bit_length() - 1)  # k * 2**m

    def blocks(cur):
        for done in range(1, n_letters, block):
            b = min(block, n_letters - done)
            ids = word_of[_walk_block(gens, theta, last, k, cur, b)]
            cur = words[ids[-1], (b - 1) % k + 1]  # the block's last letter
            yield b, ids

    return words, blocks(first)


def _thresholds(measure: MarkovMeasure) -> tuple[list[list[float]], list[float], list[float]]:
    """Each row's interior cumulative transition weights; Theta, their
    distinct values strictly inside (0, 1), sorted (module docstring); and
    the interior cumulative stationary weights, which pick the first letter."""
    interior_rows = np.cumsum(measure.transition, axis=1)[:, :-1].tolist()
    theta = sorted({x for row in interior_rows for x in row if 0.0 < x < 1.0})
    return interior_rows, theta, np.cumsum(measure.stationary)[:-1].tolist()


def _walk_size(measure: MarkovMeasure, k: int) -> int:
    """Walk positions of chunks of k letters, l * nb**k (:func:`_chunk_tables`)."""
    return measure.spec.alphabet_size * (len(_thresholds(measure)[1]) + 1) ** k


def _chunk_tables(measure: MarkovMeasure, k: int) -> tuple[list[float], np.ndarray, np.ndarray, np.ndarray]:
    """The thresholds Theta, sorted; words, the distinct (k+1)-letter words
    of the walk in lexicographic order, shape (n_words, k+1); and for every
    walk position p = s*nb**k + code, the id word_of[p] of the word of the
    letter s and the k letters that follow it when the k uniforms of a
    chunk fall in the buckets of code (base nb = len(Theta) + 1, first step
    most significant), and last[p], its last letter times nb**k.  Every
    admissible word has positive probability, so words are exactly the
    admissible (k+1)-letter words.

    A uniform u in bucket q steps s as every u in that bucket does, and so as
    its smallest member: 0.0 for q = 0, Theta[q-1] after (module docstring).
    Cumulative weights never decrease along a row, so bisect_right counts the
    weights <= that member, and no row of step decreases: the buckets that
    step s to one letter are consecutive.  So each step marks the first
    bucket of every (prefix id, next letter) pair, a cumsum of the marks
    numbers the pairs in lexicographic order, and a position's new id is
    one gather at its prefix id and bucket."""
    interior_rows, theta, _ = _thresholds(measure)
    nb = len(theta) + 1
    step = np.array([[bisect_right(row, x) for x in (0.0, *theta)] for row in interior_rows])
    fresh = np.ones(step.shape, dtype=bool)  # bucket q is the first to step s to its letter
    fresh[:, 1:] = step[:, 1:] != step[:, :-1]
    ids = np.arange(len(step))  # each position's prefix id: position s*nb**i + code after step i
    words = ids[:, None]  # the distinct prefixes in id order
    for _ in range(k):  # each step is the least significant digit of the codes so far
        seen = fresh[words[:, -1]]
        child = seen.cumsum().reshape(seen.shape) - 1  # id of (parent, letter) by bucket
        parent, q = seen.nonzero()
        words = np.column_stack((words[parent], step[words[parent, -1], q]))
        ids = child[ids].ravel()
    return theta, words, ids, words[ids, -1] * nb**k


def _walk_block(
    gens, theta: list[float], last: np.ndarray, k: int, cur: np.ndarray, b: int
) -> np.ndarray:
    """The walk over the b letters after the letters cur in every lane, as
    the position of every chunk of k letters (:func:`_chunk_tables`), shape
    (chunks, lanes); a last partial chunk is padded with bucket 0, and only
    its first b % k letters belong to the block.

    Each lane's b uniforms are drawn into a row, padded with zeros (bucket 0)
    to whole chunks of k, and become one bucket code per chunk, kept as
    (chunks, lanes).  The walk takes one gather in last per chunk, where
    position s*nb**k + code holds the chunk's end letter times nb**k, so
    there is no loop per letter."""
    nbk = (len(theta) + 1) ** k
    lanes = len(gens)
    u = np.empty((lanes, -(-b // k) * k))
    u[:, b:] = 0.0
    for i, g in enumerate(gens):
        g.random(out=u[i, :b])
    q = _buckets(u, theta, np.min_scalar_type(nbk - 1)).reshape(lanes, -1, k)
    del u  # the block's largest array: free it before the codes are built
    code = q[:, :, 0].copy()
    for i in range(1, k):  # Horner in base nb, first step most significant
        code *= len(theta) + 1
        code += q[:, :, i]
    pos = np.array(code.T, dtype=np.intp, order="C")
    at = cur * nbk
    for row in pos:
        row += at
        at = last[row]
    return pos


def _buckets(u: np.ndarray, theta: list[float], dtype) -> np.ndarray:
    """#{t in theta : t <= u} for every uniform u, as dtype."""
    q = np.zeros(u.shape, dtype=dtype)
    for t in theta:
        q += u >= t
    return q


def sample_window(measure: MarkovMeasure, first_index: int, last_index: int, seed) -> Word:
    """Draw a window of letters covering [first_index, last_index].

    Deterministic in (measure, indices, seed): the sampling contract of the
    module docstring, one letter at a time.  Uniforms are drawn in blocks of
    _BLOCK, so a long window holds one block of them at a time.
    """
    if first_index > last_index:
        raise ValueError("first_index must be <= last_index")
    n = last_index - first_index + 1
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows, _, first_cum = _thresholds(measure)
    cur = bisect_right(first_cum, gen.random())
    letters = [cur + 1]
    for done in range(1, n, _BLOCK):
        for u in gen.random(min(_BLOCK, n - done)).tolist():
            cur = bisect_right(rows[cur], u)
            letters.append(cur + 1)
    return Word(letters, first_index)
