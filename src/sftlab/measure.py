"""Stationary Markov measures on a subshift: the concrete, fully supported
ergodic measure class used everywhere downstream.

Sampling contract (stable across releases): a window draw with seed ``s``
uses ``numpy.random.Generator(PCG64(SeedSequence(s)))`` where ``s`` may be an
int or a tuple of ints, consumes exactly one uniform from ``Generator.random``
per letter, picks the first letter by inverse CDF on the stationary vector and
each subsequent letter by inverse CDF on the transition row of its
predecessor.  Inverse CDF on cumulative weights ``cum`` maps a uniform ``u``
to ``#{i < len(cum)-1 : cum[i] <= u}``.

One walk, :func:`_lane_walk`, implements it for any number of lanes:
:func:`sample_window` is its one-lane case, and Monte-Carlo samples are lanes.

The next letter depends on ``u`` only through its bucket
``#{theta in Theta : theta <= u}``, where Theta is the sorted set of distinct
interior cumulative transition weights strictly inside (0, 1): a weight
``<= 0`` is always ``<= u`` and a weight ``>= 1`` never is, since ``u`` lies in
[0, 1).  So there are only ``nb = len(Theta) + 1`` step maps.  Per call the
sampler tabulates, for every letter and every code of k buckets, the k
letters that follow.  Each block of k * 2**m letters, the largest
power-of-two count of whole chunks within 1024 letters (the last block may
be shorter), draws every lane's uniforms into a row, turns them into bucket
codes, and walks the lanes with one table gather per k letters.  The block
length never changes a letter: each lane reads one stream.  The walk yields
rows of a position-word table, each holding the letter before a chunk and
then its k letters; how rows are numbered stays inside this module.  A
block's letters are one gather of rows away (:func:`_block_letters`), and
the Monte-Carlo kernel reads its word slots off the rows, walking chunks of
exactly its word length L.  Otherwise k is the longest chunk whose table has
at most ``min(256, letters to walk)`` codes (k = 8 with one threshold, as
on the uniform full shift and on the golden mean with weights 1/2).
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
_CHUNK_TABLE_MAX = 256


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


def _lane_walk(
    measure: MarkovMeasure, seeds, n_letters: int, k: int | None = None
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[int, np.ndarray]]]:
    """The contract's walk over n_letters letters per lane (one per seed):
    each lane's 0-based first letter, shape (lanes,); the position-word
    table of :func:`_chunk_tables` for chunks of k letters (by default its
    length-capped k), whose every row holds the letter before a chunk and
    then the chunk; and an iterator over the blocks after the first letter
    that yields (b, pos), pos the rows of :func:`_walk_block`, shape
    (ceil(b / k), lanes).  Every block but the last has b = k * 2**m letters,
    the largest power-of-two count of whole chunks within _BLOCK letters, so
    it is 2**m whole chunks; the last block may be shorter.  The letters do
    not depend on the block length: each lane draws one stream."""
    gens = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s))) for s in seeds]
    stationary_cum = np.cumsum(measure.stationary)[:-1].tolist()
    first = np.array([bisect_right(stationary_cum, g.random()) for g in gens], dtype=np.intp)
    theta, words, last = _chunk_tables(measure, n_letters - 1, k)
    k = words.shape[1] - 1
    block = k << ((_BLOCK // k).bit_length() - 1)  # k * 2**m

    def blocks(cur):
        for done in range(1, n_letters, block):
            b = min(block, n_letters - done)
            pos = _walk_block(gens, theta, words, last, cur, b)
            cur = words[pos[-1], (b - 1) % k + 1]  # the block's last letter
            yield b, pos

    return first, words, blocks(first.copy())  # callers may change first


def _thresholds(measure: MarkovMeasure) -> tuple[list[list[float]], list[float]]:
    """Each row's interior cumulative transition weights, and Theta: their
    distinct values strictly inside (0, 1), sorted (module docstring)."""
    interior_rows = np.cumsum(measure.transition, axis=1)[:, :-1].tolist()
    return interior_rows, sorted({x for row in interior_rows for x in row if 0.0 < x < 1.0})


def _walk_size(measure: MarkovMeasure, k: int) -> int:
    """Rows of the position-word table of chunks of k letters, l * nb**k."""
    return measure.spec.alphabet_size * (len(_thresholds(measure)[1]) + 1) ** k


def _chunk_tables(
    measure: MarkovMeasure, n_walk: int, k: int | None = None
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """The thresholds Theta, sorted; the position-word table words, shape
    (l * nb**k, k+1), whose row p = s*nb**k + code holds the letter s and
    then the k letters that follow it when the k uniforms of a chunk fall in
    the buckets of code (base nb = len(Theta) + 1, first step most
    significant); and last[p] = words[p, -1] * nb**k.  k is the given chunk
    length, or by default the longest chunk with
    nb**k <= min(_CHUNK_TABLE_MAX, n_walk), at least 1, so a short walk
    builds a small table.

    A uniform u in bucket q steps s as every u in that bucket does, and so as
    its smallest member: 0.0 for q = 0, Theta[q-1] after (module docstring).
    Cumulative weights never decrease along a row, so bisect_right counts the
    weights <= that member."""
    interior_rows, theta = _thresholds(measure)
    nb = len(theta) + 1
    step = np.array([[bisect_right(row, x) for x in (0.0, *theta)] for row in interior_rows])
    if k is None:
        cap = min(_CHUNK_TABLE_MAX, n_walk)
        k = 1
        while k < cap and nb ** (k + 1) <= cap:
            k += 1
    l = len(step)
    words = np.empty((l, nb**k, k + 1), dtype=np.intp)
    state = np.arange(l)[:, None]
    words[:, :, 0] = state
    for i in range(1, k + 1):  # step i is the least significant digit of the codes so far
        state = step[state[:, :, None], np.arange(nb)].reshape(l, -1)
        words.reshape(l, nb**i, -1, k + 1)[:, :, :, i] = state[:, :, None]
    return theta, words.reshape(-1, k + 1), (state * nb**k).ravel()


def _walk_block(
    gens, theta: list[float], words: np.ndarray, last: np.ndarray, cur: np.ndarray, b: int
) -> np.ndarray:
    """The walk over the b letters after the letters cur in every lane, as
    the row of every chunk of k letters in the position-word table words,
    shape (chunks, lanes); a last partial chunk is padded with bucket 0, and
    only its first b % k letters belong to the block.

    Each lane's b uniforms are drawn into a row, padded with zeros (bucket 0)
    to whole chunks of k, and become one bucket code per chunk, kept as
    (chunks, lanes).  The walk takes one gather in last per chunk, where
    row s*nb**k + code holds the chunk's end letter times nb**k, so there is
    no loop per letter (one lane walks the same table on Python ints)."""
    k = words.shape[1] - 1
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
    if lanes == 1:  # sample_window: on one lane, numpy's cost per call outweighs the work
        table, at, walk = last.tolist(), int(cur[0]) * nbk, pos[:, 0].tolist()
        for c, x in enumerate(walk):
            walk[c] = at = at + x
            at = table[at]
        pos[:, 0] = walk
    else:
        at = cur * nbk
        for row in pos:
            row += at
            at = last[row]
    return pos


def _block_letters(words: np.ndarray, pos: np.ndarray, b: int) -> np.ndarray:
    """The b letters of a block walked to the rows pos of the position-word
    table words, shape (lanes, b): one gather of the chunks' letters."""
    return np.take(words[:, 1:], pos.T, axis=0).reshape(pos.shape[1], -1)[:, :b]


def _buckets(u: np.ndarray, theta: list[float], dtype) -> np.ndarray:
    """#{t in theta : t <= u} for every uniform u, as dtype."""
    q = np.zeros(u.shape, dtype=dtype)
    for t in theta:
        q += u >= t
    return q


def sample_window(measure: MarkovMeasure, first_index: int, last_index: int, seed) -> Word:
    """Draw a window of letters covering [first_index, last_index].

    Deterministic in (measure, indices, seed); see the module docstring for
    the seed-to-stream mapping.  This is the one-lane case of the sampler
    the Monte-Carlo estimator uses.
    """
    if first_index > last_index:
        raise ValueError("first_index must be <= last_index")
    first, words, walk = _lane_walk(measure, [seed], last_index - first_index + 1)
    letters = np.concatenate([first, *(_block_letters(words, pos, b)[0] for b, pos in walk)])
    return Word(tuple((letters + 1).tolist()), first_index)


def cylinder_probability(measure: MarkovMeasure, word: Word) -> float:
    """stationary[w_0] * prod transition[w_i][w_{i+1}]; base-index independent."""
    if len(word.letters) == 0:
        return 1.0
    p = float(measure.stationary[word.letters[0] - 1])
    for a, b in zip(word.letters, word.letters[1:]):
        p *= float(measure.transition[a - 1, b - 1])
    return p
