"""Lyapunov exponents: exact values on periodic orbits, Monte-Carlo ergodic
estimates and the periodic-approximation diagnostic.

The Monte-Carlo estimator runs ``n_samples`` independent windows of
``n_steps`` steps each.  Sample ``i`` is lane ``i`` of the lane walk in
:mod:`sftlab.measure`, seeded with ``(seed, i)``: by the sampling contract its
letters are those of ``sample_window(measure, -1, n_steps - 1, seed=(seed, i))``.
It multiplies the per-step matrices, keeps one log scale per column of
the running product, and reports

    rate_i = (larger column log + log spectral norm of the residual) / n_steps.

The L-step products of the admissible (L+1)-letter words are tabulated per
energy from the single-step matrices, with L the longest length that has at
most 512 such words (8 steps on the full 2-shift, 11 on the golden mean).
The sampler walks blocks of L * 2**m steps in chunks of exactly L letters
and hands out the admissible (L+1)-letter words in lexicographic order and,
per chunk, the id of its word: the letter before the chunk and the chunk.
So a whole block is 2**m word slots, its ids as they come.  Only a short
last block has the r leftover steps of a partial chunk, one slot per single
step read off the pair ids x*l + y of its word, and identity padding up to
a power of two.  The slots are multiplied, unscaled, as a balanced tree
(later half on the left) down to R roots of bounded entries, which the tree
returns in time order and which advance the running lane product; only
that step divides each column by its max entry.
Energies sit on the innermost axis of every kernel array, so gathering a
slot copies one contiguous row of all energies.  Blocks are gathered in
chunks of lanes with every energy, or of energies for one lane, of at most
``_GATHER_BUDGET`` elements.

On Linux a call with enough work computes its lanes in contiguous shares,
one per usable CPU (the process's affinity mask), every share but the
first in a forked worker process (:func:`_mc_rates`).  Work counts the
sampler's draw of every lane-step as well as its product at every energy,
so one energy at 100 samples of 1e5 steps splits as a 101-energy grid at
1e4 steps does.  Lanes are
independent, so the rates are byte-identical for any CPU count or
affinity: ``taskset -c 0 sftlab ...`` gives the single-process run, and no
option selects the split.  Elsewhere every call runs in-process.

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
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NoReturn, Sequence

import numpy as np

from .cocycle import a_matrix, check_energy
from .measure import MarkovMeasure, _lane_walk, _walk_size
from .sft import PeriodicPoint, enumerate_periodic_points
from .spectra import monodromy_trace

_WORD_TABLE_MAX = 512
_WALK_POSITIONS_MAX = 1 << 16
_WORD_BITS_MAX = 32  # log2 bound on the entries of one word-table entry
_ENTRY_BITS_MAX = 1000  # log2 bound on the entries of one tree root
_GATHER_BUDGET = 1 << 18  # elements (2 MiB of float64) in one gathered block chunk
# The work of an _mc_rates call is n_steps * n_samples * (energies +
# _SAMPLER_ENERGIES): the sampler costs the same per lane-step at any energy
# count, and on a 2-CPU Xeon VM (Python 3.11.7, numpy 2.4.6) it weighs as
# much as 3.7 energies of product on the full 2-shift and 5.9 on the golden
# mean (a + b * energies fitted per lane-step to kernel calls at 1, 11 and
# 101 energies, 100 lanes: a = 6.0 and 7.3 ns, b = 1.6 and 1.2 ns).
_SAMPLER_ENERGIES = 6
# Work per forked worker of _mc_rates.  A fork, pipe and reap of the 42 MB
# process took 3.4-3.7 ms, but each worker also builds its own tables and
# faults in its own pages.  Two workers against one (paired medians of 30
# alternating calls, 100 lanes, same VM): at one energy on the full 2-shift
# 1.16x at 1e6 lane-steps, 0.9-1.4x at 2e6, 0.88x at 3e6, 0.85x at 5e6 and
# 0.82x at 1e7; on the 101-energy golden-mean grid 1.04x at 5e6
# lane-step-energies, 0.90x at 1e7, 0.79x at 2e7, 0.65x at 4e7 and 0.59x
# at 1e8.  One energy gains less because half the lanes is not half the
# time there: 50 lanes of 1e5 steps took 51-59 ms alone against 83-90 ms
# for 100.  2**24 = 1.7e7 per worker splits a call in two from 3.4e7: 4.8e6
# lane-steps at one energy (the README quickstart's 1e7 is twice that) and
# 3.2e7 lane-step-energies on the grid.
# The CPU count is the affinity mask: a cgroup CPU quota below it is not
# detected, and `taskset -c CPUS` is the way to restrict the workers.
_SPLIT_WORK = 1 << 24


def _step_bits(l: int) -> float:
    """log2(2*sqrt(l) + 1): a step on l letters and its inverse have absolute
    row sums below 2*sqrt(l) + 1, so n steps have entries below 2**(n * this)."""
    return math.log2(2 * math.sqrt(l) + 1)


def _word_steps(measure: MarkovMeasure) -> int:
    """Steps per word-table entry: the longest L >= 1 with at most
    _WORD_TABLE_MAX = 512 admissible (L+1)-letter words, counted exactly as
    the sum of the entries of A**L, A the 0/1 matrix of allowed pairs (8 on
    the full 2-shift, 11 on the golden mean, 3 on the full 4-shift, 1 on full
    shifts from 23 letters on).  Two caps bound L as well:

    - the sampler's walk in chunks of L letters has l * nb**L positions
      (:func:`sftlab.measure._walk_size`), at most _WALK_POSITIONS_MAX = 2**16;
    - a word's entries stay below 2**(L * _step_bits(l)), which must stay at
      most 2**_WORD_BITS_MAX = 2**32 (3e6 on the golden mean at L = 11).

    The second cap alone ends a near-deterministic shift, such as the
    2-cycle with nb = 1 and two words at every length (L = 16 there)."""
    step_bits = _step_bits(measure.spec.alphabet_size)
    allowed = np.array(measure.spec.allowed, dtype=np.int64)
    ends = allowed.sum(axis=0)  # admissible 2-letter words by last letter
    length = 1
    while True:
        ends = ends @ allowed  # (length + 2)-letter words, at most 512 * l
        if (
            ends.sum() > _WORD_TABLE_MAX
            or _walk_size(measure, length + 1) > _WALK_POSITIONS_MAX
            or step_bits * (length + 1) > _WORD_BITS_MAX
        ):
            return length
        length += 1


@dataclass(frozen=True)
class LyapunovEstimate:
    k: float
    value: float
    stderr: float
    n_steps: int
    n_samples: int
    seed: int


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


def _word_table(steps: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Entries of the L-step product A(w_L-1, w_L) ... A(w_0, w_1) of every
    word w_0 ... w_L, given as the rows of its step indices w_t*l + w_t+1 in
    pairs (n_words, L), shape (4, n_words, n_k) like the steps (4, l*l, n_k),
    each step multiplied on the left of the ones before."""
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


def _advance(a: np.ndarray, m: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """a @ m with each column divided by its own max absolute entry, whose
    log is added in place to that column's row of logs (2, lanes, n_k).  At
    c = 0 the product is diagonal or antidiagonal, entries e**S and e**-S:
    one scale for both columns would flush e**-S to 0 once S passes about
    744 nats."""
    prod = _mul(a, m)
    cols = prod.reshape(2, 2, *prod.shape[1:])  # (row, column, ...)
    mag = np.abs(cols).max(axis=0)
    cols /= mag
    logs += np.log(mag)
    return prod


@lru_cache(maxsize=None)
def _bit_reversal(size: int) -> np.ndarray:
    """bitrev(t) for t < size, a power of two, built once per size."""
    rev = np.zeros(1, dtype=np.intp)
    while len(rev) < size:
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    rev.setflags(write=False)
    return rev


def _block_slots(ids: np.ndarray, b: int, pairs: np.ndarray, step0: int, pad: int) -> np.ndarray:
    """Indices into the combined table of a sampler block of b letters, from
    the ids (chunks, lanes) of its chunks' words in the sampler's word table,
    whose step indices x*l + y are the rows of pairs (n_words, L), shape
    (P, lanes) with P the next power of two: the word id of every whole
    chunk, then the leftover single steps step0 + pairs[id, t] for the
    first r = b % L steps of a last partial chunk's word, then identity
    padding (index pad).  A whole block of the walk is 2**m whole chunks, so
    it fills P = 2**m slots with words alone; only a short last block has
    leftover steps or padding.  Time t is stored at row bitrev(t), so that
    the later half of every level of :func:`_tree_product` is its upper half
    (time order with strided pairing gives the same bits but is slower; see
    there)."""
    whole, r = divmod(b, pairs.shape[1])
    n = whole + r
    rev = _bit_reversal(1 << (n - 1).bit_length())
    slots = np.full((len(rev), ids.shape[1]), pad, dtype=np.intp)
    slots[rev[:whole]] = ids[:whole]
    if r:
        slots[rev[whole:n]] = (step0 + pairs[ids[whole], :r]).T
    return slots


def _tree_product(mats: np.ndarray, span: int) -> list[np.ndarray]:
    """Time-ordered products of the P slots of mats, shape (4, P, lanes, n_k)
    in :func:`_block_slots` order (the cached :func:`_bit_reversal`), as a
    balanced tree along axis 1: each level multiplies the upper half (later
    times) onto the lower half, unscaled, until R = max(1, P // span)
    products of span slots are left.  Returns these R roots in time order,
    views of shape (4, lanes, n_k): the bit-reversed storage leaves
    time-chunk t in row bitrev(t).  All of it is elementwise per energy and
    lane; :func:`_mc_rates` picks span to bound the entries.

    Slots in time order, paired odd onto even on strided views
    (``mats[:, 1::2]`` onto ``mats[:, ::2]``), give the same bits but run
    slower: on a 2-core Xeon the tree took 1.13-1.28 ms against 0.73-0.88 ms
    at shape (4, 64, 10, 101), and :func:`_mc_rates` at the mc_scan shape
    (golden mean, 101 energies, 100 samples of 1e4 steps) 0.24 s against
    0.17-0.20 s."""
    roots = max(1, mats.shape[1] // span)
    while mats.shape[1] > roots:
        h = mats.shape[1] // 2
        mats = _mul(mats[:, h:], mats[:, :h])
    return [mats[:, t] for t in _bit_reversal(roots)]


def _chunks(n_k: int, n_lanes: int, slot_elements: int) -> Iterator[tuple[slice, list[slice]]]:
    """Runs of energies, each with its runs of lanes, whose gathered blocks
    hold at most _GATHER_BUDGET elements at slot_elements per energy and
    lane: as many energies as fit in one lane, then as many lanes as fit
    with those, so every energy while one lane fits, else one lane at a
    time.  An empty grid has no chunks."""
    k_run = max(1, min(n_k, _GATHER_BUDGET // slot_elements))
    lane_run = max(1, _GATHER_BUDGET // (k_run * slot_elements))
    lane_runs = [slice(s0, s0 + lane_run) for s0 in range(0, n_lanes, lane_run)]
    for k0 in range(0, n_k, k_run):
        yield slice(k0, k0 + k_run), lane_runs


def _lane_rates(measure: MarkovMeasure, k_values: Sequence[float], n_steps: int, seeds: list) -> np.ndarray:
    """Per-lane rates, shape (len(k_values), len(seeds)), lane i walking the
    stream seeded with seeds[i]: the kernel of :func:`_mc_rates`.

    The sampler walks blocks of L * 2**m letters in chunks of
    L = _word_steps(measure) letters and hands out the id of each chunk's
    (L+1)-letter word in its table of the admissible words.  pairs holds
    each word's step indices x*l + y, built once: :func:`_word_table`
    multiplies its rows, and :func:`_block_slots` makes each whole chunk's
    id its slot and, in a short last block, reads one slot per leftover
    single step off pairs and adds identity padding up to a power of two,
    gathered from one combined table (admissible words | steps | identity)
    per energy; no letters are built for whole chunks.
    :func:`_tree_product` multiplies the P slots, unscaled, down to
    R = max(1, P // span) roots, which it returns in time order, and
    :func:`_advance`, the one place the product is renormalized, applies
    them to the running lane product, which starts as copies of the table's
    identity.  A root has entries below 2**(span * L * _step_bits(l)), and
    span is the largest power of two that keeps this at most
    2**_ENTRY_BITS_MAX = 2**1000 (R = 2 on the full and golden shifts): so
    :func:`_mul`'s sums stay below 2**1001, and at c = 0 a root's small
    entry, the inverse of its large one, stays above 2**-1000, a normal
    double.  Tables, running product (4, lanes, n_k) and column logs
    (2, lanes, n_k) keep energies last, so a gathered slot is one
    contiguous row of every energy.  The work runs in chunks of lanes, or of
    energies, that keep each gathered array within _GATHER_BUDGET elements;
    the association order depends only on the block, so the chunks never
    change a bit of the result."""
    l = measure.spec.alphabet_size
    length = _word_steps(measure)
    span = 1 << (int(_ENTRY_BITS_MAX / (length * _step_bits(l))).bit_length() - 1)
    n_lanes = len(seeds)
    words, walk = _lane_walk(measure, seeds, n_steps + 1, length)
    pairs = words[:, :-1] * l + words[:, 1:]
    steps = _step_table(measure, k_values)
    eye = np.zeros((4, 1, len(k_values)))
    eye[0] = eye[3] = 1.0
    table = np.concatenate((_word_table(steps, pairs), steps, eye), axis=1)
    step0, pad = len(words), table.shape[1] - 1

    m = np.repeat(eye, n_lanes, axis=1)
    logs = np.zeros((2, n_lanes, len(k_values)))

    for b, ids in walk:
        slots = _block_slots(ids, b, pairs, step0, pad)
        for ks, lane_runs in _chunks(len(k_values), n_lanes, 4 * len(slots)):
            sub = np.ascontiguousarray(table[:, :, ks])  # a copy only if the energies split
            for lanes in lane_runs:
                prod = m[:, lanes, ks]
                for root in _tree_product(np.take(sub, slots[:, lanes], axis=1), span):
                    prod = _advance(root, prod, logs[:, lanes, ks])
                m[:, lanes, ks] = prod

    top = logs.max(axis=0)
    m *= np.exp(logs - top)[[0, 1, 0, 1]]  # column j by exp(logs[j] - top)
    q = m[0] * m[0] + m[1] * m[1] + m[2] * m[2] + m[3] * m[3]
    det = m[0] * m[3] - m[1] * m[2]
    smax = np.sqrt((q + np.sqrt(np.maximum(q * q - 4.0 * det * det, 0.0))) / 2.0)
    return np.ascontiguousarray(((top + np.log(smax)) / n_steps).T)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), or 1 where os has
    no sched_getaffinity (macOS, Windows), which keeps every call
    in-process there."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker(fd: int, measure: MarkovMeasure, k_values: Sequence[float], n_steps: int, seeds: list) -> NoReturn:
    """The body of a forked worker: the kernel on its share of the lanes,
    whose rates' bytes it writes to fd.  It leaves through os._exit, 0
    after a full write and 1 on any exception, so it never returns into
    the caller's frames, runs no atexit handler and flushes no stdio
    buffer it inherited."""
    code = 1
    try:
        data = memoryview(_lane_rates(measure, k_values, n_steps, seeds).tobytes())
        while data:
            data = data[os.write(fd, data) :]
        code = 0
    finally:
        os._exit(code)


def _mc_rates(
    measure: MarkovMeasure, k_values: Sequence[float], n_steps: int, n_samples: int, seed: int
) -> np.ndarray:
    """Per-sample rates, shape (len(k_values), n_samples), lane i seeded
    with (seed, i), computed by :func:`_lane_rates` in W contiguous shares
    of the lanes, share j the lanes [n*j // W, n*(j+1) // W) with
    n = n_samples, and
    W = max(1, min(usable CPUs, n_samples, work // _SPLIT_WORK)), work
    n_steps * n_samples * (len(k_values) + _SAMPLER_ENERGIES): each
    lane-step costs its sampler draw besides one product per energy.  Every
    energy is checked first (:func:`sftlab.cocycle.check_energy`), so a
    singular or non-finite one raises before any fork or draw, and an empty
    grid returns an empty (0, n_samples) array without walking.  Shares
    1..W-1 each run in an os.fork() child, which runs only the kernel and
    one write of its rates' bytes to its own pipe (:func:`_worker`); the
    parent computes share 0 itself, reads every pipe to EOF before it
    reaps any child (a share can exceed the 64 KiB pipe buffer), checks
    each child's exit status and byte count, and joins the shares along
    the lane axis.  If it unwinds (an exception or KeyboardInterrupt) it
    first SIGKILLs the children it has not reaped; either way every child
    is reaped before the call returns, so none outlives it.  A share whose
    fork raises OSError (EAGAIN at a process limit, say) is computed
    in-process.

    The bits cannot move with W: lanes are independent (each draws its
    own seeded stream and has its own running product), the tree's
    association order depends only on the sampler block, and
    :func:`_chunks`' lane and energy runs never change a bit.  So the
    rates are byte-identical for any CPU count or affinity mask.

    Threads at fork time: numpy's OpenBLAS registers fork handlers, and the
    benchmark pins BLAS to one thread.  On Python >= 3.12 os.fork issues a
    DeprecationWarning when other threads exist; outside __main__ that
    warning is ignored by default (CI runs 3.10 and 3.11)."""
    for k in k_values:
        check_energy(k)
    if len(k_values) == 0:
        return np.empty((0, n_samples))
    seeds = [(int(seed), i) for i in range(n_samples)]
    work = n_steps * n_samples * (len(k_values) + _SAMPLER_ENERGIES)
    w = max(1, min(_usable_cpus(), n_samples, work // _SPLIT_WORK))
    if w == 1:
        return _lane_rates(measure, k_values, n_steps, seeds)
    shares = [seeds[n_samples * j // w : n_samples * (j + 1) // w] for j in range(w)]
    pids: dict[int, int] = {}  # share -> child not yet reaped
    pipes: dict[int, int] = {}  # share -> read end not yet closed
    rates, payloads = {}, {}
    try:
        for j in range(1, w):
            pipes[j], write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(write_end)
                continue
            if pid == 0:
                _worker(write_end, measure, k_values, n_steps, shares[j])
            os.close(write_end)
            pids[j] = pid
        for j in range(w):
            if j not in pids:
                rates[j] = _lane_rates(measure, k_values, n_steps, shares[j])
        for j in pids:
            with os.fdopen(pipes.pop(j), "rb") as pipe:
                payloads[j] = pipe.read()
        for j, payload in payloads.items():
            code = os.waitstatus_to_exitcode(os.waitpid(pids[j], 0)[1])
            del pids[j]
            size = 8 * len(k_values) * len(shares[j])
            if code != 0 or len(payload) != size:
                first, last = shares[j][0][1], shares[j][-1][1]
                raise RuntimeError(
                    f"Monte-Carlo worker {j} (lanes {first}..{last}) exited with code {code}"
                    f" after writing {len(payload)} of {size} bytes"
                )
            rates[j] = np.frombuffer(payload).reshape(len(k_values), len(shares[j]))
    except BaseException:
        import signal  # only an unwinding parent needs it: no import at module load

        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in pipes.values():
            os.close(fd)
        for pid in pids.values():
            os.waitpid(pid, 0)
    return np.concatenate([rates[j] for j in range(w)], axis=1)


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
    stderrs = rates.std(axis=1, ddof=1) / math.sqrt(n_samples)
    return [
        LyapunovEstimate(float(k), float(v), float(e), n_steps, n_samples, seed)
        for k, v, e in zip(k_values, rates.mean(axis=1), stderrs)
    ]


def in_exclusion_window(k: float, halfwidth: float = 0.02) -> bool:
    """Whether k lies within ``halfwidth`` of one of 0, pi/2, pi, the three
    energies the positivity statements leave untouched."""
    return any(abs(k - x) <= halfwidth for x in (0.0, math.pi / 2.0, math.pi))


def kalinin_profile(
    measure: MarkovMeasure, k: float, max_period: int, n_steps: int, n_samples: int, seed: int
) -> list[float]:
    """For each period budget n = 1..max_period, the min over periodic points
    of period <= n of |periodic exponent - Monte-Carlo estimate|: a
    diagnostic that should shrink as the budget grows.  It is a running
    minimum over the period-sorted points, so a budget below the shortest
    period (1 on a shift without fixed points) reads inf, the minimum over
    no points."""
    points = enumerate_periodic_points(measure.spec, max_period)
    est = lyapunov_mc(measure, k, n_steps, n_samples, seed)
    running = list(accumulate((abs(lyapunov_periodic(p, k) - est.value) for p in points), min))
    periods = [p.period for p in points]
    ends = [bisect_right(periods, budget) for budget in range(1, max_period + 1)]
    return [running[n - 1] if n else math.inf for n in ends]
