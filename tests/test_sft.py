"""Subshift layer: spec validation (checked against a brute-force
reachability reference on random graphs), admissibility, periodic-point
enumeration (checked against a brute-force necklace oracle and against the
unpruned Lyndon generator) and the shift."""

import functools
import itertools
import random
import time

import numpy as np
import pytest

from sftlab import (
    EmptySubshift,
    NotTransitive,
    PeriodicPoint,
    Word,
    enumerate_periodic_points,
    shift,
    validate_spec,
)
from sftlab.sft import SubshiftSpec, _lyndon_words

FULL = validate_spec(2, [])
GOLDEN = validate_spec(2, [(2, 2)])
THREE = validate_spec(3, [(2, 2), (3, 1)])
TWO_CYCLE = validate_spec(2, [(1, 1), (2, 2)])
# the sparse 4-letter shift of tests/test_lyapunov.py
SPARSE4 = validate_spec(4, [(1, 1), (2, 2), (3, 3), (4, 4), (1, 3), (3, 1), (2, 4), (4, 2)])
NO_11 = validate_spec(3, [(1, 1)])
FOUR_TRIANGLE = validate_spec(4, [(1, 2), (2, 3), (3, 1)])
# validate_spec asks for two letters; the 1-letter shift is one fixed point
ONE_LETTER = SubshiftSpec(1, ((True,),))
ORACLE_SHIFTS = {
    "full": FULL,
    "golden": GOLDEN,
    "three": THREE,
    "two_cycle": TWO_CYCLE,
    "sparse4": SPARSE4,
    "no_11": NO_11,
    "four_triangle": FOUR_TRIANGLE,
    "one_letter": ONE_LETTER,
}


def brute_force_cycles(spec, max_period):
    """Oracle: enumerate all admissible cyclic words, reduce to primitive
    necklace representatives by exhausting rotations."""
    out = []
    for n in range(1, max_period + 1):
        reps = set()
        for w in itertools.product(range(1, spec.alphabet_size + 1), repeat=n):
            if any(not spec.allowed[w[i] - 1][w[(i + 1) % n] - 1] for i in range(n)):
                continue
            rotations = {w[r:] + w[:r] for r in range(n)}
            if len(rotations) < n:
                continue  # not primitive
            reps.add(min(rotations))
        out.extend(sorted(reps))
    return out


def duval_lyndon_words(alphabet_size, max_length):
    """Every Lyndon word over 1..alphabet_size of length <= max_length, in
    lexicographic order (Duval 1983), over the whole alphabet: no pruning."""
    w = [1]
    while w:
        yield tuple(w)
        n = len(w)
        while len(w) < max_length:
            w.append(w[len(w) - n])
        while w and w[-1] == alphabet_size:
            w.pop()
        if w:
            w[-1] += 1


@functools.cache
def unpruned_cycles(spec, max_period):
    """Reference enumeration: generate every Lyndon word over the alphabet,
    keep the cyclically admissible ones, sort by (period, cycle)."""
    forbidden = {(a, b) for a in spec.letters for b in spec.letters if not spec.allowed[a - 1][b - 1]}
    kept = [
        w
        for w in duval_lyndon_words(spec.alphabet_size, max_period)
        if forbidden.isdisjoint(zip(w, w[1:] + w[:1]))
    ]
    return sorted(kept, key=lambda w: (len(w), w))


def test_validate_spec_full_shift():
    assert FULL.allowed == ((True, True), (True, True))


def test_validate_spec_golden_mean():
    assert GOLDEN.allowed == ((True, True), (True, False))


def test_validate_spec_rejects_two_disconnected_loops():
    with pytest.raises(NotTransitive):
        validate_spec(2, [(1, 2), (2, 1)])


def test_validate_spec_rejects_empty_subshift():
    # only 1 -> 2 remains: no directed cycle, hence no bi-infinite sequence
    with pytest.raises(EmptySubshift, match=r"^no directed cycle in the transition graph: the subshift is empty$"):
        validate_spec(2, [(1, 1), (2, 1), (2, 2)])
    # only the path 1 -> 2 -> 3
    with pytest.raises(EmptySubshift):
        validate_spec(3, [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if (i, j) not in ((1, 2), (2, 3))])
    # a loop at 1 and the edge 1 -> 2: a cycle, but 1 is unreachable from 2
    with pytest.raises(NotTransitive, match=r"^transition graph on the alphabet is not strongly connected$"):
        validate_spec(2, [(2, 1), (2, 2)])


def _reference_reach(allowed, start, transpose):
    """Letters reachable from start in >= 0 steps, by depth-first search."""
    n = len(allowed)
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for w in range(n):
            if (allowed[w][v] if transpose else allowed[v][w]) and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _reference_verdict(n, forbidden):
    """Brute-force reference for validate_spec: a cycle iff some allowed pair
    (v, w) has v reachable from w; strongly connected iff the forward and
    backward reach of letter 1 both cover the alphabet."""
    allowed = [[(i, j) not in forbidden for j in range(1, n + 1)] for i in range(1, n + 1)]
    if not any(v in _reference_reach(allowed, w, False) for v in range(n) for w in range(n) if allowed[v][w]):
        return EmptySubshift
    if len(_reference_reach(allowed, 0, False)) < n or len(_reference_reach(allowed, 0, True)) < n:
        return NotTransitive
    return tuple(tuple(row) for row in allowed)


def _verdict(n, forbidden):
    try:
        return validate_spec(n, forbidden).allowed
    except (EmptySubshift, NotTransitive) as exc:
        return type(exc)


def test_validate_spec_matches_reference_on_random_graphs():
    rng = random.Random(20260811)
    verdicts = set()
    for _ in range(2000):
        n = rng.randint(2, 7)
        density = rng.random()
        forbidden = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < density}
        verdict = _verdict(n, sorted(forbidden))
        assert verdict == _reference_verdict(n, forbidden), (n, sorted(forbidden))
        verdicts.add(verdict if isinstance(verdict, type) else tuple)
    assert verdicts == {EmptySubshift, NotTransitive, tuple}


def test_validate_spec_rejects_large_acyclic_spec_quickly():
    # only the ~20,000 pairs (i, j) with i < j remain: a reachability search
    # per allowed pair takes seconds, one transitive closure milliseconds
    n = 200
    forbidden = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
    start = time.perf_counter()
    with pytest.raises(EmptySubshift):
        validate_spec(n, forbidden)
    assert time.perf_counter() - start < 1.0


def test_validate_spec_accepts_large_ring():
    n = 200
    spec = validate_spec(n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if j != i % n + 1])
    assert sum(map(sum, spec.allowed)) == n
    assert all(spec.allowed[i - 1][i % n] for i in spec.letters)


def test_validate_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_spec(1, [])
    with pytest.raises(ValueError):
        validate_spec(2, [(0, 1)])
    with pytest.raises(ValueError):
        validate_spec(2, [(1, 3)])


def test_enumerate_full_shift_period_2():
    points = enumerate_periodic_points(FULL, 2)
    assert [p.cycle.letters for p in points] == [(1,), (2,), (1, 2)]


def test_enumerate_golden_mean_period_3():
    points = enumerate_periodic_points(GOLDEN, 3)
    assert [p.cycle.letters for p in points] == [(1,), (1, 2), (1, 1, 2)]


def test_enumerate_no_fixed_points():
    spec = validate_spec(2, [(1, 1), (2, 2)])
    assert enumerate_periodic_points(spec, 1) == []


@pytest.mark.parametrize("spec,max_period", [(FULL, 6), (GOLDEN, 7), (THREE, 6)])
def test_enumerate_matches_brute_force(spec, max_period):
    got = [p.cycle.letters for p in enumerate_periodic_points(spec, max_period)]
    assert got == brute_force_cycles(spec, max_period)


@pytest.mark.parametrize("spec", ORACLE_SHIFTS.values(), ids=ORACLE_SHIFTS.keys())
def test_enumerate_matches_unpruned_generator(spec):
    # the reference at period 12 is sorted by length, so its words of length
    # <= max_period are the reference at max_period
    reference = unpruned_cycles(spec, 12)
    for max_period in range(8, 13):
        got = [p.cycle.letters for p in enumerate_periodic_points(spec, max_period)]
        assert got == [w for w in reference if len(w) <= max_period], f"max_period {max_period}"


@pytest.mark.parametrize("spec", ORACLE_SHIFTS.values(), ids=ORACLE_SHIFTS.keys())
def test_enumerated_points_equal_checked_construction(spec):
    # enumeration builds each point without re-checking the word the walk
    # certified; the result must be indistinguishable from the public,
    # fully checked constructor
    points = enumerate_periodic_points(spec, 9)
    assert points
    for p in points:
        w = p.cycle.letters
        checked = PeriodicPoint(Word(w, 0), len(w))
        assert p == checked
        assert hash(p) == hash(checked)
        assert type(w) is tuple
        assert all(type(x) is int for x in w)


@pytest.mark.parametrize("name", ["golden", "three", "two_cycle", "sparse4", "no_11", "four_triangle"])
def test_lyndon_walk_prunes_at_forbidden_pairs(name):
    # the walk yields exactly the Lyndon words whose consecutive pairs are
    # allowed; only the wrap-around pair is left to filter afterwards, so a
    # walk that filtered whole cycles after generating them would drop the
    # words whose only forbidden pair wraps around
    spec = ORACLE_SHIFTS[name]
    words = _lyndon_words(spec, 9)
    assert all(spec.allowed[a - 1][b - 1] for w in words for a, b in zip(w, w[1:]))
    expected = [
        w
        for w in duval_lyndon_words(spec.alphabet_size, 9)
        if all(spec.allowed[a - 1][b - 1] for a, b in zip(w, w[1:]))
    ]
    assert words == sorted(expected, key=lambda w: (len(w), w))
    assert any(not spec.allowed[w[-1] - 1][w[0] - 1] for w in words)


def test_lyndon_walk_cost_follows_entropy():
    # the 2-cycle has two admissible words of each length, so the pruned walk
    # opens 27 nodes (1, 12, 121, ... and the dead end 2); an unpruned walk
    # with the same output would visit the 2**26 / 26 Lyndon words over two
    # letters and take seconds
    start = time.perf_counter()
    assert _lyndon_words(TWO_CYCLE, 26) == [(1,), (2,), (1, 2)]
    assert time.perf_counter() - start < 0.5


def test_enumerate_long_periods_without_recursion():
    # on the 2-cycle the pruned walk is the chain 1, 12, 121, ... of
    # max_period nodes plus the dead end 2
    start = time.perf_counter()
    points = enumerate_periodic_points(TWO_CYCLE, 5000)
    elapsed = time.perf_counter() - start
    assert [p.cycle.letters for p in points] == [(1, 2)]
    assert elapsed < 1.0, f"{elapsed:.3f} s"


def mobius(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("spec,max_period", [(FULL, 14), (GOLDEN, 16), (THREE, 10)])
def test_enumerate_counts_match_trace_formula(spec, max_period):
    # primitive cycles of length n: (1/n) sum_{d | n} mu(n/d) tr(A^d), with A
    # the 0-1 transition matrix, at periods where brute force does not reach
    a = [[int(x) for x in row] for row in spec.allowed]
    traces = []
    power = a
    for _ in range(max_period):
        traces.append(sum(power[i][i] for i in range(len(a))))
        power = [[sum(r[j] * a[j][c] for j in range(len(a))) for c in range(len(a))] for r in power]
    counts = [0] * (max_period + 1)
    for p in enumerate_periodic_points(spec, max_period):
        counts[p.period] += 1
    for n in range(1, max_period + 1):
        total = sum(mobius(n // d) * traces[d - 1] for d in range(1, n + 1) if n % d == 0)
        assert total % n == 0
        assert counts[n] == total // n, f"period {n}"


@pytest.mark.parametrize("spec,max_period", [(FULL, 5), (GOLDEN, 6)])
def test_enumerated_cycles_are_cyclically_admissible(spec, max_period):
    for p in enumerate_periodic_points(spec, max_period):
        w = p.cycle.letters
        assert all(spec.allowed[w[i] - 1][w[(i + 1) % p.period] - 1] for i in range(p.period))


def test_rotation_class_count():
    # admissible primitive cyclic words counted with all rotations equal
    # the sum of the periods of the enumerated representatives
    for spec in (FULL, GOLDEN):
        n = 5
        with_rotations = 0
        for w in itertools.product((1, 2), repeat=n):
            if any(not spec.allowed[w[i] - 1][w[(i + 1) % n] - 1] for i in range(n)):
                continue
            if len({w[r:] + w[:r] for r in range(n)}) == n:
                with_rotations += 1
        reps = [p for p in enumerate_periodic_points(spec, n) if p.period == n]
        assert with_rotations == sum(p.period for p in reps)


def test_periodic_point_rejects_non_primitive():
    with pytest.raises(ValueError, match=r"^cycle \(1, 2, 1, 2\) is a repetition of a shorter cycle$"):
        PeriodicPoint(Word((1, 2, 1, 2)), 4)


def test_periodic_point_rejects_non_canonical():
    with pytest.raises(ValueError, match=r"^cycle \(2, 1\) is not in canonical rotation$"):
        PeriodicPoint(Word((2, 1)), 2)
    assert PeriodicPoint.from_letters((2, 1)).cycle.letters == (1, 2)


def test_periodic_window_wraps():
    p = PeriodicPoint.from_letters((1, 1, 2))
    w = p.window(-1, 4)
    assert w.letters == (2, 1, 1, 2, 1, 1)
    assert w.base_index == -1


def test_shift_relabels():
    w = Word((1, 2, 1), -1)
    s = shift(w, 1)
    assert s.letters == (1, 2, 1)
    assert s.base_index == -2
    # new index n reads old index n + steps
    assert s.letter(-2) == w.letter(-1)


def test_shift_zero_is_identity():
    w = Word((2, 1, 1), 3)
    assert shift(w, 0) == w


def test_shift_is_bijective():
    w = Word((1, 2, 2, 1), -2)
    assert shift(shift(w, 5), -5) == w


def test_shift_periodic_by_period_fixes_point():
    p = PeriodicPoint.from_letters((1, 1, 2))
    w = p.window(-4, 7)
    shifted = shift(w, p.period)
    lo = max(w.first_index, shifted.first_index)
    hi = min(w.last_index, shifted.last_index)
    assert all(w.letter(i) == shifted.letter(i) for i in range(lo, hi + 1))


def test_word_window_and_letter():
    w = Word((1, 2, 1, 1), -1)
    assert w.letter(-1) == 1
    assert w.letter(2) == 1
    assert w.window(0, 1).letters == (2, 1)
    assert w.window(0, 1).base_index == 0
    with pytest.raises(IndexError):
        w.letter(3)


def test_windows_reject_empty_and_uncovered_ranges():
    w = Word((1, 2, 1, 1), -1)
    with pytest.raises(ValueError, match="empty window requested"):
        w.window(1, 0)
    with pytest.raises(IndexError, match=r"\[-2, 0\] outside \[-1, 2\]"):
        w.window(-2, 0)
    with pytest.raises(IndexError):
        w.window(0, 3)
    with pytest.raises(ValueError, match="empty window requested"):
        PeriodicPoint.from_letters((1, 2)).window(5, 4)


@pytest.mark.parametrize("letters", [(0, 1), (-1, 2), (0,)])
def test_periodic_point_rejects_letters_below_1(letters):
    # letter 0 would wrap to the last row of a transition or step table
    with pytest.raises(ValueError, match=r"letters must be >= 1$"):
        PeriodicPoint.from_letters(letters)
    with pytest.raises(ValueError, match=r"letters must be >= 1$"):
        PeriodicPoint(Word(letters), len(letters))


@pytest.mark.parametrize("letters", [(1.9, 2), (1, 2.0), ("1", 2), (True, 2), (1, False), (np.True_, 2)])
def test_letters_must_be_integers(letters):
    # int() would truncate 1.9 to 1, parse "1" and read a bool as 1 or 0
    with pytest.raises(TypeError):
        Word(letters)
    with pytest.raises(TypeError):
        PeriodicPoint.from_letters(letters)


def test_letters_take_numpy_integers_as_ints():
    w = Word(np.array([1, 2, 3], dtype=np.int64), -1)
    assert w == Word((1, 2, 3), -1)
    assert all(type(x) is int for x in w.letters)
    p = PeriodicPoint.from_letters([np.uint8(2), np.int32(1)])
    assert p == PeriodicPoint.from_letters((1, 2))
    assert all(type(x) is int for x in p.cycle.letters)


def test_periodic_point_rejects_bad_shapes():
    with pytest.raises(ValueError, match="^empty cycle$"):
        PeriodicPoint(Word(()), 0)
    with pytest.raises(ValueError, match="^empty cycle$"):
        PeriodicPoint.from_letters(())
    with pytest.raises(ValueError, match=r"^period 3 != cycle length 2$"):
        PeriodicPoint(Word((1, 2)), 3)
    # a nonzero base index is moved to 0, not rejected
    p = PeriodicPoint(Word((1, 2), 5), 2)
    assert p.cycle.base_index == 0
    assert p == PeriodicPoint.from_letters((1, 2))
