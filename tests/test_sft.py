"""Subshift layer: spec validation, admissibility, periodic-point
enumeration (checked against a brute-force necklace oracle), metric and
shift."""

import itertools
import math

import pytest

from sftlab import (
    EmptySubshift,
    NotTransitive,
    PeriodicPoint,
    RangeMismatch,
    Word,
    enumerate_periodic_points,
    is_admissible,
    metric,
    shift,
    validate_spec,
)

FULL = validate_spec(2, [])
GOLDEN = validate_spec(2, [(2, 2)])
THREE = validate_spec(3, [(2, 2), (3, 1)])


def brute_force_cycles(spec, max_period):
    """Oracle: enumerate all admissible cyclic words, reduce to primitive
    necklace representatives by exhausting rotations."""
    out = []
    for n in range(1, max_period + 1):
        reps = set()
        for w in itertools.product(range(1, spec.alphabet_size + 1), repeat=n):
            if any(not spec.allows(w[i], w[(i + 1) % n]) for i in range(n)):
                continue
            rotations = {w[r:] + w[:r] for r in range(n)}
            if len(rotations) < n:
                continue  # not primitive
            reps.add(min(rotations))
        out.extend(sorted(reps))
    return out


def test_validate_spec_full_shift():
    assert FULL.allowed == ((True, True), (True, True))


def test_validate_spec_golden_mean():
    assert GOLDEN.allowed == ((True, True), (True, False))


def test_validate_spec_rejects_two_disconnected_loops():
    with pytest.raises(NotTransitive):
        validate_spec(2, [(1, 2), (2, 1)])


def test_validate_spec_rejects_empty_subshift():
    # only 1 -> 2 remains: no directed cycle, hence no bi-infinite sequence
    with pytest.raises(EmptySubshift):
        validate_spec(2, [(1, 1), (2, 1), (2, 2)])
    # only the path 1 -> 2 -> 3
    with pytest.raises(EmptySubshift):
        validate_spec(3, [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if (i, j) not in ((1, 2), (2, 3))])
    # a loop at 1 and the edge 1 -> 2: a cycle, but 1 is unreachable from 2
    with pytest.raises(NotTransitive):
        validate_spec(2, [(2, 1), (2, 2)])


def test_validate_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_spec(1, [])
    with pytest.raises(ValueError):
        validate_spec(2, [(0, 1)])
    with pytest.raises(ValueError):
        validate_spec(2, [(1, 3)])


def test_is_admissible():
    assert is_admissible(GOLDEN, Word((1, 2, 1)))
    assert not is_admissible(GOLDEN, Word((2, 2)))
    assert is_admissible(GOLDEN, Word(()))
    assert is_admissible(FULL, Word((2, 2, 2, 2)))


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
        assert all(spec.allows(w[i], w[(i + 1) % p.period]) for i in range(p.period))


def test_rotation_class_count():
    # admissible primitive cyclic words counted with all rotations equal
    # the sum of the periods of the enumerated representatives
    for spec in (FULL, GOLDEN):
        n = 5
        with_rotations = 0
        for w in itertools.product((1, 2), repeat=n):
            if any(not spec.allows(w[i], w[(i + 1) % n]) for i in range(n)):
                continue
            if len({w[r:] + w[:r] for r in range(n)}) == n:
                with_rotations += 1
        reps = [p for p in enumerate_periodic_points(spec, n) if p.period == n]
        assert with_rotations == sum(p.period for p in reps)


def test_periodic_point_rejects_non_primitive():
    with pytest.raises(ValueError):
        PeriodicPoint(Word((1, 2, 1, 2)), 4)


def test_periodic_point_rejects_non_canonical():
    with pytest.raises(ValueError):
        PeriodicPoint(Word((2, 1)), 2)
    assert PeriodicPoint.from_letters((2, 1)).cycle.letters == (1, 2)


def test_periodic_window_wraps():
    p = PeriodicPoint.from_letters((1, 1, 2))
    w = p.window(-1, 4)
    assert w.letters == (2, 1, 1, 2, 1, 1)
    assert w.base_index == -1


def test_metric_agree_up_to_three():
    w = Word((1, 1, 1, 1, 1, 1, 1, 1, 1), -4)
    w2 = Word((1, 1, 1, 1, 1, 1, 1, 2, 1), -4)  # differ at index 3
    d = metric(w, w2)
    assert d.value == pytest.approx(0.049787068367863944, abs=1e-15)
    assert d.value == math.exp(-3)
    assert not d.window_limited


def test_metric_differ_at_zero():
    w = Word((1, 1, 1), -1)
    w2 = Word((1, 2, 1), -1)
    d = metric(w, w2)
    assert d.value == 1.0
    assert not d.window_limited


def test_metric_window_limited():
    w = Word((1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1), -5)
    d = metric(w, w)
    assert d.value == pytest.approx(math.exp(-6), abs=1e-18)
    assert d.value == pytest.approx(0.0024787521766663585, abs=1e-18)
    assert d.window_limited


def test_metric_symmetry():
    w = Word((1, 2, 2, 1, 1), -2)
    w2 = Word((1, 2, 1, 1, 1), -2)
    assert metric(w, w2) == metric(w2, w)


def test_metric_range_mismatch():
    with pytest.raises(RangeMismatch):
        metric(Word((1, 2), 1), Word((1, 2), -1))


def test_metric_uses_shared_symmetric_range():
    w = Word((1,) * 11, -5)
    w2 = Word((1,) * 5, -2)
    d = metric(w, w2)
    assert d.value == math.exp(-3)
    assert d.window_limited


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
