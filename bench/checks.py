"""Output checks for every benchmark op.

Each check parses the CSV an op wrote and returns the problems it found,
plus the reported gaps whose midpoint is inside a band (``|trace| <= 2``).
Traces are evaluated exactly: over a whole cycle the square-root factors of
the single-step matrices cancel, so the one-period product is a product of
``[[(1 + prev/cur) c, -prev/cur], [1, 0]]`` with rational entries, and
``c = cos k`` (a float, hence a dyadic rational) is snapped to 0 when
``|c| < 1e-12``, as ``sftlab.cocycle.canonical_cos`` does.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

from workloads import MC_SCAN_SAMPLES, MC_SCAN_STEPS, SHIFTS, periodic_counts

# Monte-Carlo outputs must repeat the reference recorded at the seed commit to
# within float64 rounding, fixed before any optimization: 1e-12 absolute is
# about 25x the largest rate movement (4.1e-14) the lane-kernel prototypes of
# ROADMAP item 2 showed.
MC_TOL = 1e-12
CLOSED_FORM_TOL = 1e-9
RESIDUAL_TOL = 1e-9  # the threshold sftlab.graph_model.verify_corollary uses
ZERO_COS = 1e-12

# Gaps at pi/2 where the bands of these points touch (monodromy exactly Id):
# the spurious-gap defect of ROADMAP item 4, as the seed commit shows it on
# the spectra_scan inputs.  An op that reports them fails; a spurious gap
# anywhere else is an unexpected failure.
KNOWN_SPURIOUS = frozenset({
    ("full", "1,1,2,2"), ("full", "1,1,1,1,2,2"), ("full", "1,1,2,2,2,2"), ("golden", "1,1,1,1,2,1,1,2"),
})

_HEADERS = {
    "lyapunov": ["k", "value", "stderr", "n_steps", "n_samples", "seed"],
    "kalinin": ["max_period", "gap"],
    "periodic": ["period", "cycle"],
    "bands": ["period", "cycle", "band_index", "k_lo", "k_hi"],
    "candidates": ["interval_index", "k_lo", "k_hi"],
    "verify-graph": ["vertex", "residual"],
}


def check(op, text: str, pool) -> tuple[list[str], list[tuple[str, str, float, float]]]:
    """(problems, spurious gaps as (shift, cycle, lo, hi)) of one op's CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != _HEADERS[op.subcommand]:
        return [f"{op.subcommand}: unexpected header {rows[:1]}"], []
    try:
        return _CHECKS[op.subcommand](op, rows[1:], pool)
    except (ValueError, IndexError) as exc:
        return [f"{op.subcommand}: malformed output ({exc})"], []


def trace_at(letters: tuple[int, ...], k: float) -> Fraction:
    """Exact trace of the one-period transfer product at the float cos k."""
    c = math.cos(k)
    c = Fraction(0) if abs(c) < ZERO_COS else Fraction(c)
    m11, m12, m21, m22 = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for j, cur in enumerate(letters):
        r = Fraction(letters[j - 1], cur)
        a = (1 + r) * c
        m11, m12, m21, m22 = a * m11 - r * m21, a * m12 - r * m22, m11, m12
    return m11 + m22


def primitive_cycles(shift: str, max_period: int) -> list[tuple[int, ...]]:
    """Admissible primitive cycles in minimal rotation, by brute force."""
    size, forbidden, _ = SHIFTS[shift]
    out = []
    for n in range(1, max_period + 1):
        for w in itertools.product(range(1, size + 1), repeat=n):
            rotations = [w[r:] + w[:r] for r in range(n)]
            if (w == min(rotations) and rotations.count(w) == 1
                    and all([w[i - 1], w[i]] not in forbidden for i in range(n))):
                out.append(w)
    return out


def _gaps(intervals):
    """Complement of sorted closed intervals in [0, pi]."""
    out, prev = [], 0.0
    for lo, hi in intervals:
        if lo > prev:
            out.append((prev, lo))
        prev = hi
    if prev < math.pi:
        out.append((prev, math.pi))
    return out


def _sorted_disjoint(intervals) -> bool:
    flat = [x for iv in intervals for x in iv]
    return all(0.0 <= a <= b <= math.pi for a, b in zip(flat, flat[1:]))


def _period_two_bands(a: int, b: int) -> list[tuple[float, float]]:
    """tr = ((a+b)^2 c^2 - a^2 - b^2) / (ab), so |tr| <= 2 iff |c| >= |a-b|/(a+b)."""
    edge = math.acos(abs(a - b) / (a + b))
    return [(0.0, edge), (math.pi - edge, math.pi)]


def _close(xs, ys, tol) -> bool:
    return len(xs) == len(ys) and all(abs(x - y) <= tol for x, y in zip(xs, ys))


def _check_lyapunov(op, rows, pool):
    ref = pool[op.ref]["rows"]
    got = [[float(r[0]), float(r[1]), float(r[2])] for r in rows]
    problems = []
    if not _close([x for r in got for x in r], [x for r in ref for x in r], MC_TOL):
        problems.append(f"lyapunov seed {op.seed}: differs from the reference by more than {MC_TOL}")
    if any(r[3:] != [str(MC_SCAN_STEPS), str(MC_SCAN_SAMPLES), str(op.seed)] for r in rows):
        problems.append("lyapunov: n_steps, n_samples or seed column differs from the config")
    return problems, []


def _check_kalinin(op, rows, pool):
    ref = pool[op.ref]
    problems = []
    if [int(r[0]) for r in rows] != list(range(1, op.max_period + 1)):
        problems.append("kalinin: max_period column is not 1..max_period")
    gaps = [float(r[1]) for r in rows]
    if not _close(gaps, ref["gaps"], MC_TOL):
        problems.append(f"kalinin k={op.k} seed {op.seed}: gaps differ from the reference by more than {MC_TOL}")
    # Both fixed points of the full 2-shift have exponent 0 at pi/2, so the
    # period-1 gap is |estimate| there (criterion C6's bound).
    if abs(math.cos(float(op.k))) < ZERO_COS and not gaps[0] < max(2e-3, 3.0 * ref["stderr"]):
        problems.append(f"kalinin at pi/2: |estimate| {gaps[0]} >= max(2e-3, 3 stderr)")
    return problems, []


def _check_periodic(op, rows, pool):
    size, forbidden, _ = SHIFTS[op.shift]
    cycles = [tuple(int(a) for a in r[1].split(",")) for r in rows]
    problems = []
    if not _trace_formula_holds([int(r[0]) for r in rows], op):
        problems.append(f"periodic {op.shift}: counts per period differ from the trace formula")
    if len(set(cycles)) != len(cycles) or any(
        len(w) != int(r[0]) or any([w[i - 1], w[i]] in forbidden or not 1 <= w[i] <= size
                                   for i in range(len(w)))
        for w, r in zip(cycles, rows)
    ):
        problems.append(f"periodic {op.shift}: repeated, inadmissible or mis-sized cycle")
    return problems, []


def _trace_formula_holds(periods, op) -> bool:
    """The multiset of periods equals the trace-formula counts per period."""
    counts = periodic_counts(op.shift, op.max_period)
    return sorted(periods) == [n for n, c in enumerate(counts, 1) for _ in range(c)]


def _check_bands(op, rows, pool):
    bands: dict[str, list] = {}
    for r in rows:
        ivs = bands.setdefault(r[1], [])
        if int(r[2]) != len(ivs) or len(r[1].split(",")) != int(r[0]):
            raise ValueError(f"row {r} out of order")
        ivs.append((float(r[3]), float(r[4])))
    problems, spurious = [], []
    cycles = [tuple(int(a) for a in c.split(",")) for c in bands]
    if not _trace_formula_holds([len(c) for c in cycles], op):
        problems.append(f"bands {op.shift}: point counts per period differ from the trace formula")
    for name, ivs in bands.items():
        letters = tuple(int(a) for a in name.split(","))
        if not _sorted_disjoint(ivs):
            problems.append(f"bands {op.shift} ({name}): intervals not sorted and disjoint in [0, pi]")
        if len(letters) == 2 and not _close(
            [x for iv in ivs for x in iv], [x for iv in _period_two_bands(*letters) for x in iv], CLOSED_FORM_TOL
        ):
            problems.append(f"bands {op.shift} ({name}): edges differ from the closed form by more than 1e-9")
        if any(abs(trace_at(letters, 0.5 * (lo + hi))) > 2 for lo, hi in ivs):
            problems.append(f"bands {op.shift} ({name}): a band has |trace| > 2 at its midpoint")
        for lo, hi in _gaps(ivs):
            if abs(trace_at(letters, 0.5 * (lo + hi))) <= 2:
                spurious.append((op.shift, name, lo, hi))
    return problems, spurious


def _check_candidates(op, rows, pool):
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError("interval_index is not 0..n-1")
    ivs = [(float(r[1]), float(r[2])) for r in rows]
    problems, spurious = [], []
    if not _sorted_disjoint(ivs):
        problems.append("candidates: intervals not sorted and disjoint in [0, pi]")
    cycles = primitive_cycles(op.shift, op.max_period)
    for w in (w for w in cycles if len(w) == 2):
        allowed = _period_two_bands(*w)
        if not all(any(a - CLOSED_FORM_TOL <= lo and hi <= b + CLOSED_FORM_TOL for a, b in allowed)
                   for lo, hi in ivs):
            problems.append(f"candidates: an interval leaves the closed-form bands of {w}")
    if any(abs(trace_at(w, 0.5 * (lo + hi))) > 2 for lo, hi in ivs for w in cycles):
        problems.append("candidates: an interval's midpoint lies outside some point's bands")
    for lo, hi in _gaps(ivs):
        mid = 0.5 * (lo + hi)
        if not any(abs(trace_at(w, mid)) > 2 for w in cycles):
            spurious.append((op.shift, "candidates", lo, hi))
    return problems, spurious


def _check_verify_graph(op, rows, pool):
    problems = []
    if [int(r[0]) for r in rows] != list(range(49)):
        problems.append("verify-graph: vertex column is not 0..48")
    worst = max(abs(float(r[1])) for r in rows)
    if not worst < RESIDUAL_TOL:
        problems.append(f"verify-graph k={op.k} seed {op.seed}: residual {worst} >= {RESIDUAL_TOL}")
    return problems, []


_CHECKS = {
    "lyapunov": _check_lyapunov,
    "kalinin": _check_kalinin,
    "periodic": _check_periodic,
    "bands": _check_bands,
    "candidates": _check_candidates,
    "verify-graph": _check_verify_graph,
}
