"""Band/gap structure: traces against closed forms, band edges against an
independent bisection oracle, interval algebra, and the shrinking candidate
intersection."""

import math
import random
from fractions import Fraction

import pytest

from sftlab import (
    BandSet,
    ParabolicOrCentral,
    PeriodicPoint,
    band_set,
    canonical_cos,
    cocycle_product,
    eigendirections,
    enumerate_periodic_points,
    exceptional_candidates,
    gaps,
    h_tilde_bands,
    intersect,
    lyapunov_periodic,
    monodromy_trace,
    validate_spec,
)
from sftlab import spectra
from sftlab.spectra import (
    _acos,
    _bracket,
    _derivative,
    _exact_quo,
    _float_root,
    _gcd,
    _prem,
    _primitive,
    _refine,
    _trace_poly,
    _value,
    _variations,
)

FULL = validate_spec(2, [])
GOLDEN = validate_spec(2, [(2, 2)])
THREE = validate_spec(3, [(2, 2), (3, 1)])
P1 = PeriodicPoint.from_letters((1,))
P12 = PeriodicPoint.from_letters((1, 2))

# hand algebra for the alternating cycle: the one-period product is
# [[(x+2+1/x)cos^2 k - x, -(1+1/x)cos k], [(1+1/x)cos k, -1/x]] with
# x = ratio of the two multiplicities, so the trace is
# (x+2+1/x)cos^2 k - x - 1/x
ALT_EDGE = math.acos(1.0 / 3.0)  # 4.5 c^2 - 2.5 = -2  at  |c| = 1/3


def alt_trace(k, x=2.0):
    c = math.cos(k)
    return (x + 2.0 + 1.0 / x) * c * c - x - 1.0 / x


def oracle_band_edge(lo, hi, target=ALT_EDGE):
    """Independent bisection of |alt_trace| - 2 on a bracketing interval."""
    f = lambda k: abs(alt_trace(k)) - 2.0
    a, b = lo, hi
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (f(mid) < 0) == (fa < 0):
            a, fa = mid, f(mid)
        else:
            b = mid
    return 0.5 * (a + b)


def test_monodromy_trace_fixed_point():
    for k in (0.3, 1.0, 2.2):
        assert monodromy_trace(P1, k) == pytest.approx(2.0 * math.cos(k), abs=1e-12)


def test_monodromy_trace_alternating_closed_form():
    for k in (0.2, 0.9, 1.7, 2.9):
        assert monodromy_trace(P12, k) == pytest.approx(alt_trace(k), abs=1e-12)


def test_monodromy_trace_at_half_pi():
    assert monodromy_trace(P12, math.pi / 2.0) == pytest.approx(-2.5, abs=1e-12)


def test_trace_depends_only_on_cos():
    rng = random.Random(31)
    for p in (P1, P12, PeriodicPoint.from_letters((1, 1, 2))):
        for _ in range(20):
            k = rng.uniform(0.02, math.pi - 0.02)
            k2 = math.acos(math.cos(k))
            assert abs(monodromy_trace(p, k) - monodromy_trace(p, k2)) <= 1e-12


def test_band_set_fixed_point_is_full():
    b = band_set(P1)
    assert len(b.intervals) == 1
    lo, hi = b.intervals[0]
    assert lo == 0.0
    assert hi == math.pi


def test_band_set_alternating_edges():
    # oracle: independent bisection on the hand-derived trace polynomial
    edge = oracle_band_edge(1.0, 1.5)
    assert edge == pytest.approx(ALT_EDGE, abs=1e-12)  # sanity of the oracle
    b = band_set(P12, grid_points=2001, tol=1e-10)
    assert len(b.intervals) == 2
    (lo1, hi1), (lo2, hi2) = b.intervals
    assert lo1 == 0.0
    assert hi1 == pytest.approx(ALT_EDGE, abs=1e-9)
    assert lo2 == pytest.approx(math.pi - ALT_EDGE, abs=1e-9)
    assert hi2 == math.pi
    # frozen value for the record
    assert ALT_EDGE == pytest.approx(1.2309594173407747, abs=1e-15)


def test_band_set_validates_arguments():
    with pytest.raises(ValueError):
        band_set(P12, grid_points=10)
    with pytest.raises(ValueError):
        band_set(P12, tol=0.0)
    # no bracket width exceeds NaN or inf, so either would end every
    # bisection at once and return bracket midpoints as edges
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            band_set(P12, tol=tol)
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            exceptional_candidates(GOLDEN, 4, tol=tol)


def test_every_short_cycle_has_open_gap():
    # every primitive cycle of period 2..5 must show an open spectral gap
    # inside (0, pi), as weighted periodic hopping operators do
    for spec in (FULL, GOLDEN):
        for p in enumerate_periodic_points(spec, 5):
            if p.period < 2:
                continue
            g = gaps(band_set(p))
            interior = [(lo, hi) for lo, hi in g.intervals if hi > 0.0 and lo < math.pi]
            assert interior, f"no interior gap for {p.cycle.letters}"
            assert any(hi - lo > 1e-6 for lo, hi in interior)


def test_gaps_of_full_band_is_empty():
    assert gaps(band_set(P1)).intervals == ()


def test_gaps_alternating():
    g = gaps(band_set(P12))
    assert len(g.intervals) == 1
    lo, hi = g.intervals[0]
    assert lo == pytest.approx(ALT_EDGE, abs=1e-9)
    assert hi == pytest.approx(math.pi - ALT_EDGE, abs=1e-9)


def test_gaps_involution():
    b = band_set(P12)
    assert gaps(gaps(b)).intervals == b.intervals


def test_band_interior_and_gap_interior_classification():
    # inside bands the trace lies in (-2, 2) and the directions are a
    # conjugate pair; inside gaps |trace| > 2 with two real directions
    p = PeriodicPoint.from_letters((1, 1, 2))
    b = band_set(p)
    for lo, hi in b.intervals:
        for i in range(1, 101):
            k = lo + (hi - lo) * i / 102.0
            if k <= 0.0 or k >= math.pi:
                continue
            assert abs(monodromy_trace(p, k)) < 2.0 + 1e-9
            m = cocycle_product(k, p.window(-1, p.period - 1)).reconstruct()
            try:
                s, u = eigendirections(m)
            except ParabolicOrCentral:
                continue  # sampled a point within tol of the edge
            assert s.value.imag > 0.0
            assert u.value == s.value.conjugate()
    for lo, hi in gaps(b).intervals:
        for i in range(1, 101):
            k = lo + (hi - lo) * i / 102.0
            assert abs(monodromy_trace(p, k)) > 2.0 - 1e-9
            m = cocycle_product(k, p.window(-1, p.period - 1)).reconstruct()
            try:
                s, u = eigendirections(m)
            except ParabolicOrCentral:
                continue
            assert s.value.imag == 0.0
            assert u.value.imag == 0.0
            assert s.value != u.value


def test_intersect_identity_and_disjoint():
    full_band = band_set(P1)
    alt = band_set(P12)
    assert intersect([full_band, alt]).intervals == alt.intervals
    a = BandSet(((0.0, 1.0),), 1e-10)
    b = BandSet(((2.0, 3.0),), 1e-9)
    out = intersect([a, b])
    assert out.intervals == ()
    assert out.tol == 1e-9
    assert intersect([]).intervals == ((0.0, math.pi),)


def test_intersect_partial_overlap():
    a = BandSet(((0.0, 1.0), (2.0, 3.0)), 1e-10)
    b = BandSet(((0.5, 2.5),), 1e-10)
    assert intersect([a, b]).intervals == ((0.5, 1.0), (2.0, 2.5))


def test_h_tilde_fixed_point_full_interval():
    assert h_tilde_bands(P1) == [(-1.0, 1.0)]


def test_h_tilde_alternating():
    out = h_tilde_bands(P12)
    assert len(out) == 2
    (lo1, hi1), (lo2, hi2) = out
    assert lo1 == -1.0
    assert hi1 == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert lo2 == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert hi2 == 1.0
    # the open gap sits strictly inside [-1, 1]
    assert hi1 < lo2


def test_candidates_full_shift_period_one():
    cand = exceptional_candidates(FULL, 1)
    assert cand.intervals == ((0.0, math.pi),)


def test_candidates_full_shift_period_two():
    cand = exceptional_candidates(FULL, 2)
    assert len(cand.intervals) == 2
    assert cand.intervals[0][0] == 0.0
    assert cand.intervals[0][1] == pytest.approx(1.2309594, abs=1e-6)
    assert cand.intervals[1][0] == pytest.approx(1.9106332, abs=1e-6)
    assert cand.intervals[1][1] == math.pi


def test_candidates_miss_half_pi_where_the_exponent_vanishes():
    # a known exception to reading the candidates as an outer approximation
    # of the zero set (ROADMAP item 1): at c = 0 every step matrix is
    # antidiagonal, so the cocycle keeps the pair of coordinate axes, and the
    # ergodic exponent at pi/2 is zero (acceptance criterion 6) although the
    # period-2 point (1,2) has |trace| = 2.5 there and a positive exponent
    assert monodromy_trace(P12, math.pi / 2.0) == -2.5
    assert lyapunov_periodic(P12, math.pi / 2.0) == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)
    full = exceptional_candidates(FULL, 6)
    golden = exceptional_candidates(GOLDEN, 6)
    assert [(round(lo, 4), round(hi, 4)) for lo, hi in full.intervals] == [(0.0, 0.4103), (2.7313, 3.1416)]
    assert [(round(lo, 4), round(hi, 4)) for lo, hi in golden.intervals] == [(0.0, 0.4479), (2.6937, 3.1416)]
    assert not full.contains(math.pi / 2.0)
    assert not golden.contains(math.pi / 2.0)


def test_candidates_golden_mean_against_grid_oracle():
    # membership oracle: k is a candidate iff every enumerated point has
    # |trace| <= 2 there; checked on a coarse probe grid away from edges
    max_period = 3
    cand = exceptional_candidates(GOLDEN, max_period)
    points = enumerate_periodic_points(GOLDEN, max_period)
    bands = [band_set(p) for p in points]
    for i in range(1, 200):
        k = math.pi * i / 200.0
        inside = all(abs(monodromy_trace(p, k)) <= 2.0 for p in points)
        near_edge = any(
            min(abs(k - lo), abs(k - hi)) < 1e-3 for lo, hi in cand.intervals
        ) or any(
            min(abs(k - lo), abs(k - hi)) < 1e-3
            for b in bands
            for lo, hi in b.intervals
        )
        if near_edge:
            continue
        assert cand.contains(k) == inside, f"k={k}"


def test_candidates_monotone_in_period():
    prev = exceptional_candidates(GOLDEN, 1)
    for mp in range(2, 6):
        cur = exceptional_candidates(GOLDEN, mp)
        # every current interval sits inside some previous interval (up to tol)
        for lo, hi in cur.intervals:
            assert any(
                plo - 1e-9 <= lo and hi <= phi + 1e-9 for plo, phi in prev.intervals
            )
        assert cur.total_length() <= prev.total_length() + 1e-9
        prev = cur


def test_monodromy_trace_consistent_with_cocycle_product():
    rng = random.Random(47)
    for p in (P1, P12, PeriodicPoint.from_letters((1, 1, 2, 1, 2))):
        for _ in range(25):
            k = rng.uniform(0.03, math.pi - 0.03)
            via_product = cocycle_product(k, p.window(-1, p.period - 1)).reconstruct().trace()
            assert monodromy_trace(p, k) == pytest.approx(via_product, rel=1e-12, abs=1e-12)


def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def poly_scale(x, a):
    return [x * u for u in a]


def poly_strip(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def poly_rem(a, b):
    a = poly_strip(list(a))
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        a = poly_strip([u - q * b[i - shift] if i >= shift else u for i, u in enumerate(a)][:-1])
    return a


def poly_gcd(a, b):
    while b:
        a, b = b, poly_rem(a, b)
    return a


def poly_derivative(a):
    return [i * u for i, u in enumerate(a)][1:]


def poly_at(a, c):
    out = Fraction(0)
    for u in reversed(a):
        out = out * c + u
    return out


def exact_trace_poly(letters):
    """Fraction coefficients, ascending in c = cos k, of the trace of the
    one-period product: over a whole cycle the sqrt(cur/prev) factors of
    the step matrices cancel, leaving the product of
    [[(1 + prev/cur) c, -prev/cur], [1, 0]]."""
    m11, m12, m21, m22 = [Fraction(1)], [Fraction(0)], [Fraction(0)], [Fraction(1)]
    for j, cur in enumerate(letters):
        r = Fraction(letters[j - 1], cur)
        m11, m12, m21, m22 = (
            poly_add([0] + poly_scale(1 + r, m11), poly_scale(-r, m21)),
            poly_add([0] + poly_scale(1 + r, m12), poly_scale(-r, m22)),
            m11,
            m12,
        )
    return poly_strip(poly_add(m11, m22))


def roots_inside(a):
    """Distinct real roots of a in the open interval (-1, 1) (Sturm)."""
    if len(a) < 2:
        return 0
    chain = [a, poly_derivative(a)]
    while len(chain[-1]) > 1:
        chain.append(poly_scale(-1, poly_rem(chain[-2], chain[-1])))

    def variations(x):
        signs = [v for v in (poly_at(p, x) for p in chain) if v != 0]
        return sum((u > 0) != (v > 0) for u, v in zip(signs, signs[1:]))

    return variations(Fraction(-1)) - variations(Fraction(1)) - (poly_at(a, Fraction(1)) == 0)


def closed_gaps(trace):
    """Touching bands: double roots in (-1, 1) of trace -+ 2, i.e. roots of
    gcd(Q, Q') for Q = trace - 2 and Q = trace + 2."""
    out = 0
    for shift in (-2, 2):
        q = poly_add(trace, [Fraction(shift)])
        out += roots_inside(poly_gcd(q, poly_derivative(q)))
    return out


def exact_trace_at(trace, k):
    """The exact trace at the double cos k, snapped to 0 below 1e-12 as
    canonical_cos does."""
    c = math.cos(k)
    return poly_at(trace, Fraction(0) if abs(c) < 1e-12 else Fraction(c))


def band_structure_violations(p):
    """Floquet invariants of one point's band set: a period-n point has
    exactly n bands counting closed gaps; every band midpoint has
    |trace| <= 2 and every gap midpoint |trace| > 2 (exact traces); and
    where the exact trace at pi/2 is +-2 the float trace is exactly +-2."""
    trace = exact_trace_poly(p.cycle.letters)
    b = band_set(p)
    out = []
    closed = closed_gaps(trace)
    if len(b.intervals) + closed != p.period:
        out.append(f"{len(b.intervals)} intervals and {closed} closed gaps for period {p.period}")
    for lo, hi in b.intervals:
        if abs(exact_trace_at(trace, 0.5 * (lo + hi))) > 2:
            out.append(f"band [{lo}, {hi}] has |trace| > 2 at its midpoint")
    for lo, hi in gaps(b).intervals:
        if abs(exact_trace_at(trace, 0.5 * (lo + hi))) <= 2:
            out.append(f"gap [{lo}, {hi}] has |trace| <= 2 at its midpoint")
    exact, got = trace[0], monodromy_trace(p, math.pi / 2.0)
    if abs(exact) == 2 and got != float(exact):
        out.append(f"trace at pi/2 is {got!r}, exactly {exact}")
    return out


@pytest.mark.parametrize("spec, max_period", [(FULL, 12), (GOLDEN, 14), (THREE, 6)], ids=["full", "golden", "three"])
def test_band_structure_invariants(spec, max_period):
    # touching bands (monodromy +-Id, a double root of trace -+ 2) must stay
    # one interval, and no band may be lost
    bad = {}
    for p in enumerate_periodic_points(spec, max_period):
        problems = band_structure_violations(p)
        if problems:
            bad[p.cycle.letters] = problems
    assert not bad


@pytest.mark.parametrize("spec, max_period", [(FULL, 8), (GOLDEN, 10), (THREE, 5)], ids=["full", "golden", "three"])
def test_monodromy_trace_is_correctly_rounded(spec, max_period):
    # the trace is the exact P(c) / W at the double c = canonical_cos(k),
    # rounded once: no rounding error of a float cycle product remains
    ks = [1e-3, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi - 1e-3]
    ks += [0.05 + (math.pi - 0.1) * i / 19 for i in range(20)]
    cs = [Fraction(canonical_cos(k)) for k in ks]
    bad = []
    for p in enumerate_periodic_points(spec, max_period):
        trace = exact_trace_poly(p.cycle.letters)
        for k, c in zip(ks, cs):
            if monodromy_trace(p, k) != float(poly_at(trace, c)):
                bad.append((p.cycle.letters, k))
    assert not bad


def test_band_structure_touching_at_quarter_pi():
    # bands of (1,1,1,1,2,2,2,2) touch at pi/2, pi/4 and 3pi/4, where
    # gcd(Q+, Q+') = c (c^2 - 1/2): cos(pi/4) is irrational, so only exact
    # root finding keeps them one interval
    p = PeriodicPoint.from_letters((1, 1, 1, 1, 2, 2, 2, 2))
    assert band_structure_violations(p) == []
    assert len(band_set(p).intervals) == 5


def floquet_poly(letters):
    """F = P**2 - 4 W**2, negative exactly inside the bands."""
    trace = _trace_poly(letters)
    f = [0] * (2 * len(trace) - 1)
    for i, x in enumerate(trace):
        for j, y in enumerate(trace):
            f[i + j] += x * y
    f[0] -= 4 * math.prod(letters) ** 2
    return f


def edge_poly(letters):
    """H = F / gcd(F, F')**2 with F = P**2 - 4 W**2, built as band_set
    builds it."""
    f = floquet_poly(letters)
    g = _gcd(f, _derivative(f))
    return _exact_quo(_exact_quo(f, g), g)


def c_domain_refine(h, lo, hi, e, tol):
    """Bisection on the signs of h itself at dyadic c."""
    s = _value(h, hi, e)
    if s == 0:
        return _acos(hi, e)
    k_lo, k_hi = _acos(lo, e), _acos(hi, e)
    while k_lo - k_hi > tol:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        mid = lo + 1
        v = _value(h, mid, e)
        if v == 0:
            return _acos(mid, e)
        if (v > 0) == (s > 0):
            hi, k_hi = mid, _acos(mid, e)
        else:
            lo, k_lo = mid, _acos(mid, e)
    return 0.5 * (k_lo + k_hi)


def c_domain_edges(h, tol):
    """Reference band edges in (0, 1], isolated in c itself: a Sturm chain
    of h, 2n + 1 polynomials of degree <= 2n, counted at dyadic c and
    refined with :func:`c_domain_refine`."""
    chain = [h, _derivative(h)]
    while len(chain[-1]) > 1:
        chain.append([-x for x in _primitive(_prem(chain[-2], chain[-1]))])
    out = []
    stack = [(0, 1, 0, _variations(chain, 0, 0), _variations(chain, 1, 0))]
    while stack:
        lo, hi, e, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            out.append(c_domain_refine(h, lo, hi, e, tol))
        elif v_lo - v_hi > 1:
            lo, hi, e = 2 * lo, 2 * hi, e + 1
            v_mid = _variations(chain, lo + 1, e)
            stack.append((lo, lo + 1, e, v_lo, v_mid))
            stack.append((lo + 1, hi, e, v_mid, v_hi))
    return sorted(out)


IDENTITY_SHIFTS = [
    (FULL, 9),
    (GOLDEN, 10),
    (THREE, 6),
    (validate_spec(3, [(1, 1)]), 5),
    (validate_spec(4, [(1, 2), (2, 3), (3, 1)]), 4),
    (validate_spec(4, [(1, 1), (2, 2), (3, 3), (4, 4), (1, 3), (3, 1), (2, 4), (4, 2)]), 6),
    (validate_spec(5, [(1, 1), (2, 4), (5, 3)]), 3),
]


def test_band_set_matches_c_domain_isolation(monkeypatch):
    # band_set isolates and refines the edges through G = H[::2] in y = c**2;
    # the same dyadic intervals and bisection signs in c must give the same
    # floats, bit for bit, as isolating the roots of H in c itself
    rng = random.Random(16)
    for spec, max_period in IDENTITY_SHIFTS:
        for p in enumerate_periodic_points(spec, max_period):
            h = edge_poly(p.cycle.letters)
            assert not any(h[1::2]), p.cycle.letters
            for _ in range(4):
                e = rng.randrange(1, 64)
                m = rng.randrange(-(1 << e), (1 << e) + 1)
                assert _value(h, m, e) == _value(h[::2], m * m, 2 * e)
            for tol in (1e-6, 1e-10, 1e-13):
                with monkeypatch.context() as patch:
                    patch.setattr(spectra, "_edges_above_zero", lambda *_: c_domain_edges(h, tol))
                    expected = band_set(p, tol=tol).intervals
                assert band_set(p, tol=tol).intervals == expected, (p.cycle.letters, tol)


def test_band_edges_at_zero_and_pi_are_simple():
    # c = +-1 are simple roots of F: the monodromy there is parabolic, never
    # +-Id, so the first band starts at exactly 0.0 and the last ends at
    # exactly pi, and band_set pairs consecutive edges from there
    for spec, max_period in IDENTITY_SHIFTS:
        for p in enumerate_periodic_points(spec, max_period):
            f = floquet_poly(p.cycle.letters)
            df = _derivative(f)
            for c in (1, -1):
                assert poly_at(f, c) == 0 != poly_at(df, c), (p.cycle.letters, c)
            for tol in (1e-6, 1e-10, 1e-13):
                intervals = band_set(p, tol=tol).intervals
                assert intervals[0][0] == 0.0 and intervals[-1][1] == math.pi
                assert all(lo < hi for lo, hi in intervals)
                assert all(a[1] < b[0] for a, b in zip(intervals, intervals[1:]))


def y_domain_refine(g, lo, hi, e, tol):
    """Plain bisection on the signs of g(c**2) at dyadic c, one exact
    evaluation per level: _refine must return the same float."""
    s = _value(g, hi * hi, 2 * e)
    if s == 0:
        return _acos(hi, e)
    k_lo, k_hi = _acos(lo, e), _acos(hi, e)
    while k_lo - k_hi > tol:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        mid = lo + 1
        v = _value(g, mid * mid, 2 * e)
        if v == 0:
            return _acos(mid, e)
        if (v > 0) == (s > 0):
            hi, k_hi = mid, _acos(mid, e)
        else:
            lo, k_lo = mid, _acos(mid, e)
    return 0.5 * (k_lo + k_hi)


# 4.0 is wider than any isolating cell (at most pi / 2 in k): the loop ends
# at the start level
REFINE_TOLS = (4.0, 1.0, 1e-6, 1e-10, 1e-13, 1e-300)


def refine_inputs(monkeypatch, points):
    """(g, lo, hi, e) of every edge band_set refines for these points."""
    out = []
    with monkeypatch.context() as patch:
        patch.setattr(spectra, "_refine", lambda g, lo, hi, e, tol: out.append((g, lo, hi, e)) or 0.0)
        for p in points:
            band_set(p)
    return out


def test_refine_matches_plain_bisection_on_band_edges(monkeypatch):
    points = [p for spec, max_period in IDENTITY_SHIFTS[:4] for p in enumerate_periodic_points(spec, max_period)]
    near_zero = near_half_pi = 0
    for g, lo, hi, e in refine_inputs(monkeypatch, points):
        for tol in REFINE_TOLS:
            k = y_domain_refine(g, lo, hi, e, tol)
            assert _refine(g, lo, hi, e, tol) == k, (g, lo, hi, e, tol)
        near_zero += 0.0 < k < 0.3
        near_half_pi += abs(k - math.pi / 2.0) < 0.03
    assert near_zero and near_half_pi


@pytest.mark.parametrize(
    "g",
    [[-1, 3 << 40], [(3 << 40) - 1, -(3 << 40)]],
    ids=["c^2=2^-40/3", "c^2=1-2^-40/3"],
)
def test_refine_matches_plain_bisection_near_zero_and_half_pi(g):
    # k about pi/2 - 5.5e-7 and 5.5e-7: the float root's relative error and
    # acos's slope are at their extremes there
    assert _bracket(g, 0, 1, 0) is not None
    for tol in REFINE_TOLS:
        assert _refine(g, 0, 1, 0, tol) == y_domain_refine(g, 0, 1, 0, tol), tol


def test_refine_dyadic_root_is_returned_exactly():
    # 16 y - 9: c = 3/4 is the mid of (1/2, 1] at level 2, where the
    # bisection ends on an exact zero
    g = [-9, 16]
    assert _bracket(g, 1, 2, 1) is not None
    for tol in REFINE_TOLS[1:]:
        assert _refine(g, 1, 2, 1, tol) == y_domain_refine(g, 1, 2, 1, tol) == _acos(3, 2)
    # y - 1: c = 1 closes the interval (0, 1], as at every k = 0 edge
    g = [-1, 1]
    assert _bracket(g, 0, 1, 0)[3] == 0
    for tol in REFINE_TOLS:
        assert _refine(g, 0, 1, 0, tol) == y_domain_refine(g, 0, 1, 0, tol) == 0.0


def test_refine_falls_back_when_coefficients_overflow_floats(monkeypatch):
    inputs = refine_inputs(monkeypatch, [PeriodicPoint.from_letters((1, 1, 2, 1, 2))])
    assert len(inputs) == 5  # degree-5 g: five edges in (0, 1]
    for g, lo, hi, e in inputs:
        big = [x << 1100 for x in g]
        assert _float_root(big, lo, hi, e) is None
        for tol in REFINE_TOLS:
            assert _refine(big, lo, hi, e, tol) == y_domain_refine(g, lo, hi, e, tol)


def test_refine_widens_or_drops_a_wrong_float_root(monkeypatch):
    g = [-1, 3]  # c = 1 / sqrt(3)
    y = 1.0 / 3.0
    for root, certified in [((y * (1.0 + 2.0**-40), 2.0**-60), True), ((0.9, 1e-12), False)]:
        monkeypatch.setattr(spectra, "_float_root", lambda *_: root)
        assert (_bracket(g, 0, 1, 0) is not None) == certified
        for tol in REFINE_TOLS:
            assert _refine(g, 0, 1, 0, tol) == y_domain_refine(g, 0, 1, 0, tol)


def test_refine_makes_few_exact_evaluations(monkeypatch):
    # a plain bisection makes about 33 exact evaluations and 27 _acos calls
    # per edge at tol 1e-10 on these shifts; the certified bracket leaves
    # about 2.7 evaluations (two for the bracket) and the jump about 3 _acos
    counts = {"edges": 0, "_value": 0, "_acos": 0}
    refining = [False]

    def counted(name):
        f = getattr(spectra, name)

        def wrapper(*args):
            counts[name] += refining[0]
            return f(*args)

        monkeypatch.setattr(spectra, name, wrapper)

    counted("_value")
    counted("_acos")
    refine = spectra._refine

    def counted_refine(*args):
        counts["edges"] += 1
        refining[0] = True
        try:
            return refine(*args)
        finally:
            refining[0] = False

    monkeypatch.setattr(spectra, "_refine", counted_refine)
    for spec, max_period in IDENTITY_SHIFTS:
        for p in enumerate_periodic_points(spec, max_period):
            band_set(p, tol=1e-10)
    assert counts["edges"] > 1000
    assert counts["_value"] <= 4 * counts["edges"], counts
    assert counts["_acos"] <= 4 * counts["edges"], counts
