"""Monodromy traces of periodic points, band/gap structure on [0, pi] in the
k variable, interval intersections, and the finite-period candidate set:
the intersection of the periodic bands, which approximates the zero-exponent
set away from c = cos k = 0 (see :func:`exceptional_candidates`).

Band edges come from the integer trace polynomial, not from a grid: the
trace of a period-n point is P(c) / W with P of degree n in c = cos k and W
the product of the letters.  Its gcd with its derivative and a Sturm
sequence in y = c**2 are evaluated in Python integers, and each edge is
refined from a certified float bracket, then the same bisection's last
steps on exact integer signs, so touching bands (closed gaps) are found
exactly, no band can be missed and every edge is the float a plain dyadic
bisection returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cocycle import canonical_cos, check_energy
from .sft import PeriodicPoint, SubshiftSpec, enumerate_periodic_points


@dataclass(frozen=True)
class BandSet:
    """Finite union of disjoint closed subintervals of [0, pi] in the k
    variable, with the tolerance of the edges."""

    intervals: tuple[tuple[float, float], ...]
    tol: float

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def contains(self, k: float, slack: float = 0.0) -> bool:
        return any(lo - slack <= k <= hi + slack for lo, hi in self.intervals)


def monodromy_trace(p: PeriodicPoint, k: float) -> float:
    """Trace of the one-period product, P(c) / W with P the integer polynomial
    of :func:`_trace_poly` and W the product of the letters, evaluated
    exactly at the double c = cos k and rounded once.

    The double c is a dyadic m / 2**e, so 2**(e * n) * P(c) is an integer
    (:func:`_value`) and one integer division by W * 2**(e * n) gives the
    correctly rounded trace.  Bands that touch at pi/2 read |trace| = 2
    exactly, and the result stays finite far past any enumerable period.
    """
    check_energy(k)
    m, d = canonical_cos(k).as_integer_ratio()
    e = d.bit_length() - 1
    letters = p.cycle.letters
    trace = _trace_poly(letters)
    return _value(trace, m, e) / (math.prod(letters) << (e * (len(trace) - 1)))


def _trace_poly(letters: tuple[int, ...]) -> list[int]:
    """Integer coefficients, in ascending powers of c = cos k, of the trace of
    the one-period product of the matrices [[(cur+prev) c, -prev], [cur, 0]]:
    each step matrix of :func:`sftlab.cocycle.a_matrix` is sqrt(cur/prev) / cur
    times this one, and around a whole cycle the sqrt(cur/prev) factors
    telescope to 1, so the trace is this polynomial divided by the product of
    the letters."""
    m11, m12, m21, m22 = [1], [0], [0], [1]
    prev = letters[-1]
    for cur in letters:
        a = cur + prev
        new11 = [0] + [a * x for x in m11]
        new12 = [0] + [a * x for x in m12]
        for i, x in enumerate(m21):
            new11[i] -= prev * x
        for i, x in enumerate(m22):
            new12[i] -= prev * x
        m11, m12, m21, m22 = new11, new12, [cur * x for x in m11], [cur * x for x in m12]
        prev = cur
    return [x + (m22[i] if i < len(m22) else 0) for i, x in enumerate(m11)]


def _derivative(a: list[int]) -> list[int]:
    return [i * x for i, x in enumerate(a)][1:]


def _primitive(a: list[int]) -> list[int]:
    """a divided by the positive gcd of its coefficients."""
    g = math.gcd(*a)
    return [x // g for x in a]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a divided by b: each
    pseudo-division step scales by |lc(b)|, so signs are kept, as a Sturm
    sequence needs."""
    r = list(a)
    lb = abs(b[-1])
    sb = 1 if b[-1] > 0 else -1
    while len(r) >= len(b):
        lr = sb * r.pop()
        shift = len(r) - len(b) + 1
        r = [lb * x for x in r]
        for i, y in enumerate(b[:-1]):
            r[shift + i] -= lr * y
        while r and r[-1] == 0:
            r.pop()
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive greatest common divisor (primitive remainder sequence)."""
    while b:
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _exact_quo(a: list[int], b: list[int]) -> list[int]:
    """Quotient of a by a primitive divisor b; by Gauss's lemma it has
    integer coefficients."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + len(b) - 1] // b[-1]
        for j, y in enumerate(b):
            r[i + j] -= q[i] * y
    return q


def _value(a: list[int], m: int, e: int) -> int:
    """2**(e * deg a) * a(m / 2**e), exactly: its sign is that of a there."""
    v = 0
    shift = 0
    for x in reversed(a):
        v = v * m + (x << shift)
        shift += e
    return v


def _variations(chain: list[list[int]], m: int, e: int) -> int:
    """Sign changes of a Sturm sequence at m / 2**e, zeros skipped."""
    count = 0
    last = 0
    for a in chain:
        v = _value(a, m, e)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _acos(m: int, e: int) -> float:
    """acos(m / 2**e) for 0 <= m <= 2**e, from the exact 1 - c: acos itself
    turns one ulp of c near +-1 into about 1e-8 of k."""
    return 2.0 * math.asin(math.sqrt(((1 << e) - m) / (1 << (e + 1))))


# a bound on |_acos(m, e) - acos(m / 2**e)| for 0 <= m / 2**e <= 1, with room
# to round the difference of two; derived in _refine
_ACOS_ERR = 2.0**-48
# levels below an isolating interval's level e at which its root is
# bracketed: 2**-(e + 64) is 2**-12 of the ulp of any double c >= 2**-e, so
# rounding the bracket's ends to that grid costs nothing
_BRACKET_BITS = 64


def _float_root(g: list[int], lo: int, hi: int, e: int) -> tuple[float, float] | None:
    """(y, dy): the root of g in (lo**2 / 4**e, hi**2 / 4**e] in floats and an
    estimate of its error, or None if a coefficient does not fit in a float
    or the estimate is not below 1.

    Laguerre's method from the top end, on float coefficients: the roots of
    g are real (the squares of band edges c), and for a real-rooted
    polynomial the iterates that step down fall monotonically and cubically
    to the largest root below the start, the one in the interval.  The loop
    stops when a step fails to descend or the float sign flips, after at
    most 64 steps; dy is (|g(y)| + Horner's running error bound) / |g'(y)|,
    a first-order bound the caller certifies exactly."""
    try:
        coeffs = [float(x) for x in reversed(g)]
    except OverflowError:
        return None
    n = len(g) - 1
    bottom, y = lo * lo / (1 << 2 * e), hi * hi / (1 << 2 * e)
    up = None
    for _ in range(64):
        p = dp = d2 = 0.0
        for x in coeffs:
            d2 = d2 * y + dp
            dp = dp * y + p
            p = p * y + x
        if up is None:
            up = p > 0.0
        if p == 0.0 or (p > 0.0) != up:
            break
        grad = dp / p
        hess = grad * grad - 2.0 * d2 / p
        d = grad + math.sqrt(max((n - 1) * (n * hess - grad * grad), 0.0))
        if not d > 0.0:
            break
        y_new = max(y - n / d, bottom)
        if not y_new < y:
            break
        y = y_new
    p = dp = r = 0.0
    for x in coeffs:
        dp = dp * y + p
        p = p * y + x
        r = r * y + abs(x)
    dy = (abs(p) + 2.0 * len(g) * 2.0**-53 * r) / abs(dp) if dp else math.inf
    return (y, dy) if dy < 1.0 else None


def _bracket(g: list[int], lo: int, hi: int, e: int) -> tuple[int, int, int, int] | None:
    """(a, b, q, s): the root c of g(c**2) in (lo / 2**e, hi / 2**e] lies
    strictly between a / 2**q and b / 2**q, q = e + _BRACKET_BITS, and s is
    the sign of g at (b / 2**q)**2, as certified by the exact signs at a and
    b; s = 0 and a = b = hi << _BRACKET_BITS if c = hi / 2**e.  The bracket
    is the float root plus and minus its error estimate, clipped to the
    interval and widened at most twice by 2**16 before giving None."""
    root = _float_root(g, lo, hi, e)
    if root is None:
        return None
    y, dy = root
    c = math.sqrt(y)
    dc = (dy / c if c > 0.0 else math.sqrt(dy)) + math.ulp(c)
    q = e + _BRACKET_BITS
    top = hi << _BRACKET_BITS
    for _ in range(3):
        num, den = (c + dc).as_integer_ratio()
        b = min(top, -((-num << q) // den))
        vb = _value(g, b * b, 2 * q)
        if vb == 0 and b == top:
            return b, b, q, 0
        num, den = (c - dc).as_integer_ratio()
        a = max(lo << _BRACKET_BITS, (num << q) // den)
        va = _value(g, a * a, 2 * q)
        if a < b and ((va > 0 and vb < 0) or (va < 0 and vb > 0)):
            return a, b, q, vb
        dc *= 2.0**16
    return None


def _refine(g: list[int], lo: int, hi: int, e: int, tol: float) -> float:
    """k = acos(c) of the one c in (lo / 2**e, hi / 2**e] with g(c**2) = 0,
    to within tol, by bisection on dyadic rationals c >= 0.  Each sign is
    that of _value(g, mid**2, 2 * e), the same integer as _value(h, mid, e)
    for the even h(c) = g(c**2).  The loop ends at the latest when both ends
    of the bracket round to the same k.

    The bisection's result depends only on c, the start level e and tol, so
    most of it is skipped: a certified bracket a / 2**q < c < b / 2**q from
    :func:`_bracket` (or, without one, the exact sign at hi and the bracket
    (lo, hi) itself) decides the loop's first levels.

    - Cells.  Up to level q - bit_length(a ^ (b - 1)), a >> (q - level) and
      (b - 1) >> (q - level) agree, so the bisection's cell there is fixed
      and c lies strictly inside it: no earlier mid is c.
    - Stops.  acos has slope <= -1 on [0, 1], so at level E the ends' exact
      ks differ by at least 2**-E.  _acos rounds (1 - c) / 2 and its square
      root correctly and asin has slope <= sqrt(2) there, so an asin within
      13 ulps keeps _acos within (3 + 2 * 13) * 2**-53 of acos, 3 * 2**-53
      below _ACOS_ERR; twice that covers rounding tol + 2 * _ACOS_ERR and
      the difference of two ks.  So at every level with
      2**-E > tol + 2 * _ACOS_ERR the float difference exceeds tol, and no
      such level can end the loop.

    The loop starts at the last level that is both fixed and no later than
    one past the last level that cannot stop.  From there it runs as
    before, taking each mid's sign from the bracket when the mid lies outside
    (a, b) and from _value otherwise, so every float it returns is the plain
    bisection's."""
    a, b, q, s = _bracket(g, lo, hi, e) or (lo, hi, e, _value(g, hi * hi, 2 * e))
    if s == 0:
        return _acos(b, q)
    fixed = q - (a ^ (b - 1)).bit_length()
    free = -math.frexp(tol + 2.0 * _ACOS_ERR)[1]
    level = max(e, min(fixed, free + 1))
    lo, e = a >> (q - level), level
    hi = lo + 1
    k_lo, k_hi = _acos(lo, e), _acos(hi, e)
    while k_lo - k_hi > tol:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        mid = lo + 1
        if mid << q <= a << e:
            v = -s
        elif mid << q >= b << e:
            v = s
        else:
            v = _value(g, mid * mid, 2 * e)
            if v == 0:
                return _acos(mid, e)
        if (v > 0) == (s > 0):
            hi, k_hi = mid, _acos(mid, e)
        else:
            lo, k_lo = mid, _acos(mid, e)
    return 0.5 * (k_lo + k_hi)


def _edges_above_zero(g: list[int], tol: float) -> list[float]:
    """acos of every c in (0, 1] with g(c**2) = 0, ascending in k, for a
    square-free g with g(0) != 0.  The roots are isolated on dyadic
    intervals (lo / 2**e, hi / 2**e] in c, as for h(c) = g(c**2) itself,
    but each interval's roots are counted with a Sturm sequence of g on
    (lo**2 / 4**e, hi**2 / 4**e]: at most n + 1 polynomials of degree
    <= n = deg g instead of 2n + 1 of degree <= 2n.  Then they are refined
    one by one."""
    chain = [g, _derivative(g)]
    while len(chain[-1]) > 1:
        chain.append([-x for x in _primitive(_prem(chain[-2], chain[-1]))])
    out = []
    stack = [(0, 1, 0, _variations(chain, 0, 0), _variations(chain, 1, 0))]
    while stack:
        lo, hi, e, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            out.append(_refine(g, lo, hi, e, tol))
        elif v_lo - v_hi > 1:
            lo, hi, e = 2 * lo, 2 * hi, e + 1
            v_mid = _variations(chain, (lo + 1) ** 2, 2 * e)
            stack.append((lo, lo + 1, e, v_lo, v_mid))
            stack.append((lo + 1, hi, e, v_mid, v_hi))
    return sorted(out)


def band_set(p: PeriodicPoint, grid_points: int = 2001, tol: float = 1e-10) -> BandSet:
    """Closed intervals of k where |trace| <= 2, each edge within tol.

    The trace is P(c) / W, with P the integer polynomial of
    :func:`_trace_poly` and W the product of the letters, so the bands are
    {c in [-1, 1] : F(c) <= 0} with F = P**2 - 4 W**2.  By Floquet theory
    the 2n roots of F are real, lie in [-1, 1] and have multiplicity at most
    two (Teschl, Jacobi Operators and Completely Integrable Nonlinear
    Lattices, 2000, ch. 7).  F is even: the step matrix at -c is -D M D with
    D = diag(1, -1), so P(-c) = (-1)**n P(c).  The double roots of F, the
    roots of gcd(F, F'), are touching bands (closed gaps) and stay inside
    one interval; the band edges are the roots of H = F / gcd(F, F')**2,
    where F changes sign.  H is even too, H(c) = G(c**2) with G = H[::2] of
    degree <= n, so the edges in (0, 1] are isolated and refined through G in
    y = c**2 (:func:`_edges_above_zero`) and mirrored to k -> pi - k.  The
    gcd stays in c: F(0) = 0 where bands touch at pi/2, and that double
    root of F in c would be a simple root of F(sqrt(y)) at y = 0.
    Everything up to the final acos is integer arithmetic, so bands merge
    wherever they touch (pi/2, pi/4, ...) and none is missed.

    The bands are consecutive pairs of edges.  F > 0 for c > 1 (positive
    leading coefficient, all roots in [-1, 1]), and c = +-1 are simple roots
    of F: at c = 1 the recursion has the constant solution and one growing
    like the sum of 1 / w_n, so the monodromy is parabolic, never the +-Id a
    double root needs (Teschl, ch. 7), and c = -1 mirrors it.  So k = 0, the
    exact top end of the top dyadic interval, is the first edge and opens a
    band, and pi is the last edge.

    ``grid_points`` is validated (>= 64) but otherwise ignored: no grid is
    used.
    """
    if grid_points < 64:
        raise ValueError("grid_points must be >= 64")
    if not 0.0 < tol < math.inf:  # also NaN, which every comparison fails
        raise ValueError("tol must be positive and finite")
    letters = p.cycle.letters
    trace = _trace_poly(letters)
    f = [0] * (2 * len(trace) - 1)
    for i, x in enumerate(trace):
        for j, y in enumerate(trace):
            f[i + j] += x * y
    f[0] -= 4 * math.prod(letters) ** 2
    g = _gcd(f, _derivative(f))
    h = _exact_quo(_exact_quo(f, g), g)

    ks = _edges_above_zero(h[::2], tol)
    edges = ks + [math.pi - k for k in reversed(ks)]
    return BandSet(tuple(zip(edges[::2], edges[1::2])), tol)


def gaps(b: BandSet) -> BandSet:
    """Closure of [0, pi] minus the bands."""
    out = []
    prev = 0.0
    for lo, hi in b.intervals:
        if lo > prev:
            out.append((prev, lo))
        prev = hi
    if prev < math.pi:
        out.append((prev, math.pi))
    return BandSet(tuple(out), b.tol)


def intersect(bands: list[BandSet]) -> BandSet:
    """Interval-sweep intersection; tol is the coarsest of the inputs.  An
    empty input list acts as the identity [0, pi]."""
    acc = [(0.0, math.pi)]
    tol = max((b.tol for b in bands), default=0.0)
    for b in bands:
        out = []
        i = j = 0
        cur = b.intervals
        while i < len(acc) and j < len(cur):
            lo = max(acc[i][0], cur[j][0])
            hi = min(acc[i][1], cur[j][1])
            if hi >= lo:
                out.append((lo, hi))
            if acc[i][1] < cur[j][1]:
                i += 1
            else:
                j += 1
        acc = out
        if not acc:
            break
    return BandSet(tuple(acc), tol)


def h_tilde_bands(p: PeriodicPoint, tol: float = 1e-10) -> list[tuple[float, float]]:
    """Spectrum of the weighted discrete hopping operator with weights
    p_n/(p_n + p_{n-1}): the image of the k-bands under the order-reversing
    map k -> cos k, as closed subintervals of [-1, 1]."""
    b = band_set(p, tol=tol)
    out = [(max(-1.0, math.cos(hi)), min(1.0, math.cos(lo))) for lo, hi in b.intervals]
    return sorted(out)


def exceptional_candidates(spec: SubshiftSpec, max_period: int, tol: float = 1e-10) -> BandSet:
    """Intersection of the band sets of every primitive periodic point with
    period <= max_period, monotone non-increasing in max_period.

    It approximates the energies where the exponent can vanish away from
    c = cos k = 0, and it is no outer approximation at c = 0: every step
    matrix is antidiagonal there, so the cocycle keeps the pair of
    coordinate axes and even loops can be hyperbolic.  Where the point
    (1,2) is admissible its trace at k = pi/2 is -2.5, so pi/2 lies in no
    candidate set of period >= 2, yet the exponent vanishes there
    (acceptance criterion 6 on the full shift).  An invariant pair of lines
    is not the invariant conformal structure that "zero exponent implies
    inside every band" needs (Avila & Viana 2010, "Extremal Lyapunov
    exponents: an invariance principle and applications")."""
    points = enumerate_periodic_points(spec, max_period)
    return intersect([band_set(p, tol=tol) for p in points])
