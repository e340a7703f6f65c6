"""Monodromy traces of periodic points, band/gap structure on [0, pi] in the
k variable, interval intersections, and the finite-period outer approximation
of the zero-exponent candidate set."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cocycle import canonical_cos, check_energy
from .errors import ResolutionTooCoarse
from .sft import PeriodicPoint, SubshiftSpec, enumerate_periodic_points


@dataclass(frozen=True)
class BandSet:
    """Finite union of disjoint closed subintervals of [0, pi] in the k
    variable, with the grid step and bisection tolerance that located the
    edges."""

    intervals: tuple[tuple[float, float], ...]
    resolution: float
    tol: float

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def contains(self, k: float, slack: float = 0.0) -> bool:
        return any(lo - slack <= k <= hi + slack for lo, hi in self.intervals)


def monodromy_trace(p: PeriodicPoint, k: float) -> float:
    """Trace of the one-period product.

    Each step matrix of :func:`sftlab.cocycle.a_matrix` is
    sqrt(cur/prev) / cur * [[(cur+prev) c, -prev], [cur, 0]] with c = cos k.
    Around a whole cycle the sqrt(cur/prev) factors telescope to 1, so the
    trace is that of the product of the integer-coefficient matrices, divided
    once by the product of the letters.  At c = 0 (k = pi/2) every entry is
    an exact integer, so bands that touch there read |trace| = 2 exactly.
    Entries are bounded by (3 * alphabet_size)**period, so the result stays
    finite far past any enumerable period and needs no renormalization.
    """
    check_energy(k)
    c = canonical_cos(k)
    letters = p.cycle.letters
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    prev = letters[-1]
    for cur in letters:
        a = (cur + prev) * c
        m11, m12, m21, m22 = a * m11 - prev * m21, a * m12 - prev * m22, cur * m11, cur * m12
        prev = cur
    return (m11 + m22) / math.prod(letters)


def _bisect_edge(f, lo: float, hi: float, f_lo: float, tol: float) -> float:
    """Locate where f <= 0 switches in [lo, hi] to within tol."""
    below = f_lo <= 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) <= 0.0) == below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cell_crossings(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> list[float]:
    """Crossings of f inside one grid cell, in ascending order.

    A midpoint probe catches a crossing pair hiding in a single cell; one
    further refinement level (quarter points) must separate any pair, else the
    structure is finer than the grid can support.
    """
    mid = 0.5 * (lo + hi)
    f_mid = f(mid)
    out = []
    for a, b, fa, fb in ((lo, mid, f_lo, f_mid), (mid, hi, f_mid, f_hi)):
        if (fa <= 0.0) != (fb <= 0.0):
            out.append(_bisect_edge(f, a, b, fa, tol))
        else:
            q = 0.5 * (a + b)
            fq = f(q)
            if (fq <= 0.0) != (fa <= 0.0):
                raise ResolutionTooCoarse(
                    f"two band edges inside one refined cell [{a}, {b}]; increase grid_points"
                )
    return out


def band_set(p: PeriodicPoint, grid_points: int = 2001, tol: float = 1e-10) -> BandSet:
    """Closed intervals where |trace| <= 2, edges located by bisection of
    |trace| - 2 on a uniform interior grid over (0, pi).  Every probe uses the
    same closed test |trace| - 2 <= 0, so bands that touch at an exact trace
    of +-2 stay one interval.  The endpoints 0 and pi join a band when the
    adjacent cell lies inside one."""
    if grid_points < 64:
        raise ValueError("grid_points must be >= 64")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    def f(k: float) -> float:
        return abs(monodromy_trace(p, k)) - 2.0

    step = math.pi / (grid_points + 1)
    ks = [step * (i + 1) for i in range(grid_points)]
    fs = [f(k) for k in ks]

    crossings = []
    for i in range(grid_points - 1):
        crossings.extend(_cell_crossings(f, ks[i], ks[i + 1], fs[i], fs[i + 1], tol))

    intervals = []
    inside = fs[0] <= 0.0
    lo = 0.0 if inside else None
    for x in crossings:
        if inside:
            intervals.append((lo, x))
            lo = None
        else:
            lo = x
        inside = not inside
    if inside:
        intervals.append((lo, math.pi))
    return BandSet(tuple(intervals), step, tol)


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
    return BandSet(tuple(out), b.resolution, b.tol)


def intersect(bands: list[BandSet]) -> BandSet:
    """Interval-sweep intersection; resolution and tol are the coarsest of
    the inputs.  An empty input list acts as the identity [0, pi]."""
    acc = [(0.0, math.pi)]
    resolution = max((b.resolution for b in bands), default=0.0)
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
    return BandSet(tuple(acc), resolution, tol)


def h_tilde_bands(p: PeriodicPoint, grid_points: int = 2001, tol: float = 1e-10) -> list[tuple[float, float]]:
    """Spectrum of the weighted discrete hopping operator with weights
    p_n/(p_n + p_{n-1}): the image of the k-bands under the order-reversing
    map k -> cos k, as closed subintervals of [-1, 1]."""
    b = band_set(p, grid_points, tol)
    out = [(max(-1.0, math.cos(hi)), min(1.0, math.cos(lo))) for lo, hi in b.intervals]
    return sorted(out)


def exceptional_candidates(
    spec: SubshiftSpec, max_period: int, grid_points: int = 2001, tol: float = 1e-10
) -> BandSet:
    """Intersection of the band sets of every primitive periodic point with
    period <= max_period: an outer approximation, monotone non-increasing in
    max_period, of the set of energies where the exponent can vanish."""
    points = enumerate_periodic_points(spec, max_period)
    return intersect([band_set(p, grid_points, tol) for p in points])
