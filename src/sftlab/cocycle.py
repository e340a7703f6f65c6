"""The SL(2,R) transfer cocycle: single-step matrices, stability-controlled
products, the projective (Moebius) action, holonomies, eigendirections and
the equivalent three-term vertex recursion.

The single-step matrix for the letter pair (prev, cur) = (w_{-1}, w_0) is

    A = sqrt(cur/prev) * [[(cur+prev)/cur * cos k,  -prev/cur],
                          [1,                        0        ]],

a unimodular matrix depending on k only through cos k.  All trigonometry here
goes through :func:`canonical_cos`, so two energies with equal cosine produce
bit-identical matrices; this is what makes results repeat exactly across the
spectral branches k, 2*pi - k, 2*pi + k, ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    NotInStableSet,
    NotInUnstableSet,
    ParabolicOrCentral,
    SingularEnergy,
)
from .sft import Word

_SIN_TOL = 1e-12
_DEGENERATE_TOL = 1e-9  # on trace^2 - 4; coarser than band-edge bisection


class Mat2(NamedTuple):
    """Real 2x2 matrix, row-major entries."""

    a11: float
    a12: float
    a21: float
    a22: float

    def trace(self) -> float:
        return self.a11 + self.a22

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def spectral_norm(self) -> float:
        """Largest singular value, closed form (branch-free for 2x2)."""
        q = self.a11**2 + self.a12**2 + self.a21**2 + self.a22**2
        d = self.det()
        return math.sqrt((q + math.sqrt(max(q * q - 4.0 * d * d, 0.0))) / 2.0)


IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    return Mat2(
        m.a11 * n.a11 + m.a12 * n.a21,
        m.a11 * n.a12 + m.a12 * n.a22,
        m.a21 * n.a11 + m.a22 * n.a21,
        m.a21 * n.a12 + m.a22 * n.a22,
    )


def mat_inv(m: Mat2) -> Mat2:
    d = m.det()
    if d == 0.0:
        raise ZeroDivisionError("singular 2x2 matrix")
    return Mat2(m.a22 / d, -m.a12 / d, -m.a21 / d, m.a11 / d)


class ScaledMat2(NamedTuple):
    """A 2x2 matrix stored as (mat, log_scale) with max-entry magnitude of
    ``mat`` normalized to 1; represents exp(log_scale) * mat.  Keeps products
    of millions of steps inside double range."""

    mat: Mat2
    log_scale: float

    def reconstruct(self) -> Mat2:
        """exp(log_scale) * mat as a plain matrix; overflows for log_scale
        beyond ~709, so reserve for desk-scale products."""
        s = math.exp(self.log_scale)
        return Mat2(s * self.mat.a11, s * self.mat.a12, s * self.mat.a21, s * self.mat.a22)


def scaled_from(m: Mat2, log_scale: float = 0.0) -> ScaledMat2:
    """Normalize max-entry magnitude to 1, pushing the factor into the log."""
    mag = max(abs(m.a11), abs(m.a12), abs(m.a21), abs(m.a22))
    if mag == 0.0:
        raise ValueError("zero matrix cannot be scale-normalized")
    return ScaledMat2(
        Mat2(m.a11 / mag, m.a12 / mag, m.a21 / mag, m.a22 / mag), log_scale + math.log(mag)
    )


def scaled_mul(m: ScaledMat2, n: ScaledMat2) -> ScaledMat2:
    return scaled_from(mat_mul(m.mat, n.mat), m.log_scale + n.log_scale)


def _check_finite(k: float):
    """Raise ValueError unless k is finite: sin and cos of +-inf are domain
    errors, and a nan fails every comparison, so it would pass the
    tolerance checks of :func:`check_energy` and :func:`canonical_cos`."""
    if not math.isfinite(k):
        raise ValueError(f"k = {k} is not a finite energy")


@lru_cache(maxsize=4096)
def canonical_cos(k: float) -> float:
    """cos k, canonicalized so that k and acos(cos k) give the same double.

    libm does not guarantee cos(acos(x)) == x bitwise, so a bare cos(k) would
    break bit-for-bit branch invariance.  Iterating x -> cos(acos(x)) settles
    into a short cycle within a few ulps of cos k; the minimum of that cycle
    is a canonical representative shared by every k with the same cosine orbit.

    |cos k| below 1e-12 snaps to exactly 0.0: the float representation of
    pi/2 leaves a ~6e-17 residue, and the exponent of the resulting
    near-diagonal random products is logarithmically sensitive to that
    residue (rate ~ 1/|log residue|), so a query within an ulp of the
    cancellation energy must be evaluated at the cancellation energy itself.
    A non-finite k raises ValueError.
    """
    _check_finite(k)
    x = math.cos(k)
    if abs(x) < 1e-12:
        return 0.0
    seen = [x]
    while True:
        x = math.cos(math.acos(max(-1.0, min(1.0, x))))
        if x in seen:
            cycle = seen[seen.index(x):]
            return min(cycle)
        seen.append(x)


def check_energy(k: float):
    """Raise SingularEnergy when sin k vanishes within _SIN_TOL: at integer
    multiples of pi the edge solutions degenerate and the cocycle is undefined.
    A non-finite k raises ValueError."""
    _check_finite(k)
    if abs(math.sin(k)) <= _SIN_TOL:
        raise SingularEnergy(f"k = {k} is an integer multiple of pi within {_SIN_TOL}")


def a_matrix(k: float, prev: int, cur: int) -> Mat2:
    """Single-step transfer matrix for the letter pair (w_{-1}, w_0) = (prev, cur)."""
    check_energy(k)
    if prev < 1 or cur < 1:
        raise ValueError("letters must be positive integers")
    c = canonical_cos(k)
    x = cur / prev
    s = math.sqrt(x)
    return Mat2(s * (1.0 + 1.0 / x) * c, -s / x, s, 0.0)


def cocycle_product(k: float, word: Word) -> ScaledMat2:
    """Ordered product A(T^{n-1} w) ... A(w) over n = word.last_index + 1
    steps, renormalized every step.  The word must cover indices -1..n-1;
    a word ending at index -1 gives n = 0 and the identity."""
    n = word.last_index + 1
    if n < 0:
        raise ValueError("word must cover index -1 (n >= 0)")
    if word.first_index > -1:
        raise ValueError("word must cover index -1")
    acc = ScaledMat2(IDENTITY, 0.0)
    for j in range(n):
        step = a_matrix(k, word.letter(j - 1), word.letter(j))
        acc = scaled_from(mat_mul(step, acc.mat), acc.log_scale)
    return acc


@dataclass(frozen=True)
class ProjectivePoint:
    """A direction (xi, 1) on the projective line, or (1, 0) for infinity
    (value None)."""

    value: complex | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def isclose(self, other: "ProjectivePoint", tol: float = 1e-12) -> bool:
        """Closeness in the chordal metric, so infinity is an ordinary point."""
        return _chordal(self, other) <= tol

    def __repr__(self):
        return "ProjectivePoint(inf)" if self.value is None else f"ProjectivePoint({self.value})"


INFINITY = ProjectivePoint(None)


def projective(value) -> ProjectivePoint:
    return ProjectivePoint(complex(value))


def _chordal(p: ProjectivePoint, q: ProjectivePoint) -> float:
    if p.is_infinite and q.is_infinite:
        return 0.0
    if p.is_infinite or q.is_infinite:
        z = q.value if p.is_infinite else p.value
        return 1.0 / math.sqrt(1.0 + abs(z) ** 2)
    return abs(p.value - q.value) / math.sqrt((1.0 + abs(p.value) ** 2) * (1.0 + abs(q.value) ** 2))


def mobius(m: Mat2, xi: ProjectivePoint) -> ProjectivePoint:
    """(a11 xi + a12) / (a21 xi + a22), total on the projective line."""
    if xi.is_infinite:
        if m.a21 == 0.0:
            return INFINITY
        return ProjectivePoint(complex(m.a11) / complex(m.a21))
    num = m.a11 * xi.value + m.a12
    den = m.a21 * xi.value + m.a22
    if den == 0:
        return INFINITY
    return ProjectivePoint(num / den)


def _require_window(w: Word, index: int, who: str):
    if not w.covers(index):
        raise ValueError(f"{who} must cover index {index}")


def stable_holonomy(k: float, w: Word, w2: Word) -> Mat2:
    """[A(w2)]^{-1} A(w) for w2 in the local stable set of w (windows agree on
    indices >= 0).  Constant in n because the cocycle reads only w_{-1}, w_0."""
    for x, who in ((w, "first window"), (w2, "second window")):
        _require_window(x, -1, who)
        _require_window(x, 0, who)
    hi = min(w.last_index, w2.last_index)
    for i in range(0, hi + 1):
        if w.letter(i) != w2.letter(i):
            raise NotInStableSet(f"windows disagree at index {i} >= 0")
    return mat_mul(mat_inv(a_matrix(k, w2.letter(-1), w2.letter(0))), a_matrix(k, w.letter(-1), w.letter(0)))


def unstable_holonomy(k: float, w: Word, w2: Word) -> Mat2:
    """Identity, for w2 in the local unstable set of w (agreement on indices
    <= 0): backward products use only coordinates <= 0, which coincide."""
    check_energy(k)
    for x, who in ((w, "first window"), (w2, "second window")):
        _require_window(x, 0, who)
    lo = max(w.first_index, w2.first_index)
    for i in range(lo, 1):
        if w.letter(i) != w2.letter(i):
            raise NotInUnstableSet(f"windows disagree at index {i} <= 0")
    return IDENTITY


def eigendirections(m: Mat2) -> tuple[ProjectivePoint, ProjectivePoint]:
    """The two invariant directions (s, u) of the Moebius action of m.

    For trace^2 < 4 the pair is complex conjugate and s is the one in the
    upper half-plane.  For trace^2 > 4 both are real; s is the '+' branch of
    ((a - d) +/- sqrt(trace^2 - 4)) / (2 c), a pure labeling convention.  For
    a21 = 0 the limit formulas apply: s = infinity, u = a12 / (a22 - a11).
    Raises ParabolicOrCentral (with the unique direction, or the central flag
    for +/-Id) when trace^2 = 4 within 1e-9.
    """
    a, b, c, d = m.a11, m.a12, m.a21, m.a22
    tr = a + d
    disc = tr * tr - 4.0
    if abs(disc) <= _DEGENERATE_TOL:
        if c != 0.0:
            direction = ProjectivePoint(complex((a - d) / (2.0 * c)))
        elif a != d or b != 0.0:
            direction = INFINITY
        else:
            raise ParabolicOrCentral(
                f"matrix is {'+' if a > 0 else '-'}Id: every direction is invariant",
                direction=None,
                central=True,
            )
        raise ParabolicOrCentral(
            f"trace^2 = 4 within {_DEGENERATE_TOL}: unique invariant direction {direction}",
            direction=direction,
            central=False,
        )
    if disc > 0.0:
        r = math.sqrt(disc)
        if c == 0.0:
            return INFINITY, ProjectivePoint(complex(b / (d - a)))
        return (
            ProjectivePoint(complex((a - d + r) / (2.0 * c))),
            ProjectivePoint(complex((a - d - r) / (2.0 * c))),
        )
    r = math.sqrt(-disc)
    s = complex(a - d, math.copysign(r, c)) / (2.0 * c)
    return ProjectivePoint(s), ProjectivePoint(s.conjugate())


def solve_difference(k: float, word: Word, u0: float, um1: float) -> list[float]:
    """Vertex values u(-1), u(0), ..., u(n) from the bare three-term recursion

        w_m u(m+1) + w_{m-1} u(m-1) - (w_m + w_{m-1}) cos(k) u(m) = 0,

    seeded with u(0) = u0 and u(-1) = um1.  The word must cover -1..n-1.
    Agrees with sqrt(w_{-1}/w_{n-1}) * A_n applied to (u0, um1): the scalar
    prefactor is the telescoped product of the per-step sqrt normalizers.
    """
    n = word.last_index + 1
    if n < 0 or word.first_index > -1:
        raise ValueError("word must cover index -1")
    c = canonical_cos(k)
    values = [um1, u0]
    for m in range(n):
        wm = word.letter(m)
        wm1 = word.letter(m - 1)
        values.append(((wm + wm1) * c * values[-1] - wm1 * values[-2]) / wm)
    return values
