"""The SL(2,R) transfer cocycle: single-step matrices, stability-controlled
products and the equivalent three-term vertex recursion.

The single-step matrix for the letter pair (prev, cur) = (w_{-1}, w_0) is

    A = sqrt(cur/prev) * [[(cur+prev)/cur * cos k,  -prev/cur],
                          [1,                        0        ]],

a unimodular matrix depending on k only through cos k.  All trigonometry here
goes through :func:`canonical_cos`, so two energies with equal canonical
cosine produce bit-identical matrices; this is what makes results at k and at
acos(cos k) repeat exactly.  Other branches need not: the doubles cos k and
cos(2*pi - k) can differ in the last bits, and so do their canonical
cosines (0.0707372016677029 at k = 1.5, 0.07073720166770268 at 2*pi - 1.5).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import SingularEnergy
from .sft import Word

_SIN_TOL = 1e-12


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
    steps, each column renormalized by its own max entry every step, so a
    column far smaller than the other is never lost to underflow.  The word
    must cover indices -1..n-1; one ending at index -1 gives the identity."""
    n = word.last_index + 1
    if n < 0:
        raise ValueError("word must cover index -1 (n >= 0)")
    if word.first_index > -1:
        raise ValueError("word must cover index -1")
    m, a1, a2 = IDENTITY, 0.0, 0.0  # the product is m with column j times e**aj
    for j in range(n):
        m = mat_mul(a_matrix(k, word.letter(j - 1), word.letter(j)), m)
        c1, c2 = max(abs(m.a11), abs(m.a21)), max(abs(m.a12), abs(m.a22))
        m = Mat2(m.a11 / c1, m.a12 / c2, m.a21 / c1, m.a22 / c2)
        a1, a2 = a1 + math.log(c1), a2 + math.log(c2)
    c1, c2 = math.exp(a1 - max(a1, a2)), math.exp(a2 - max(a1, a2))
    return scaled_from(Mat2(m.a11 * c1, m.a12 * c2, m.a21 * c1, m.a22 * c2), max(a1, a2))


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
    ws = word.letters[-1 - word.base_index :]  # w_{-1}, w_0, ..., w_{n-1}
    values = [um1, u0]
    for wm1, wm in zip(ws, ws[1:]):
        values.append(((wm + wm1) * c * values[-1] - wm1 * values[-2]) / wm)
    return values
