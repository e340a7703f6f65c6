"""Continuous layer: edge-wise solutions of -phi'' = k^2 phi on [0, 1],
Kirchhoff balance at the integer vertices, and its equivalence with the
three-term vertex recursion.

All parallel edge copies of a bundle carry the same boundary data, so one
representative solution per bundle with a multiplicity weight suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cocycle import check_energy, solve_difference
from .sft import Word


@dataclass(frozen=True)
class EdgeSolution:
    """The solution phi(x) = (sin(k(1-x)) phi0 + sin(kx) phi1) / sin(k) on [0, 1]."""

    k: float
    phi0: float
    phi1: float

    def __post_init__(self):
        check_energy(self.k)

    def value(self, x: float) -> float:
        # dividing the weights first makes value(0) == phi0 and
        # value(1) == phi1 exact
        s = math.sin(self.k)
        return (math.sin(self.k * (1.0 - x)) / s) * self.phi0 + (math.sin(self.k * x) / s) * self.phi1


def _derivatives(f: float, c: float, phi0: float, phi1: float) -> tuple[float, float]:
    """(phi'(0), phi'(1)) = f * (-c phi0 + phi1, -phi0 + c phi1) of the
    :class:`EdgeSolution` (k, phi0, phi1), with f = k / sin k and c = cos k
    computed once per energy by the caller."""
    return f * (-c * phi0 + phi1), f * (-phi0 + c * phi1)


@dataclass(frozen=True)
class VertexData:
    """Edge multiplicities over a window plus vertex values; values cover one
    more index than edges (edge n spans [n, n+1])."""

    word: Word
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != len(self.word) + 1:
            raise ValueError(
                f"need {len(self.word) + 1} vertex values for {len(self.word)} edges, got {len(self.values)}"
            )


def kirchhoff_residual(v: VertexData, k: float) -> list[float]:
    """Derivative balance at each interior vertex n:

        w_n * phi'_{[n,n+1]}(0)  -  w_{n-1} * phi'_{[n-1,n]}(1),

    normalized by (k/|sin k|) * max|u| so thresholds are k-uniform.  Zero at a
    vertex exactly when the three-term recursion holds there."""
    check_energy(k)
    w, u = v.word.letters, v.values
    s = math.sin(k)
    f, c = k / s, math.cos(k)
    scale = (k / abs(s)) * max(max(map(abs, u)), 1e-300)
    d = [_derivatives(f, c, u[i], u[i + 1]) for i in range(len(w))]
    return [(w[i] * d[i][0] - w[i - 1] * d[i - 1][1]) / scale for i in range(1, len(w))]


def verify_corollary(word: Word, k: float, u0: float, um1: float) -> bool:
    """Build vertex values by the recursion, then confirm the Kirchhoff
    balance vanishes at every interior vertex (within 1e-9, scale-normalized)."""
    values = solve_difference(k, word, u0, um1)
    data = VertexData(word, tuple(values))
    return max(map(abs, kirchhoff_residual(data, k)), default=0.0) < 1e-9
