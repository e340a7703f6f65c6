"""Package surface: the exact set of public names, and the README's library
quickstart run as written."""

import contextlib
import io
import math
import re
import types
from pathlib import Path

import pytest

import sftlab

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "BandSet",
    "EdgeSolution",
    "EmptySubshift",
    "LyapunovEstimate",
    "MarkovMeasure",
    "Mat2",
    "NotStochastic",
    "NotTransitive",
    "ParseError",
    "PeriodicPoint",
    "ScaledMat2",
    "SftlabError",
    "SingularEnergy",
    "SubshiftSpec",
    "SupportViolation",
    "UnknownSubcommand",
    "VertexData",
    "Word",
    "a_matrix",
    "band_set",
    "canonical_cos",
    "cocycle_product",
    "enumerate_periodic_points",
    "exceptional_candidates",
    "gaps",
    "in_exclusion_window",
    "intersect",
    "kalinin_profile",
    "kirchhoff_residual",
    "lyapunov_mc",
    "lyapunov_mc_grid",
    "lyapunov_periodic",
    "mat_mul",
    "monodromy_trace",
    "sample_window",
    "scaled_from",
    "scaled_mul",
    "shift",
    "solve_difference",
    "stationary_markov",
    "validate_spec",
    "verify_corollary",
]


def test_public_surface_is_pinned():
    # submodules appear as attributes once imported (sftlab.cli only after a
    # CLI test has run), so only non-module names count as the surface
    names = sorted(
        name
        for name, value in vars(sftlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_readme_quickstart_runs_and_matches_its_comments():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)

    # points = ... # (1), (1,2), (1,1,2)
    assert [p.cycle.letters for p in namespace["points"]] == [(1,), (1, 2), (1, 1, 2)]
    # bands = ... # [0, acos(1/3)] u [pi-acos(1/3), pi]
    bands = namespace["bands"]
    edge = math.acos(1.0 / 3.0)
    expected = [(0.0, edge), (math.pi - edge, math.pi)]
    assert len(bands.intervals) == len(expected)
    for got, want in zip(bands.intervals, expected):
        assert got == pytest.approx(want, abs=bands.tol)
    # print(lyapunov_periodic(points[1], math.pi / 2)) # ln(2)/2
    first_line = out.getvalue().splitlines()[0]
    assert float(first_line) == pytest.approx(math.log(2.0) / 2.0, abs=1e-15)
