"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` to see the lines for passing criteria).

The exponent is positive off the exceptional energies 0, pi/2 and pi (the
ones ``in_exclusion_window`` names), but it has no uniform margin: at
cos k = +-1 every step matrix fixes the direction (1, +-1) and the diagonal
factors telescope, so L(k) vanishes continuously as k -> 0 and k -> pi.
Criteria 5 and 7 state only what the model has:

- Criterion 5 asks for ``value > 3 * stderr`` at every grid point and
  ``value > 0.01`` everywhere except on the approach to k = 0 and k = pi.
  Estimates at or below 0.01 are allowed only as one run of consecutive
  points from each grid end; along each run every estimate exceeds its
  neighbour nearer the end by more than 3 combined stderr, and the two runs
  have equal length because L(pi - k) = L(k) exactly
  (A(-c) = -D A(c) D with D = diag(1, -1)).
- Criterion 7 clause 1 rests on the theorem that a zero exponent lies in
  every periodic spectrum, so it applies to the estimates consistent with
  zero, read with criterion 6's bound ``|value| < max(2e-3, 3 * stderr)``.

The paper gives no uniform margin, so these rules are this suite's reading.
The 0.01 margin cannot simply be dropped: a true zero still estimates
clearly positive at n_steps = 1e5 (9.8e-5 +- 2.2e-7 at k = 1e-4, full
shift, seed 20260811), so ``value > 3 * stderr`` alone cannot tell a zero
from a small exponent.  The stderr covers the sampling spread only, not
that O(1/n) transient: on the same shift at k = 0.05, C5's first grid
point, n times (estimate - exponent) is 3.2 to 3.5 for n from 2.5e4 to
1.6e6, so C5's estimate there sits about 7.7 stderr above the exponent.
The clause helpers below are also tested on synthetic estimate lists.
"""

import math
import random
import time

import numpy as np
import pytest

from sftlab import (
    BandSet,
    LyapunovEstimate,
    PeriodicPoint,
    Word,
    a_matrix,
    band_set,
    cocycle_product,
    enumerate_periodic_points,
    exceptional_candidates,
    gaps,
    in_exclusion_window,
    kirchhoff_residual,
    lyapunov_mc,
    lyapunov_mc_grid,
    lyapunov_periodic,
    monodromy_trace,
    sample_window,
    scaled_mul,
    shift,
    solve_difference,
    stationary_markov,
    validate_spec,
)
from sftlab.cli import load_config, run_subcommand
from sftlab.graph_model import VertexData

FULL = validate_spec(2, [])
GOLDEN = validate_spec(2, [(2, 2)])
FULL_UNIFORM = stationary_markov(FULL, [[0.5, 0.5], [0.5, 0.5]])
GOLDEN_HALF = stationary_markov(GOLDEN, [[0.5, 0.5], [1.0, 0.0]])
SEED = 20260811


def _report(num: int, ok: bool, detail: str):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _grid_101():
    return [float(k) for k in np.linspace(0.05, math.pi - 0.05, 101)]


def _zero_bound(stderr: float) -> float:
    """Largest |estimate| read as a zero exponent (criteria 6 and 7)."""
    return max(2e-3, 3.0 * stderr)


def _consistent_with_zero(e: LyapunovEstimate) -> bool:
    return abs(e.value) < _zero_bound(e.stderr)


def _listed(messages: list[str], limit: int = 6) -> str:
    shown = "; ".join(messages[:limit])
    return shown + (f"; ... ({len(messages) - limit} more)" if len(messages) > limit else "")


def _stderr_violations(estimates: list[LyapunovEstimate]) -> list[str]:
    """Criterion 5: every estimate must exceed 3 stderr."""
    return [
        f"k={e.k:.4f}: value {e.value:.3e} <= 3*stderr = {3.0 * e.stderr:.2e}"
        for e in estimates
        if e.value <= 3.0 * e.stderr
    ]


def _end_run(estimates: list[LyapunovEstimate], epsilon: float) -> int:
    """Number of consecutive estimates <= epsilon from the start of the list."""
    run = 0
    while run < len(estimates) and estimates[run].value <= epsilon:
        run += 1
    return run


def _margin_violations(estimates: list[LyapunovEstimate], epsilon: float = 0.01) -> list[str]:
    """Criterion 5: estimates <= epsilon only as rising, equal runs from the
    two grid ends (see the module docstring)."""
    n = len(estimates)
    left = _end_run(estimates, epsilon)
    right = min(_end_run(estimates[::-1], epsilon), n - left)
    out = [
        f"k={e.k:.4f}: value {e.value:.3e} <= {epsilon} away from the grid ends"
        for e in estimates[left : n - right]
        if e.value <= epsilon
    ]
    for run in (estimates[:left], estimates[n - right :][::-1]):
        for near, far in zip(run, run[1:]):
            rise = 3.0 * math.hypot(near.stderr, far.stderr)
            if far.value - near.value <= rise:
                out.append(
                    f"k={far.k:.4f}: value {far.value:.3e} does not exceed {near.value:.3e} "
                    f"at k={near.k:.4f}, nearer the grid end, by 3 combined stderr = {rise:.2e}"
                )
    if left != right:
        out.append(
            f"runs <= {epsilon} from the grid ends have unequal lengths "
            f"{left} (k -> 0) and {right} (k -> pi), but L(pi - k) = L(k)"
        )
    return out


def _zero_outside_candidates(
    estimates: list[LyapunovEstimate], candidates: BandSet, slack: float
) -> list[str]:
    """Criterion 7 clause 1: a zero exponent lies in every periodic spectrum,
    so estimates consistent with zero (outside the exclusion windows) must
    lie in the candidate set."""
    return [
        f"k={e.k:.4f}: value {e.value:.3e} < max(2e-3, 3*stderr) = {_zero_bound(e.stderr):.2e} "
        f"but k is outside the candidates (slack {slack:.4f})"
        for e in estimates
        if _consistent_with_zero(e)
        and not in_exclusion_window(e.k)
        and not candidates.contains(e.k, slack=slack)
    ]


def test_criterion_1_unimodularity_and_cocycle_law():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    worst_det = 0.0
    worst_comp = 0.0
    for _ in range(10_000):
        k = rng.uniform(0.02, math.pi - 0.02)
        length = rng.randint(2, 30)
        letters = tuple(rng.choice((1, 2)) for _ in range(length + 1))
        word = Word(letters, -1)
        worst_det = max(
            worst_det, abs(a_matrix(k, letters[0], letters[1]).det() - 1.0)
        )
        whole = cocycle_product(k, word)
        worst_det = max(worst_det, abs(whole.reconstruct().det() - 1.0) / math.exp(2 * whole.log_scale))
        split = rng.randint(1, length)
        head = cocycle_product(k, word.window(-1, split - 1))
        tail = cocycle_product(k, shift(word, split))
        composed = scaled_mul(tail, head)
        scale = math.exp(composed.log_scale - whole.log_scale)
        worst_comp = max(
            worst_comp,
            max(abs(a - scale * b) for a, b in zip(whole.mat, composed.mat)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_det < 1e-10 and worst_comp < 1e-8 and elapsed < 5.0
    _report(
        1,
        ok,
        f"10^4 cases: max |det-1| = {worst_det:.2e} (tol 1e-10), "
        f"max composition error = {worst_comp:.2e} (tol 1e-8), {elapsed:.1f}s (< 5s)",
    )


def test_criterion_2_corollary_equivalence():
    rng = random.Random(SEED + 1)
    t0 = time.perf_counter()
    worst = 0.0
    worst_perturbed = math.inf
    for case in range(1000):
        word = sample_window(GOLDEN_HALF, -1, 48, (SEED, case))
        k = rng.uniform(0.2, math.pi - 0.2)
        u0 = rng.uniform(-1.0, 1.0)
        um1 = rng.uniform(-1.0, 1.0)
        values = solve_difference(k, word, u0, um1)
        # solutions grow exponentially; rescale to unit max (still a
        # solution, by linearity) so the absolute 1e-3 perturbation below
        # probes detection rather than being swamped by the growth
        vmax = max(abs(v) for v in values)
        values = [v / vmax for v in values]
        res = kirchhoff_residual(VertexData(word, tuple(values)), k)
        worst = max(worst, max(abs(r) for r in res))
        vertex = rng.randint(0, 40)
        perturbed = list(values)
        perturbed[vertex - word.first_index] += 1e-3
        res_p = kirchhoff_residual(VertexData(word, tuple(perturbed)), k)
        worst_perturbed = min(worst_perturbed, max(abs(r) for r in res_p))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and worst_perturbed > 1e-4 and elapsed < 5.0
    _report(
        2,
        ok,
        f"10^3 windows of length 50: max residual = {worst:.2e} (tol 1e-9); "
        f"min residual after 1e-3 perturbation = {worst_perturbed:.2e} (> 1e-4); "
        f"{elapsed:.1f}s (< 5s)",
    )


def test_criterion_3_period_two_closed_forms():
    t0 = time.perf_counter()
    p12 = PeriodicPoint.from_letters((1, 2))
    edge = band_set(p12, grid_points=2001, tol=1e-10).intervals[0][1]
    edge_err = abs(edge - math.acos(1.0 / 3.0))
    trace_err = abs(monodromy_trace(p12, math.pi / 2.0) - (-2.5))
    lyap_err = abs(lyapunov_periodic(p12, math.pi / 2.0) - math.log(2.0) / 2.0)
    elapsed = time.perf_counter() - t0
    ok = edge_err < 1e-9 and trace_err < 1e-12 and lyap_err < 1e-10 and elapsed < 1.0
    _report(
        3,
        ok,
        f"band edge vs acos(1/3): {edge_err:.2e} (tol 1e-9); "
        f"trace at pi/2 vs -2.5: {trace_err:.2e} (tol 1e-12); "
        f"exponent at pi/2 vs ln2/2: {lyap_err:.2e} (tol 1e-10); {elapsed:.2f}s (< 1s)",
    )


def test_criterion_4_open_gap_instances():
    t0 = time.perf_counter()
    missing = []
    for spec, name in ((FULL, "full"), (GOLDEN, "golden-mean")):
        for p in enumerate_periodic_points(spec, 5):
            if p.period < 2:
                continue
            interior = [
                (lo, hi)
                for lo, hi in gaps(band_set(p)).intervals
                if hi > 1e-12 and lo < math.pi - 1e-12 and hi - lo > 1e-9
            ]
            if not interior:
                missing.append((name, p.cycle.letters))
    elapsed = time.perf_counter() - t0
    ok = not missing and elapsed < 30.0
    _report(
        4,
        ok,
        f"every primitive cycle of period 2..5 on both shifts has an interior gap "
        f"(missing: {missing}); {elapsed:.1f}s (< 30s)",
    )


def test_criterion_5_positivity_on_grid():
    t0 = time.perf_counter()
    grid = [k for k in _grid_101() if abs(k - math.pi / 2.0) > 0.02]
    estimates = lyapunov_mc_grid(FULL_UNIFORM, grid, 100_000, 100, SEED)
    elapsed = time.perf_counter() - t0
    stderr_failures = _stderr_violations(estimates)
    margin_failures = _margin_violations(estimates, 0.01)
    ok = not stderr_failures and not margin_failures and elapsed < 600.0
    detail = (
        f"{len(grid)} grid points, n_steps=1e5, n_samples=100: "
        f"{len(stderr_failures)} points fail value > 3*stderr; "
        f"{len(margin_failures)} breaches of value > 0.01 outside rising, equal runs "
        f"from the grid ends (runs of {_end_run(estimates, 0.01)} and "
        f"{_end_run(estimates[::-1], 0.01)} points <= 0.01)"
    )
    if stderr_failures:
        detail += f"; value > 3*stderr broken at: {_listed(stderr_failures)}"
    if margin_failures:
        detail += f"; end-run rule broken at: {_listed(margin_failures)}"
    detail += f"; {elapsed:.0f}s (< 600s single-threaded)"
    _report(5, ok, detail)


def test_criterion_6_half_pi_cancellation():
    t0 = time.perf_counter()
    est = lyapunov_mc(FULL_UNIFORM, math.pi / 2.0, 1_000_000, 100, SEED)
    elapsed = time.perf_counter() - t0
    bound = _zero_bound(est.stderr)
    ok = _consistent_with_zero(est) and elapsed < 60.0
    _report(
        6,
        ok,
        f"|estimate| = {abs(est.value):.2e} < max(2e-3, 3*stderr) = {bound:.2e} "
        f"at k = pi/2, n_steps = 1e6; {elapsed:.0f}s (< 60s)",
    )


def test_criterion_7_candidate_consistency():
    t0 = time.perf_counter()
    epsilon = 0.01
    grid = _grid_101()
    estimates = lyapunov_mc_grid(GOLDEN_HALF, grid, 100_000, 100, SEED + 7)
    candidates = {
        mp: exceptional_candidates(GOLDEN, mp, tol=1e-10) for mp in range(1, 7)
    }
    print("  candidate shrinkage (max_period -> intervals):")
    previous = None
    monotone = True
    for mp in range(1, 7):
        ivs = [(round(lo, 6), round(hi, 6)) for lo, hi in candidates[mp].intervals]
        print(f"    {mp}: {ivs}")
        if previous is not None:
            for lo, hi in candidates[mp].intervals:
                if not any(plo - 1e-9 <= lo and hi <= phi + 1e-9 for plo, phi in previous):
                    monotone = False
        previous = candidates[mp].intervals
    grid_step = grid[1] - grid[0]

    # clause 1: estimates consistent with zero (outside the exclusion
    # windows, where the characterization applies) must lie inside the
    # period-6 candidates
    clause1_failures = _zero_outside_candidates(estimates, candidates[6], grid_step)
    # clause 2: clearly positive estimates must not sit inside candidates
    # computed with max_period >= 4
    clause2_failures = [
        f"k={e.k:.4f}: value {e.value:.3e} > {5.0 * epsilon} but k is inside candidates({mp})"
        for mp in (4, 5, 6)
        for e in estimates
        if e.value > 5.0 * epsilon
        and not in_exclusion_window(e.k)
        and candidates[mp].contains(e.k)
    ]
    elapsed = time.perf_counter() - t0
    ok = not clause1_failures and not clause2_failures and monotone and elapsed < 900.0
    zero_reach = [
        min(e.k, math.pi - e.k)
        for e in estimates
        if _consistent_with_zero(e) and not in_exclusion_window(e.k)
    ]
    detail = (
        f"monotone shrinkage: {monotone}; "
        f"{len(clause1_failures)} of {len(zero_reach)} zero-consistent points outside candidates(6)"
        + (f" (they reach {max(zero_reach):.4f} from 0 or pi)" if zero_reach else "")
        + f"; {len(clause2_failures)} positive-exponent points inside candidates(>=4)"
    )
    if clause1_failures:
        detail += f"; clause 1 broken at: {_listed(clause1_failures)}"
    if clause2_failures:
        detail += f"; clause 2 broken at: {_listed(clause2_failures)}"
    detail += f"; {elapsed:.0f}s (< 900s)"
    _report(7, ok, detail)


def test_criterion_8_branch_invariance():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 8)
    matrices_ok = True
    for _ in range(200):
        k = rng.uniform(0.01, math.pi - 0.01)
        k2 = math.acos(math.cos(k))
        for prev, cur in ((1, 1), (1, 2), (2, 1), (2, 2)):
            if a_matrix(k, prev, cur) != a_matrix(k2, prev, cur):
                matrices_ok = False
    mc_ok = True
    for k in (0.31, 1.1, 2.4):
        k2 = math.acos(math.cos(k))
        a = lyapunov_mc(FULL_UNIFORM, k, 2000, 4, SEED)
        b = lyapunov_mc(FULL_UNIFORM, k2, 2000, 4, SEED)
        if a.value != b.value or a.stderr != b.stderr:
            mc_ok = False
    elapsed = time.perf_counter() - t0
    ok = matrices_ok and mc_ok and elapsed < 1.0
    _report(
        8,
        ok,
        f"a_matrix bit-identical at k and acos(cos k): {matrices_ok}; "
        f"estimator bit-identical: {mc_ok}; {elapsed:.2f}s (< 1s)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    import json

    config_payload = {
        "subshift": {"alphabet_size": 2, "forbidden": [[2, 2]]},
        "markov": {"transition": [[0.5, 0.5], [1.0, 0.0]]},
        "grid": {"count": 7, "k_min": 0.3, "k_max": 2.8},
        "mc": {"n_steps": 2000, "n_samples": 4, "seed": 17},
        "bands": {"grid_points": 301, "tol": 1e-10, "max_period": 3},
        "epsilon": 0.01,
        "exclusion_halfwidth": 0.02,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_payload))
    config = load_config(str(path))
    mismatches = []
    for name in ("periodic", "bands", "lyapunov", "zeroset", "candidates", "kalinin", "verify-graph"):
        kwargs = {}
        if name in ("kalinin", "verify-graph"):
            kwargs["k"] = 0.9
        if name == "verify-graph":
            kwargs["seed"] = 5
        first = run_subcommand(name, config, **kwargs).to_csv()
        second = run_subcommand(name, config, **kwargs).to_csv()
        if first.encode() != second.encode():
            mismatches.append(name)
    ok = not mismatches
    _report(9, ok, f"all subcommands byte-identical across reruns (mismatches: {mismatches})")


# ------------------------------------------- clause helpers, synthetic data

# a profile shaped like criterion 5's: runs of 3 points <= 0.01 at both ends
_PROFILE = [2e-4, 4e-3, 9e-3, 0.03, 0.05, 0.03, 9e-3, 4e-3, 2e-4]


def _synthetic(values, stderr=1e-5):
    ks = np.linspace(0.05, math.pi - 0.05, len(values))
    return [LyapunovEstimate(float(k), v, stderr, 100_000, 100, SEED) for k, v in zip(ks, values)]


def _planted(index, value):
    values = list(_PROFILE)
    values[index] = value
    return _synthetic(values)


def test_margin_rule_accepts_rising_equal_end_runs():
    assert _stderr_violations(_synthetic(_PROFILE)) == []
    assert _margin_violations(_synthetic(_PROFILE)) == []


def test_margin_rule_rejects_interior_zero():
    failures = _margin_violations(_planted(4, 0.0))
    assert len(failures) == 1 and "away from the grid ends" in failures[0]
    assert failures[0].startswith("k=1.5708")
    # the 3*stderr clause flags the same point
    assert len(_stderr_violations(_planted(4, 0.0))) == 1


def test_margin_rule_rejects_zero_past_first_point():
    failures = _margin_violations(_planted(1, 0.0))
    assert len(failures) == 1 and "does not exceed" in failures[0]
    # a zero-level estimate just past the run extends it, and breaks the rise
    failures = _margin_violations(_planted(3, 0.0))
    assert len(failures) == 2
    assert "does not exceed" in failures[0] and "unequal lengths 4" in failures[1]


def test_margin_rule_rejects_run_not_rising_from_end():
    # the second point rises by less than 3 combined stderr (3 * sqrt(2) * 1e-5)
    failures = _margin_violations(_planted(7, 2e-4 + 4e-5))
    assert len(failures) == 1
    assert "does not exceed" in failures[0] and "3 combined stderr" in failures[0]


def test_margin_rule_rejects_unequal_end_runs():
    failures = _margin_violations(_planted(6, 0.02))
    assert failures == [
        "runs <= 0.01 from the grid ends have unequal lengths 3 (k -> 0) and 2 (k -> pi), "
        "but L(pi - k) = L(k)"
    ]


def test_margin_rule_rejects_all_points_below_margin():
    assert _margin_violations(_synthetic([1e-3, 2e-3, 1e-3]))


def test_zero_bound_floor_and_stderr_scaling():
    assert _zero_bound(1e-4) == 2e-3
    assert _zero_bound(1e-3) == pytest.approx(3e-3)
    assert _consistent_with_zero(_synthetic([1.9e-3])[0])
    assert not _consistent_with_zero(_synthetic([2.1e-3])[0])


def test_candidate_rule_applies_to_zero_consistent_points_only():
    candidates = BandSet(((0.0, 0.448), (2.694, math.pi)), 0.0)
    slack = 0.0304

    def est(k, value, stderr):
        return LyapunovEstimate(k, value, stderr, 100_000, 100, SEED)

    allowed = [
        est(0.2933, 1.75e-3, 1.3e-5),  # zero-consistent, inside the candidates
        est(0.5062, 5.78e-3, 2.5e-5),  # 200 stderr above zero, outside: out of scope
        est(math.pi / 2.0, 1.6e-3, 1.2e-4),  # zero-consistent, in the exclusion window
        est(0.47, 1e-3, 1e-5),  # outside the candidates, within the slack
    ]
    assert _zero_outside_candidates(allowed, candidates, slack) == []
    planted = est(1.0, 1e-4, 1e-4)
    failures = _zero_outside_candidates(allowed + [planted], candidates, slack)
    assert len(failures) == 1 and failures[0].startswith("k=1.0000")
    assert "outside the candidates" in failures[0]
