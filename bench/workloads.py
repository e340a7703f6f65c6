"""Benchmark workloads: the JSON configs each one uses and the stream of CLI
operations it sends, derived from the workload seed.

Every Monte-Carlo input (MC seed, and the energy of ``kalinin``) is drawn by
the workload seed from a pool recorded in ``reference.json``, so that each
op's output can be checked against values recorded at the seed commit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("mc_scan", "mc_path", "spectra_scan", "cli_light")

BAND_GRID_POINTS = 2001
BAND_TOL = 1e-10

MC_SCAN_GRID = {"count": 101, "k_min": 0.05, "k_max": math.pi - 0.05}
MC_SCAN_STEPS, MC_SCAN_SAMPLES = 10_000, 100
MC_PATH_STEPS, MC_PATH_SAMPLES, MC_PATH_MAX_PERIOD = 100_000, 100, 6

# Shifts by name: (alphabet size, forbidden words, transition matrix).
SHIFTS = {
    "full": (2, [], [[0.5, 0.5], [0.5, 0.5]]),
    "golden": (2, [[2, 2]], [[0.5, 0.5], [1.0, 0.0]]),
    "three": (3, [[2, 2], [3, 1]], [[1 / 3, 1 / 3, 1 / 3], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]),
}

# (subcommand, shift, max_period) of one spectra_scan cycle.
SPECTRA_OPS = (
    ("periodic", "full", 14),
    ("periodic", "golden", 16),
    ("periodic", "three", 10),
    ("bands", "full", 6),
    ("bands", "golden", 8),
    ("bands", "three", 5),
    ("candidates", "golden", 8),
)


def make_config(shift: str, *, mc_seed: int = 0, n_steps: int = 1000, n_samples: int = 2,
                max_period: int = 1, grid: dict | None = None) -> dict:
    size, forbidden, transition = SHIFTS[shift]
    return {
        "subshift": {"alphabet_size": size, "forbidden": forbidden},
        "markov": {"transition": transition},
        "grid": grid or {"count": 1, "k_min": 1.0, "k_max": 1.0},
        "mc": {"n_steps": n_steps, "n_samples": n_samples, "seed": mc_seed},
        "bands": {"grid_points": BAND_GRID_POINTS, "tol": BAND_TOL, "max_period": max_period},
        "epsilon": 0.01,
        "exclusion_halfwidth": 0.02,
    }


def mc_scan_config(mc_seed: int) -> dict:
    return make_config("golden", mc_seed=mc_seed, n_steps=MC_SCAN_STEPS,
                       n_samples=MC_SCAN_SAMPLES, grid=MC_SCAN_GRID)


def mc_path_config(mc_seed: int) -> dict:
    return make_config("full", mc_seed=mc_seed, n_steps=MC_PATH_STEPS,
                       n_samples=MC_PATH_SAMPLES, max_period=MC_PATH_MAX_PERIOD)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``sftlab <subcommand> --config <config> <args>``.

    ``work`` is the op's share of the workload's throughput unit, and
    ``ref`` indexes its recorded reference output, if any."""

    subcommand: str
    config: str
    args: tuple[str, ...]
    work: int
    shift: str
    max_period: int | None = None
    k: str | None = None
    seed: int | None = None
    ref: int | None = None

    @property
    def kind(self) -> tuple:
        """Ops of one kind do the same amount of work."""
        return self.subcommand, self.shift, self.max_period


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    configs: dict[str, dict]
    cycle: int  # a run ends only after a whole number of this many ops
    pool: tuple = ()  # recorded MC inputs and outputs the ops draw from

    def ops(self, seed: int):
        """Endless op stream; the same seed gives the same stream."""
        return _STREAMS[self.name](random.Random(f"{self.name}:{seed}"), self)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def periodic_counts(shift: str, max_period: int) -> list[int]:
    """Primitive periodic orbits of each period n <= max_period, from the
    trace formula sum_{d | n} mobius(n / d) tr(A^d) / n, in exact integers."""
    size, forbidden, _ = SHIFTS[shift]
    a = [[0 if [i + 1, j + 1] in forbidden else 1 for j in range(size)] for i in range(size)]
    traces, power = [], [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(max_period):
        power = [[sum(power[i][m] * a[m][j] for m in range(size)) for j in range(size)]
                 for i in range(size)]
        traces.append(sum(power[i][i] for i in range(size)))
    return [sum(_mobius(n // d) * traces[d - 1] for d in range(1, n + 1) if n % d == 0) // n
            for n in range(1, max_period + 1)]


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def workload(name: str, reference: dict) -> Workload:
    if name == "mc_scan":
        pool = tuple(reference["mc_scan"])
        configs = {f"mc_scan_{e['seed']}": mc_scan_config(e["seed"]) for e in pool}
        return Workload(name, "lane-steps", configs, 1, pool)
    if name == "mc_path":
        pool = tuple(reference["mc_path"])
        configs = {f"mc_path_{e['seed']}": mc_path_config(e["seed"]) for e in pool}
        return Workload(name, "lane-steps", configs, 1, pool)
    if name == "spectra_scan":
        return Workload(name, "points", {s: make_config(s) for s in SHIFTS}, len(SPECTRA_OPS))
    if name == "cli_light":
        return Workload(name, "ops", {"three": make_config("three")}, 1)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def _mc_scan(rng, w):
    work = MC_SCAN_GRID["count"] * MC_SCAN_SAMPLES * MC_SCAN_STEPS
    while True:
        i = rng.randrange(len(w.pool))
        seed = w.pool[i]["seed"]
        yield Op("lyapunov", f"mc_scan_{seed}", (), work, "golden", seed=seed, ref=i)


def _mc_path(rng, w):
    while True:
        i = rng.randrange(len(w.pool))
        e = w.pool[i]
        yield Op("kalinin", f"mc_path_{e['seed']}", ("--k", e["k"]), MC_PATH_SAMPLES * MC_PATH_STEPS,
                 "full", max_period=MC_PATH_MAX_PERIOD, k=e["k"], seed=e["seed"], ref=i)


def _spectra_scan(rng, w):
    while True:
        cycle = list(SPECTRA_OPS)
        rng.shuffle(cycle)
        for sub, shift, mp in cycle:
            work = 0 if sub == "periodic" else sum(periodic_counts(shift, mp))
            yield Op(sub, shift, ("--max-period", str(mp)), work, shift, max_period=mp)


def _cli_light(rng, w):
    while True:
        k = rng.uniform(0.0, math.pi)
        if abs(math.sin(k)) <= 1e-12:
            continue
        seed = rng.randrange(2**31)
        yield Op("verify-graph", "three", ("--k", repr(k), "--seed", str(seed)), 1, "three",
                 k=repr(k), seed=seed)


_STREAMS = {"mc_scan": _mc_scan, "mc_path": _mc_path, "spectra_scan": _spectra_scan,
            "cli_light": _cli_light}
