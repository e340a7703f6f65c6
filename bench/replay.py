"""Traced replay of one CLI op: the same work, done by calling each layer's
public functions directly, with a span around every call.

Two calls happen inside other layers and cannot be wrapped from outside:
``measure.stationary_markov`` inside ``cli.load_config``, and
``spectra.monodromy_trace`` inside ``spectra.band_set``.  While a replay
runs, the name each caller looks up is replaced by a wrapper that records a
span (``stationary_markov``) or counts calls (``monodromy_trace``), and the
original is put back afterwards.  The sampler/product split inside
``lyapunov_mc`` lives in private helpers and is not measured here.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from sftlab import cli, cocycle, graph_model, lyapunov, measure, sft, spectra


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None  # index of the enclosing span of the same op
    start: float
    end: float = 0.0
    work: int = 0
    probe: bool = False  # extra measurement, not part of the op's work
    key: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """The spans of one op, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    trace_evals: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, work: int = 0, probe: bool = False, key: tuple = ()):
        s = Span(name, self._stack[-1] if self._stack else None, 0.0, work=work, probe=probe, key=key)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()


@contextmanager
def _inner_probes(tracer: Tracer):
    stationary_markov, monodromy_trace = cli.stationary_markov, spectra.monodromy_trace

    def traced_stationary_markov(*args):
        with tracer.span("measure.stationary_markov"):
            return stationary_markov(*args)

    def counted_monodromy_trace(*args):
        tracer.trace_evals += 1
        return monodromy_trace(*args)

    cli.stationary_markov, spectra.monodromy_trace = traced_stationary_markov, counted_monodromy_trace
    try:
        yield
    finally:
        cli.stationary_markov, spectra.monodromy_trace = stationary_markov, monodromy_trace


def _cycle_str(p) -> str:
    return ",".join(str(a) for a in p.cycle.letters)


def _enumerate(tracer, spec, max_period):
    with tracer.span("sft.enumerate_periodic_points") as s:
        points = sft.enumerate_periodic_points(spec, max_period)
        s.work = len(points)
    return points


def _band_sets(tracer, config, points):
    out = []
    for p in points:
        with tracer.span("spectra.band_set", key=(config.spec, p.cycle.letters)) as s:
            b = spectra.band_set(p, config.bands.grid_points, config.bands.tol)
            s.work = len(b.intervals)
        out.append(b)
    return out


def _table(tracer, op, config) -> cli.ResultTable:
    """Mirror of ``cli.run_subcommand`` for the subcommands the benchmark sends."""
    mp = op.max_period if op.max_period is not None else config.bands.max_period
    k = float(op.k) if op.k is not None else None
    if op.subcommand == "periodic":
        points = _enumerate(tracer, config.spec, mp)
        return cli.ResultTable("periodic", ("period", "cycle"), [(p.period, _cycle_str(p)) for p in points])
    if op.subcommand == "bands":
        points = _enumerate(tracer, config.spec, mp)
        rows = [(p.period, _cycle_str(p), i, lo, hi)
                for p, b in zip(points, _band_sets(tracer, config, points))
                for i, (lo, hi) in enumerate(b.intervals)]
        return cli.ResultTable("bands", ("period", "cycle", "band_index", "k_lo", "k_hi"), rows)
    if op.subcommand == "candidates":
        bands = _band_sets(tracer, config, _enumerate(tracer, config.spec, mp))
        with tracer.span("spectra.intersect"):
            cand = spectra.intersect(bands)
        return cli.ResultTable("candidates", ("interval_index", "k_lo", "k_hi"),
                               [(i, lo, hi) for i, (lo, hi) in enumerate(cand.intervals)])
    if op.subcommand == "lyapunov":
        mc, ks = config.mc, config.grid.points()
        with tracer.span("lyapunov.lyapunov_mc_grid", work=len(ks) * mc.n_samples * mc.n_steps):
            estimates = lyapunov.lyapunov_mc_grid(config.measure, ks, mc.n_steps, mc.n_samples, mc.seed)
        rows = [(e.k, e.value, e.stderr, e.n_steps, e.n_samples, e.seed) for e in estimates]
        return cli.ResultTable("lyapunov", ("k", "value", "stderr", "n_steps", "n_samples", "seed"), rows)
    if op.subcommand == "kalinin":
        mc = config.mc
        with tracer.span("lyapunov.lyapunov_mc", work=mc.n_samples * mc.n_steps):
            est = lyapunov.lyapunov_mc(config.measure, k, mc.n_steps, mc.n_samples, mc.seed)
        points = _enumerate(tracer, config.spec, mp)
        rows = []
        for budget in range(1, mp + 1):
            exponents = []
            for p in points:
                if p.period <= budget:
                    with tracer.span("lyapunov.lyapunov_periodic"):
                        exponents.append(lyapunov.lyapunov_periodic(p, k))
            rows.append((budget, min(abs(x - est.value) for x in exponents)))
        return cli.ResultTable("kalinin", ("max_period", "gap"), rows)
    if op.subcommand == "verify-graph":
        first, last = cli.VERIFY_GRAPH_WINDOW
        u0, um1 = cli.VERIFY_GRAPH_DATA
        with tracer.span("measure.sample_window", work=last - first + 1):
            word = measure.sample_window(config.measure, first, last, op.seed)
        with tracer.span("cocycle.solve_difference", work=word.last_index + 1):
            values = cocycle.solve_difference(k, word, u0, um1)
        with tracer.span("graph_model.kirchhoff_residual", work=len(word) - 1):
            residuals = graph_model.kirchhoff_residual(graph_model.VertexData(word, tuple(values)), k)
        # cocycle_product is on no CLI path; it is timed on the same window as
        # the one-lane case of the renormalized product.
        with tracer.span("cocycle.cocycle_product", work=word.last_index + 1, probe=True):
            cocycle.cocycle_product(k, word)
        return cli.ResultTable("verify-graph", ("vertex", "residual"),
                               [(first + 1 + i, r) for i, r in enumerate(residuals)])
    raise ValueError(f"no replay for subcommand {op.subcommand!r}")


@dataclass
class Replay:
    tracer: Tracer
    wall: float  # the replay's time without probe spans
    top: float  # summed top-level, non-probe span time


def replay(op, config_path: str, output_path: str) -> Replay:
    """Replay one op, writing its CSV to ``output_path``."""
    tracer = Tracer()
    t0 = time.perf_counter()
    with _inner_probes(tracer):
        with tracer.span("cli.load_config"):
            config = cli.load_config(config_path)
        table = _table(tracer, op, config)
        with tracer.span("cli.serialize"):
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(table.to_csv())
    wall = time.perf_counter() - t0
    probes = sum(s.duration for s in tracer.spans if s.probe)
    top = sum(s.duration for s in tracer.spans if s.parent is None and not s.probe)
    return Replay(tracer, wall - probes, top)


LAYER_UNITS = {
    "lyapunov.mc_grid_s": "s",
    "lyapunov.lane_steps_per_s": "lane-steps/s",
    "lyapunov.mc_s": "s",
    "lyapunov.periodic_s": "s",
    "measure.sample_window_letters_per_s": "letters/s",
    "measure.stationary_markov_s": "s",
    "cocycle.solve_difference_steps_per_s": "steps/s",
    "cocycle.product_steps_per_s": "steps/s",
    "spectra.band_set_s": "s",
    "spectra.band_set_point_p50_s": "s",
    "spectra.band_set_point_max_s": "s",
    "spectra.monodromy_trace_evals_per_s": "evals/s",
    "spectra.intersect_s": "s",
    "spectra.points": "count",
    "spectra.bands": "count",
    "spectra.spurious_gaps": "count",
    "sft.enumerate_s": "s",
    "sft.points_per_s": "points/s",
    "graph_model.kirchhoff_residual_vertices_per_s": "vertices/s",
    "graph_model.verify_s": "s",
    "cli.load_config_s": "s",
    "cli.serialize_s": "s",
    "cli.main_overhead_s": "s",
    "trace.overhead_s": "s",
}


class LayerTally:
    """Per op kind, the best value of each per-op layer measurement.  A
    layer's busy time in one op is the summed duration of its spans there."""

    def __init__(self):
        self.busy: dict = {}  # (kind, span name) -> best busy time
        self.work: dict = {}  # (kind, span name) -> work of one op (the same for every op of a kind)
        self.point: dict = {}  # band_set key -> fastest call
        self.best: dict = {}  # (kind, "main" | "top" | "wall") -> best time
        self.evals: dict = {}  # kind -> monodromy_trace calls of one op
        self.points = 0
        self.bands = 0

    def _min(self, table, key, value):
        table[key] = min(value, table.get(key, value))

    def add(self, kind, main_latency: float, r: Replay):
        busy: dict = {}
        work: dict = {}
        for s in r.tracer.spans:
            busy[s.name] = busy.get(s.name, 0.0) + s.duration
            work[s.name] = work.get(s.name, 0) + s.work
            if s.name == "spectra.band_set":
                self._min(self.point, s.key, s.duration)
                self.points += 1
                self.bands += s.work
        for name, t in busy.items():
            self._min(self.busy, (kind, name), t)
            self.work[kind, name] = work[name]
        self._min(self.best, (kind, "main"), main_latency)
        self._min(self.best, (kind, "top"), r.top)
        self._min(self.best, (kind, "wall"), r.wall)
        self.evals[kind] = r.tracer.trace_evals

    def metrics(self, cycles: int, spurious_per_cycle: float) -> dict[str, float]:
        """``*_s`` times are means over the op mix of each kind's best; rates
        divide the work of one op of each kind by those best times."""
        kinds = list(self.evals)

        def seconds(name):
            return statistics.fmean(self.busy.get((k, name), 0.0) for k in kinds)

        def rate(*names):
            t = sum(self.busy.get((k, n), 0.0) for k in kinds for n in names)
            work = sum(self.work.get((k, n), 0) for k in kinds for n in names)
            return work / t if t > 0 else 0.0

        def overhead(a, b):
            return statistics.fmean(self.best[k, a] - self.best[k, b] for k in kinds)

        per_point = sorted(self.point.values())
        band_busy = sum(self.busy.get((k, "spectra.band_set"), 0.0) for k in kinds)
        return {
            "lyapunov.mc_grid_s": seconds("lyapunov.lyapunov_mc_grid"),
            "lyapunov.lane_steps_per_s": rate("lyapunov.lyapunov_mc_grid", "lyapunov.lyapunov_mc"),
            "lyapunov.mc_s": seconds("lyapunov.lyapunov_mc"),
            "lyapunov.periodic_s": seconds("lyapunov.lyapunov_periodic"),
            "measure.sample_window_letters_per_s": rate("measure.sample_window"),
            "measure.stationary_markov_s": seconds("measure.stationary_markov"),
            "cocycle.solve_difference_steps_per_s": rate("cocycle.solve_difference"),
            "cocycle.product_steps_per_s": rate("cocycle.cocycle_product"),
            "spectra.band_set_s": seconds("spectra.band_set"),
            "spectra.band_set_point_p50_s": statistics.median(per_point) if per_point else 0.0,
            "spectra.band_set_point_max_s": max(per_point, default=0.0),
            "spectra.monodromy_trace_evals_per_s": sum(self.evals.values()) / band_busy if band_busy > 0 else 0.0,
            "spectra.intersect_s": seconds("spectra.intersect"),
            "spectra.points": self.points / cycles,
            "spectra.bands": self.bands / cycles,
            "spectra.spurious_gaps": spurious_per_cycle,
            "sft.enumerate_s": seconds("sft.enumerate_periodic_points"),
            "sft.points_per_s": rate("sft.enumerate_periodic_points"),
            "graph_model.kirchhoff_residual_vertices_per_s": rate("graph_model.kirchhoff_residual"),
            "graph_model.verify_s": seconds("graph_model.kirchhoff_residual"),
            "cli.load_config_s": seconds("cli.load_config"),
            "cli.serialize_s": seconds("cli.serialize"),
            "cli.main_overhead_s": overhead("main", "top"),
            "trace.overhead_s": overhead("wall", "main"),
        }
