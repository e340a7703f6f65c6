"""sftlab benchmark: one closed-loop client drives the CLI in-process.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Ops of the workload run one at a time through ``sftlab.cli.main``, each
writing its CSV to a file in a scratch directory inside the checkout, and
every op's output is checked.  With ``--trace 0`` the last line of stdout is
a JSON object with the end-to-end metrics; with ``--trace 1`` every op is
also replayed through the layers' public functions with a span around each
call, and the JSON carries the per-layer metrics.  The lines before it are a
human-readable report and the environment record.

The package is imported from ``src/`` of this checkout, never from an
installed copy; BLAS threads are pinned to 1.  See ``bench/NOTES.md`` for the
workloads and metrics.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

import checks
import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
TAIL_PERCENTILE = 90.0
MIN_BEYOND_TAIL = 10
HOST_SAMPLE_EVERY_S = 0.25  # op time between two host-speed samples
HOST_SAMPLE_RUNS = 5  # at most this many kernel runs in one sample
HOST_NEARBY = 3  # an op is rescaled by this many samples on either side

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_norm_s": "s",
    "ok_ops_ratio": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass(slots=True)
class OpResult:
    kind: tuple
    nominal_work: int
    latency: float
    code: object
    problems: tuple = ()
    spurious: tuple = ()

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems) or bool(self.spurious)

    @property
    def unexpected(self) -> bool:
        """A failure other than the recorded spurious-gap defect."""
        return (self.code != 0 or bool(self.problems)
                or any((s[0], s[1]) not in checks.KNOWN_SPURIOUS for s in self.spurious))


class Tally:
    """Streaming aggregates of a run: a float and two small ints per op plus a
    few values per op kind, so that the run's own memory does not grow into
    peak_rss_mb."""

    def __init__(self):
        self.latencies = array("d")
        self.kind_ids: dict = {}  # kind -> small int
        self.op_kind = array("i")  # per op: its kind's id
        self.op_group = array("i")  # per op: how many host samples came before it
        self.host = array("d")  # host-speed samples, see hostspeed.py
        self.work = 0
        self.work_time = 0.0  # time of the ops that carry work units
        self.failed = 0
        self.unexpected = False
        self.problems: set = set()
        self.spurious: set = set()
        self.spurious_count = 0

    def sample_host(self, op_time: float):
        """One host-speed sample: the median of one kernel run per second of
        op time since the last sample (at least one, at most HOST_SAMPLE_RUNS)."""
        runs = int(min(HOST_SAMPLE_RUNS, 1 + op_time))
        self.host.append(statistics.median(hostspeed.sample() for _ in range(runs)))

    def add(self, r: OpResult):
        self.latencies.append(r.latency)
        self.op_kind.append(self.kind_ids.setdefault(r.kind, len(self.kind_ids)))
        self.op_group.append(len(self.host))
        self.work += r.nominal_work if r.code == 0 else 0
        self.work_time += r.latency if r.nominal_work else 0.0
        self.failed += r.failed
        self.unexpected |= r.unexpected
        if len(self.problems) < 20:
            self.problems.update(r.problems)
            if r.code != 0:
                self.problems.add(f"exit code {r.code}")
        self.spurious.update(r.spurious)
        self.spurious_count += len(r.spurious)

    def per_kind(self, scaled: bool = False) -> list[list[float]]:
        """Latencies grouped by op kind.  Scaled, each is multiplied by
        hostspeed.REFERENCE_S over the median of the HOST_NEARBY host samples
        before it and the HOST_NEARBY after it."""
        out = [[] for _ in self.kind_ids]
        for latency, k, g in zip(self.latencies, self.op_kind, self.op_group):
            if scaled:
                latency *= hostspeed.REFERENCE_S / statistics.median(
                    self.host[max(0, g - HOST_NEARBY):g + HOST_NEARBY])
            out[k].append(latency)
        return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "sftlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if (s := _git("status", "--porcelain", "--untracked-files=no")) is None else s != "",
        "src_sha256": digest.hexdigest(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "client": "closed loop, 1 client, in-process, no worker threads or processes",
    }


def _git(*args):
    """Output of a git command in the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_setup(name: str, workdir: Path) -> list[float]:
    """Wall times from spawning a fresh interpreter until it reports ready."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_RUNS):
        out_dir = workdir / f"setup{i}"
        out_dir.mkdir()
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(out_dir), name]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def tail_latency(latencies) -> tuple[float, float]:
    """(percentile, latency): p90 when at least ten ops lie beyond it, else
    the maximum (p100).  On a 2-CPU Xeon VM, higher percentiles of cli_light
    spread by 9-20 % between runs, where p90 spread by 2 %."""
    xs = sorted(latencies)
    n = len(xs)
    if n * (100.0 - TAIL_PERCENTILE) / 100.0 >= MIN_BEYOND_TAIL:
        return TAIL_PERCENTILE, xs[math.ceil(TAIL_PERCENTILE / 100.0 * n) - 1]
    return 100.0, xs[-1]


class Runner:
    def __init__(self, cli, checks, workload, workdir: Path):
        import sftlab

        self.cli, self.checks, self.w, self.workdir = cli, checks, workload, workdir
        self.kinds: dict = {}
        self.caches = {id(f): f for m in vars(sftlab).values() if type(m).__name__ == "module"
                       for f in vars(m).values() if hasattr(f, "cache_clear")}.values()

    def cold(self):
        """Every CLI invocation starts with empty lru caches."""
        for f in self.caches:
            f.cache_clear()

    def run_op(self, op, out: Path) -> OpResult:
        argv = [op.subcommand, "--config", str(self.workdir / f"{op.config}.json"), "--output", str(out), *op.args]
        out.unlink(missing_ok=True)
        self.cold()
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash in the program is a failed op, not the end of the run
            traceback.print_exc()
            code = "exception"
        latency = time.perf_counter() - t0
        kind = self.kinds.setdefault(op.kind, op.kind)
        result = OpResult(kind, op.work, latency, code)
        if code == 0:
            problems, spurious = self.checks.check(op, out.read_text(encoding="utf-8"), self.w.pool)
            result.problems, result.spurious = tuple(problems), tuple(spurious)
        return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if not (SRC / "sftlab" / "__init__.py").is_file():
        print(f"error: no sftlab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sftlab
    from sftlab import cli

    if Path(sftlab.__file__).resolve().parent != SRC / "sftlab":
        print(f"error: imported sftlab from {sftlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import replay
    from setup_probe import prepare

    workdir = Path(tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT))
    try:
        setup_times = measure_setup(args.workload, workdir)
        w = prepare(args.workload, str(workdir))
        print(f"# sftlab benchmark: workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print(f"# env {json.dumps(environment(), sort_keys=True)}")
        tally, layers = run_loop(Runner(cli, checks, w, workdir), replay, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_failures(tally, w.cycle)
    if args.trace:
        metrics = {k: {"value": v, "unit": replay.LAYER_UNITS[k]} for k, v in layers.items()}
        for k, m in metrics.items():
            print(f"{k:48s} {m['value']:<14.6g} {m['unit']}")
    else:
        metrics = end_to_end(tally, setup_times, w)
    n = len(tally.latencies)
    print(json.dumps({"correct": not tally.unexpected, "attempted": n, "failed": tally.failed, "metrics": metrics}))
    return 0


def run_loop(runner: Runner, replay, args, workdir: Path):
    """Closed loop: the next op starts when the last one is checked.  The loop
    stops at the first whole cycle boundary after ``--seconds``."""
    w = runner.w
    stream = w.ops(args.seed)
    tally = Tally()
    layers = replay.LayerTally() if args.trace else None
    untraced, traced = workdir / "op.csv", workdir / "replay.csv"
    mismatches = 0
    # The run's first op once more, untimed: the first large numpy allocations
    # of a process page-fault, which made the first op up to 40 % slower.
    runner.run_op(next(w.ops(args.seed)), untraced)
    t_start = time.perf_counter()
    since_sample = math.inf  # a sample before the first op
    while len(tally.latencies) % w.cycle or time.perf_counter() - t_start < args.seconds:
        if since_sample >= HOST_SAMPLE_EVERY_S:
            tally.sample_host(since_sample)
            since_sample = 0.0
        op = next(stream)
        result = runner.run_op(op, untraced)
        if layers is not None and result.code == 0:
            runner.cold()
            layers.add(result.kind, result.latency, replay.replay(op, str(workdir / f"{op.config}.json"), str(traced)))
            if traced.read_bytes() != untraced.read_bytes():
                result.problems += (f"traced replay of {op.subcommand} {' '.join(op.args)} wrote different bytes",)
                mismatches += 1
        tally.add(result)
        since_sample += result.latency
    tally.sample_host(since_sample)
    if layers is None:
        return tally, {}
    n = len(tally.latencies)
    metrics = layers.metrics(n // w.cycle, tally.spurious_count * w.cycle / n)
    print(f"# traced replay: {n} ops, {mismatches} with different bytes; tracing overhead "
          f"(best replay minus best untraced op, mean over the op mix) {metrics['trace.overhead_s']:.6g} s")
    return tally, metrics


def end_to_end(tally: Tally, setup_times, w) -> dict:
    """The gated metrics, then the ones printed but not gated.  Raw op times
    drift with the speed of the shared host by more than any bound can allow
    (see bench/NOTES.md), so the gated op time is rescaled by the host-speed
    probe of hostspeed.py."""
    lat = tally.latencies
    n = len(lat)
    q, tail = tail_latency(lat)
    kinds = len(tally.kind_ids)
    p50_norm = statistics.geometric_mean([statistics.median(v) for v in tally.per_kind(scaled=True)])
    work_name = {"lane-steps": "lane_steps_per_s", "points": "points_per_s", "ops": "ops_per_s"}[w.work_unit]
    gated = [
        ("setup_s", statistics.median(setup_times),
         f"median of {len(setup_times)} fresh interpreters: import sftlab.cli, write and validate configs"),
        ("op_p50_norm_s", p50_norm,
         f"median op latency x {hostspeed.REFERENCE_S:g} s / median of the {2 * HOST_NEARBY} host-speed "
         f"samples around the op; geometric mean over {kinds} op kind{'s' * (kinds > 1)}"),
        ("ok_ops_ratio", (n - tally.failed) / n, "1 - failed_ops_ratio"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "peak resident memory of the benchmark process"),
    ]
    ungated = [
        ("op_p50_s", statistics.median(lat), "s", f"median of {n} ops, wall time as measured"),
        ("op_tail_s", tail, "s", f"p{q:g} of {n} ops" + ("" if q < 100 else " (fewer than 100 ops: the maximum)")),
        ("op_best_s", statistics.fmean(min(v) for v in tally.per_kind()), "s",
         f"fastest op of each of {kinds} op kinds, mean over the op mix"),
        (work_name, tally.work / tally.work_time, f"{w.work_unit}/s",
         "per second of the time of the ops that carry this work, ops that exited 0"),
        ("failed_ops_ratio", tally.failed / n, "ratio", f"{tally.failed}/{n} ops failed an exit code or output check"),
        ("host_probe_s", statistics.median(tally.host), "s",
         f"median of {len(tally.host)} host-speed samples (bench/hostspeed.py)"),
    ]
    for k, v, note in gated:
        print(f"{k:18s} {v:<14.6g} {END_TO_END_UNITS[k]:13s} {note}")
    print("# not gated: raw op times follow the shared host's speed, which drifts by 20-100 % over minutes;"
          " op_tail_s of a run with few ops is its slowest op and spread up to 0.43; failed_ops_ratio is"
          " 0 on most workloads, so ok_ops_ratio carries it (see bench/NOTES.md)")
    for k, v, unit, note in ungated:
        print(f"{k:18s} {v:<14.6g} {unit:13s} {note}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v, _ in gated}


def report_failures(tally: Tally, cycle: int):
    if tally.spurious:
        per_cycle = tally.spurious_count * cycle / len(tally.latencies)
        print(f"# spurious gaps (midpoint |trace| <= 2), {per_cycle:g} per cycle:")
        for shift, name, lo, hi in sorted(tally.spurious):
            print(f"#   {shift} ({name}): [{lo!r}, {hi!r}]")
    for p in sorted(tally.problems):
        print(f"# failed check: {p}")


if __name__ == "__main__":
    sys.exit(main())
