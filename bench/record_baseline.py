"""Record the benchmark's baseline: sets of untraced runs and one traced run
per workload, with every printed metric and its run-to-run spread.

Usage:
    python3 bench/record_baseline.py [--seconds 22] [--sets 201-210,401-410]
                                     [--traced-seed 301] [--workloads a,b]

Run it from the root of a checkout.  Each set runs every workload once per
seed, a workload's runs one after another, with ``--trace 0``; then each
workload runs once with ``--trace 1``.  The result goes to
``bench/baseline.json``: per metric the runs' values, their median, first
and third quartile (``statistics.quantiles``, n=4) and spread =
(q3 - q1) / median; ``gated`` marks the metrics listed in BENCHMARK.json.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRIC_LINE = re.compile(r"^([A-Za-z][A-Za-z0-9_.]*)\s+(\S+)\s+(\S+)")


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        if m := METRIC_LINE.match(line):
            try:
                printed[m.group(1)] = (float(m.group(2)), m.group(3))
            except ValueError:
                pass
    printed.update((k, (m["value"], m["unit"])) for k, m in result["metrics"].items())  # full digits
    result["printed"] = printed
    result["report"] = [ln for ln in lines[:-1] if ln.startswith("# traced replay")]
    result["env"] = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), None)
    return result


def summarize(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    median = statistics.median(runs)
    return {"runs": runs, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--sets", default="201-210,401-410")
    p.add_argument("--traced-seed", type=int, default=301)
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or str(bench["run_seconds"])
    gated = {m["name"] for m in bench["end_to_end"]}
    names = args.workloads.split(",")
    out = {"note": "", "sets": {}, "traced": {}, "env": None}
    for spec in args.sets.split(","):
        per_workload = {}
        for w in names:
            results = [run(w, s, seconds, 0) for s in seeds(spec)]
            for r in results:
                print(f"{w} {r['printed']['op_p50_norm_s'][0]:.6g} s correct={r['correct']}", flush=True)
            values = {}
            for name, (_, unit) in results[0]["printed"].items():
                values[name] = {"unit": unit, "gated": name in gated,
                                **summarize([r["printed"][name][0] for r in results])}
            per_workload[w] = {"seeds": seeds(spec), "values": values,
                               "correct": [r["correct"] for r in results],
                               "attempted": [r["attempted"] for r in results],
                               "failed": [r["failed"] for r in results]}
            out["env"] = results[-1]["env"]
        out["sets"][f"seeds_{spec.replace('-', '_')}"] = per_workload
    for w in names:
        r = run(w, args.traced_seed, seconds, 1)
        out["traced"][w] = {"seed": args.traced_seed, "correct": r["correct"], "attempted": r["attempted"],
                            "failed": r["failed"], "replay": " ".join(r["report"]).lstrip("# "),
                            "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
    out["note"] = (f"{len(out['sets'])} sets of {seconds}-second runs per workload (--trace 0, seeds "
                   f"{', '.join(args.sets.split(','))}) and one traced run per workload (--trace 1, seed "
                   f"{args.traced_seed}). Per metric: the runs' values, their median, first and third quartile "
                   "(statistics.quantiles, n=4) and spread = (q3 - q1) / median; gated = listed in BENCHMARK.json.")
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
