"""Record the Monte-Carlo reference outputs the benchmark checks against.

Usage: python3 bench/record_reference.py

Draws the MC input pools from fixed seeds, runs each pool entry through
``sftlab.cli.main`` exactly as the benchmark does, and writes the outputs to
``bench/reference.json``.  Run it only at a commit whose MC output is known
to be right: later commits are checked against what it records.
"""

import json
import math
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sftlab import cli, lyapunov_mc  # noqa: E402

import workloads  # noqa: E402

MC_SCAN_POOL = 10
MC_PATH_POOL = 12  # the first half at pi/2, the rest at drawn energies


def _run(tmp: Path, config: dict, argv: list[str]) -> list[list[str]]:
    cfg, out = tmp / "config.json", tmp / "out.csv"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    if cli.main([argv[0], "--config", str(cfg), "--output", str(out), *argv[1:]]) != 0:
        raise SystemExit(f"sftlab {' '.join(argv)} failed")
    return [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]


def main():
    tmp = Path(tempfile.mkdtemp(prefix=".bench_run-", dir=HERE.parent))
    try:
        scan_seeds = random.Random("mc_scan pool").sample(range(1, 2**31), MC_SCAN_POOL)
        mc_scan = [
            {"seed": s, "rows": [[float(x) for x in r[:3]] for r in _run(tmp, workloads.mc_scan_config(s), ["lyapunov"])]}
            for s in scan_seeds
        ]
        rng = random.Random("mc_path pool")
        path_seeds = rng.sample(range(1, 2**31), MC_PATH_POOL)
        mc_path = []
        for i, s in enumerate(path_seeds):
            k = math.pi / 2 if i < MC_PATH_POOL // 2 else rng.uniform(0.2, math.pi - 0.2)
            config = workloads.mc_path_config(s)
            rows = _run(tmp, config, ["kalinin", "--k", repr(k)])
            measure = cli.load_config(str(tmp / "config.json")).measure
            est = lyapunov_mc(measure, k, workloads.MC_PATH_STEPS, workloads.MC_PATH_SAMPLES, s)
            gaps = [float(r[1]) for r in rows]
            if k == math.pi / 2 and gaps[0] != abs(est.value):
                raise SystemExit("period-1 gap at pi/2 is not |estimate|")
            mc_path.append({"k": repr(k), "seed": s, "value": est.value, "stderr": est.stderr, "gaps": gaps})
            print(f"mc_path {i + 1}/{MC_PATH_POOL}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ref = {"mc_scan": mc_scan, "mc_path": mc_path}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
