"""One cold set-up of a workload, as a CLI user pays it before the first op:
import ``sftlab.cli``, write the workload's configs and validate each one
with ``load_config``.  Run as a script it prints ``ready`` when done, so the
parent can time a fresh interpreter up to that line.

Usage: python3 bench/setup_probe.py <src dir> <output dir> <workload>
"""

from __future__ import annotations

import json
import os
import sys


def prepare(name: str, out_dir: str):
    """Write and validate the configs of workload ``name``; returns it."""
    from sftlab.cli import load_config

    import workloads

    w = workloads.workload(name, workloads.load_reference())
    for config_name, config in w.configs.items():
        path = os.path.join(out_dir, f"{config_name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        load_config(path)
    return w


if __name__ == "__main__":
    src, out_dir, workload_name = sys.argv[1:4]
    sys.path.insert(0, src)
    prepare(workload_name, out_dir)
    print("ready", flush=True)
