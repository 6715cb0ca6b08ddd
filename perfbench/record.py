"""Record the reference table: run every config the workload grids allow.

Usage (from the repository root):

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: each entry maps a config key to the
verb, the config, the exit code this commit gives and the scalars
``reference.extract`` reads from the outputs. One line per op with its wall
time goes to stdout. The whole table takes about six minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def main() -> int:
    import isocone.cli as cli

    table = {}
    scratch = os.path.join(ROOT, ".perfbench_out", f"record-{os.getpid()}")
    for name in sorted(workloads.WORKLOADS):
        for verb, config in workloads.all_configs(name):
            key = workloads.config_key(verb, config)
            op_dir = os.path.join(scratch, key)
            code, seconds = run_op(cli.main, verb, config, op_dir)
            try:
                values = reference.extract(verb, op_dir)
            except (OSError, ValueError, IndexError):
                values = {}
            table[key] = {"verb": verb, "config": config, "exit": code, "values": values}
            shutil.rmtree(op_dir)
            print(f"{name} {verb} {key} exit={code} {seconds:.3f}s", flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    with open(reference.REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
