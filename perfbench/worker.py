"""One workload process: set up, run the closed loop, verify, report.

The launcher (``run.py``) starts this file in a fresh interpreter with the
package's ``src`` first on ``sys.path``. The process reports the
``time.monotonic()`` reading at which its first timed op starts; the
launcher subtracts the reading it took just before starting the process, so
set-up time covers interpreter start-up and the import of NumPy and SciPy
exactly as a user of the CLI pays them. Run it through ``run.py``; the
result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
TAIL_PERCENTILE = 90
# end-to-end metric -> unit; set-up time is added by the launcher
E2E_UNITS = {"ops_per_s": "ops/s", "op_s_p50": "s", f"op_s_p{TAIL_PERCENTILE}": "s",
             "peak_rss_mb": "MB"}


def run_op(cli_main, verb: str, config: dict, op_dir: str):
    """Run one CLI op in this process: (exit code or 'raise:Type', seconds)."""
    os.makedirs(op_dir, exist_ok=True)
    config_path = os.path.join(op_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    t0 = time.perf_counter()
    try:
        code = cli_main([verb, "--config", config_path, "--out", op_dir])
    except Exception as exc:  # the op's verdict, not the benchmark's
        code = f"raise:{type(exc).__name__}"
    return code, time.perf_counter() - t0


def verify(ops, table) -> tuple:
    """Check every op against the reference: (mismatched ops, failed ops).

    An op fails if it raised, exited non-zero or mismatched its reference.
    Its outputs are correct when exit code and values match the reference,
    which records the exit code this commit gives, non-zero ones included.
    """
    mismatched, failed = [], []
    for op in ops:
        entry = table.get(op["key"])
        if entry is None:
            op["problems"] = ["config missing from the reference table"]
        else:
            try:
                values = reference.extract(op["verb"], op["dir"])
            except (OSError, ValueError, IndexError):
                values = {}  # no usable outputs; check() names what is missing
            op["problems"] = reference.check(entry, op["exit"], values)
        if op["problems"]:
            mismatched.append(op)
        if op["problems"] or op["exit"] != 0:
            failed.append(op)
    return mismatched, failed


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    import isocone.cli as cli  # the setup cost a CLI user pays
    import numpy
    import scipy

    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if package_dir != os.path.join(ROOT, "src", "isocone"):
        print(f"error: imported isocone from {package_dir}, not this checkout",
              file=sys.stderr)
        return 1

    work_dir = os.path.join(args.work_dir, f"{args.workload}-{os.getpid()}")
    table = reference.load()
    first_cycle = workloads.cycle(args.workload, args.seed, 0)
    warm_verb, warm_config = workloads.WARMUP[args.workload]
    run_op(cli.main, warm_verb, warm_config, os.path.join(work_dir, "warmup"))
    first_op_at = time.monotonic()
    if args.setup_only:
        shutil.rmtree(work_dir, ignore_errors=True)
        print(json.dumps({"first_op_at": first_op_at}))
        return 0

    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()

    ops = []

    def run_cycle(deck):
        for verb, config in deck:
            op_dir = os.path.join(work_dir, f"op{len(ops)}")
            if recorder is not None:
                recorder.op_id = len(ops)
            code, seconds = run_op(cli.main, verb, config, op_dir)
            ops.append({"verb": verb, "key": workloads.config_key(verb, config),
                        "exit": code, "seconds": seconds, "dir": op_dir})

    # A run is a whole number of cycles, fixed by the workload and --seconds
    # (workloads.n_cycles), so every run of a workload holds the same ops
    # whatever the speed of the code. A traced run is exactly the first cycle,
    # so its counts repeat; the untraced run times its own first cycle too, so
    # the tracing overhead compares the same ops.
    t_loop = time.perf_counter()
    run_cycle(first_cycle)
    first_cycle_s = time.perf_counter() - t_loop
    n_cycles = 1 if recorder is not None else workloads.n_cycles(args.workload, args.seconds)
    for index in range(1, n_cycles):
        run_cycle(workloads.cycle(args.workload, args.seed, index))
    wall = time.perf_counter() - t_loop
    if recorder is not None:
        recorder.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    mismatched, failed = verify(ops, table)
    shutil.rmtree(work_dir, ignore_errors=True)

    latencies = [op["seconds"] for op in ops]
    e2e = {
        "ops_per_s": len(ops) / wall,
        "first_cycle_ops_per_s": len(first_cycle) / first_cycle_s,
        "op_s_p50": statistics.median(latencies),
        f"op_s_p{TAIL_PERCENTILE}": quantile(latencies, TAIL_PERCENTILE),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": len(failed) / len(ops),
    }
    if recorder is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    else:
        layers = recorder.metrics()
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.METRICS.items()}
    result = {
        "first_op_at": first_op_at,
        "attempted": len(ops),
        "failed": len(failed),
        "correct": not mismatched,
        "metrics": metrics,
        "e2e": e2e,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "wall_s": wall,
        "ops": [{k: op[k] for k in ("verb", "key", "exit", "seconds", "problems")}
                for op in ops],
    }
    if recorder is not None:
        recorder.write(os.path.join(args.work_dir, "spans",
                                    f"{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
