"""Benchmark of the isocone CLI verbs: seeded closed-loop workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of ``couple_sector``, ``couple_polygon`` and ``verbs_mix``
(see ``workloads.py`` and README.md in this directory). One client in one
process runs ops back to back, each op one in-process ``isocone.cli.main``
call. ``--trace 0`` runs the workload's fixed number of op cycles for S
seconds (``workloads.n_cycles``) and reports the end-to-end metrics;
``--trace 1`` runs the first cycle with spans around each layer and reports
the per-layer metrics. ``all`` runs every workload both ways and also prints
the tracing overhead.

Every workload runs in its own fresh process (``worker.py``). Set-up time,
from just before a process starts to its first timed op, is the median over
SETUP_REPEATS fresh processes. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record of each run (stamps, per-op exit codes and latencies, any
reference mismatches) goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (pure Python: the launcher imports no NumPy)

SETUP_REPEATS = 7
DEADLINE_S = 170.0  # the whole command, launcher included


class BenchError(RuntimeError):
    pass


def child_env():
    """Environment of a workload process, and the thread settings it fixes."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    try:
        blas = int(env.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        blas = nproc
    blas = max(1, min(blas, nproc))
    env["OPENBLAS_NUM_THREADS"] = str(blas)
    env.pop("ISOCONE_THREADS", None)  # no worker pool: the CLI default of one thread
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env, {"nproc": nproc, "openblas_threads": blas, "isocone_threads": "unset (1)"}


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "isocone")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def run_worker(args, env, deadline, extra=()):
    """Run one workload process: (its result, its set-up seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", OUT, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    started_at = time.monotonic()  # one clock for both processes
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result.pop("first_op_at") - started_at


def run_workload(args, deadline) -> dict:
    """Run one workload (set-up repeats, then the measured process)."""
    env, threads = child_env()
    # The set-up-only processes run half before and half after the measured
    # one, so the set-up samples span the whole run rather than a few seconds
    # of it, and the machine's speed drift averages out in their median.
    extra = 0 if args.trace else SETUP_REPEATS - 1
    setups = [run_worker(args, env, deadline, ["--setup-only"])[1]
              for _ in range(extra // 2)]
    result, setup_s = run_worker(args, env, deadline)
    setups.append(setup_s)
    setups += [run_worker(args, env, deadline, ["--setup-only"])[1]
               for _ in range(extra - extra // 2)]
    result["setup_samples_s"] = setups
    result["stamp"] = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "git_commit": git_commit(),
                       "src_sha256": source_digest(), **result.pop("versions"), **threads}
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_result(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:15s} {metric:40s} {entry['value']:>16.6g} {entry['unit']}")
    e2e = result["e2e"]
    print(f"{name:15s} {'failed_frac':40s} {e2e['failed_frac']:>16.6g} fraction "
          f"({result['failed']} of {result['attempted']} ops)")
    for op in result["ops"]:
        if op["problems"]:
            print(f"{name:15s} mismatch {op['verb']} {op['key']}: {op['problems'][:3]}")
    print(f"{name:15s} stamp {json.dumps(result['stamp'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "isocone", "cli.py")):
        print(f"error: no isocone sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 1

    if args.workload != "all":
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(args, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_result(args.workload, result)
        print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": result["metrics"]}))
        return 0

    # every workload, untraced then traced, and the tracing overhead of each
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(workloads.WORKLOADS):
        runs = {}
        for trace in (0, 1):
            sub = argparse.Namespace(**dict(vars(args), workload=name, trace=trace))
            try:
                runs[trace] = run_workload(sub, time.monotonic() + DEADLINE_S)
            except BenchError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            print_result(name if trace == 0 else name + "+trace", runs[trace])
            combined["correct"] &= runs[trace]["correct"]
            combined["attempted"] += runs[trace]["attempted"]
            combined["failed"] += runs[trace]["failed"]
            for metric, entry in runs[trace]["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
        plain, traced = runs[0]["e2e"]["first_cycle_ops_per_s"], runs[1]["e2e"]["ops_per_s"]
        overhead = {"value": plain - traced, "unit": "ops/s"}
        combined["metrics"][f"{name}.trace_overhead_ops_per_s"] = overhead
        print(f"{name:15s} {'trace_overhead_ops_per_s':40s} {plain - traced:>16.6g} ops/s "
              f"({plain:.4g} untraced, {traced:.4g} traced over the first cycle)")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
