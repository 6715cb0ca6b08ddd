"""Smoke test of the benchmark itself (about four minutes on two cores).

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args, cwd=ROOT, run=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, run, "--seed", "3", "--seconds", "0.1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload):
    plain = result_of(bench("--workload", workload, "--trace", "0"))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        entry = plain["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0

    traced = result_of(bench("--workload", workload, "--trace", "1"))
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert traced["metrics"]["cli.main.s"]["value"] > 0


def copy_of_benchmark(root):
    """A checkout at ``root``: BENCHMARK.json, a copy of perfbench/, a link to src/."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    return root / "perfbench"


def test_corrupted_reference_value_raises_failed(tmp_path):
    verb, config = workloads.cycle("verbs_mix", 3, 0)[0]
    table = reference.load()
    values = table[workloads.config_key(verb, config)]["values"]
    name = sorted(values)[0]
    values[name] = 2.0 * values[name] + 1.0
    copy = copy_of_benchmark(tmp_path)
    (copy / "reference.json").write_text(json.dumps(table))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")

    clean = result_of(bench("--workload", "verbs_mix"))
    broken = result_of(bench("--workload", "verbs_mix", cwd=tmp_path,
                             run=str(copy / "run.py")))
    assert clean["failed"] == 0 and clean["correct"]
    assert broken["failed"] >= 1 and not broken["correct"]


def couple_entries(borderline):
    return [entry for entry in reference.load().values()
            if entry["verb"] == "couple" and entry["exit"] in reference.VERDICT_EXITS
            and reference.verdict_is_borderline(entry) == borderline]


def test_borderline_verdict_admits_either_exit():
    # a value moved within its tolerance may flip a verdict that sits on its bound
    name = "grad_range_hausdorff"
    entry = next(e for e in couple_entries(True)
                 if abs(e["values"][name] - 2.0 * e["values"]["slope_spacing"]) < 1e-9)
    values = dict(entry["values"])
    spacing = values["slope_spacing"]
    flipped = 2 - entry["exit"]
    values[name] += 0.9 * spacing if flipped == 2 else -0.9 * spacing
    assert reference.check(entry, flipped, values) == []
    values[name] = entry["values"][name] + 1.5 * spacing
    assert reference.check(entry, entry["exit"], values) != []
    assert reference.check(entry, "raise:ValueError", entry["values"]) != []


def test_clear_verdict_must_match():
    entry = couple_entries(False)[0]
    assert reference.check(entry, entry["exit"], entry["values"]) == []
    assert reference.check(entry, 2 - entry["exit"], entry["values"]) != []


def test_fails_without_the_package_sources(tmp_path):
    copy = copy_of_benchmark(tmp_path)
    proc = bench("--workload", "couple_sector", "--trace", "0", cwd=tmp_path,
                 run=str(copy / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
