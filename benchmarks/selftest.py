"""Self-test of the benchmark, with every workload shrunk to a tiny size.

Run from the root of a checkout (about a minute on two cores):

    python3 benchmarks/selftest.py

For each workload it runs ``run.py --tiny`` untraced once and traced twice,
and checks that the last line of output is the result object, with exactly
the metric names and units of ``BENCHMARK.json``, no failed unit, and count
metrics that repeat exactly.  It then corrupts one CSV of each workload and
checks that the failure ratio rises above zero, and runs ``run.py`` in a
directory holding only the benchmark, where it must exit nonzero without a
result.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

# workload -> (file, column, value) written into the first data row
CORRUPTIONS = {
    "regress-grid": ("gumbel.csv", "diverged_count", "99"),
    "value-sweep": ("bandit1.csv", "gap_behavior", "0.5"),
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(root: str, workload: str, trace: int, cwd: str | None = None):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd or root, capture_output=True, text=True, timeout=180)


def last_json(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, specs: dict, kind: str, label: str) -> None:
    assert set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}"
    expected = {name for name, s in specs.items() if s["kind"] == kind}
    assert set(result["metrics"]) == expected, (
        f"{label}: metric names differ from BENCHMARK.json: "
        f"{sorted(set(result['metrics']) ^ expected)}")
    for name, m in result["metrics"].items():
        assert m["unit"] == specs[name]["unit"], f"{label}: {name} unit {m['unit']}"
        assert isinstance(m["value"], float), f"{label}: {name} value {m['value']!r}"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
        f"{label}: {result['failed']} of {result['attempted']} units failed")


def corrupt(path: str, column: str, value: str) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index(column)] = value
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def main() -> int:
    root = os.getcwd()
    specs = run.load_metric_specs()
    for name, cls in WORKLOADS.items():
        check_result(last_json(bench(root, name, 0)), specs, "end_to_end", f"{name} trace 0")
        first, second = (last_json(bench(root, name, 1)) for _ in range(2))
        check_result(first, specs, "per_layer", f"{name} trace 1")
        for metric, spec in specs.items():
            if spec["kind"] == "per_layer" and spec["unit"] == "count":
                a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
                assert a == b, f"{name}: count {metric} changed between runs, {a} -> {b}"

        workload = cls(3, os.path.join(root, ".bench_out", name), tiny=True)
        passes = [{"exit_codes": [0], "digests": {}}]
        attempted, failed, _ = run.check_outputs(workload, passes)
        assert failed == 0, f"{name}: clean outputs failed the checks"
        file_name, column, value = CORRUPTIONS[name]
        corrupt(workload.path(file_name), column, value)
        attempted, failed, reasons = run.check_outputs(workload, passes)
        assert failed / attempted > 0, f"{name}: corrupted {file_name} passed the checks"
        print(f"ok {name}: metrics match BENCHMARK.json; corrupted {file_name} "
              f"gives fail_ratio {failed}/{attempted} ({reasons[0]})")

    bare = os.path.join(root, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), bare)
    try:
        proc = bench(root, "value-sweep", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, "ran without the package"
    print("ok refuses a directory without src/gumbelkit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
