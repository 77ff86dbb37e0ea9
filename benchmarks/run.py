"""Benchmark for gumbelkit: times two CLI workloads and checks what they write.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload regress-grid --seed 1 --seconds 58 --trace 0

Workloads (see ``workloads.py``): ``regress-grid`` and ``value-sweep``.
A pass over either takes 15 to 30 s, and a shared host's speed drifts by a
quarter over minutes, so a run needs most of a minute to average that out.
Each run starts fresh worker processes (``worker.py``) with
BLAS/OpenMP threads set to one and ``PYTHONPATH`` set to this checkout's
``src``, one at a time:

* a few set-up probes, which only import ``gumbelkit`` and build the
  workload's CLI arguments; ``setup_s`` is the median time from starting a
  process to that point;
* one measuring process, which calls ``gumbelkit.cli.main`` in process, pass
  after pass over the workload's calls, for about ``--seconds``.

Afterwards the CSVs are checked against exact oracles.  Every pass must write
byte-identical files; their sha256 digests are printed.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``wall_s`` and
``cpu_s`` (medians over passes), ``peak_rss_mb`` and ``work_per_s``, which is
the workload's own throughput (repeats or fits per second of
``wall_s``).  ``--trace 1`` spends half the time untraced and half with
``tracer.py`` wrapping the package's public functions, and reports the
per-layer metrics, medians over traced passes, plus ``trace.overhead_ratio``.
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (checked units: regression cells and value
fits) and ``metrics``.  Outputs, the full result and the spans go to
``.bench_out/<workload>/``.

``python3 benchmarks/selftest.py`` checks the benchmark itself at a tiny size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, count_rows

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # the whole run, probes and checks included, ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def git_revision(root: str) -> str:
    """HEAD's commit read from .git, or 'unavailable' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest(root: str) -> str:
    """sha256 over the package's source files, a revision stand-in without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "gumbelkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str) -> dict[str, str]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": str(len(os.sched_getaffinity(0))),
        "machine": platform.machine(),
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root),
        "blas_threads": "1",
    }


def load_metric_specs() -> dict[str, dict[str, str]]:
    """Metric name -> {'unit', 'better', 'kind'} from BENCHMARK.json next to the checkout."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    specs = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            specs[m["name"]] = {"unit": m["unit"], "better": m["better"], "kind": kind}
    return specs


def worker_cmd(args, root: str, out_dir: str, *extra: str) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--root", root, "--out-dir", out_dir, *extra]
    return cmd + (["--tiny"] if args.tiny else [])


def timed_start(cmd: list[str], env: dict, timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    return started, proc


def check_outputs(workload, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over all passes, in checked units.

    Every pass writes the same files, so the files left by the last pass stand
    for all of them; a pass that exits nonzero or writes other bytes than the
    first fails all its units.
    """
    attempted = workload.units * len(passes)
    reference = passes[0]["digests"]
    broken = [i for i, p in enumerate(passes) if any(p["exit_codes"]) or p["digests"] != reference]
    if broken:
        return attempted, attempted, [f"passes {broken} exited nonzero or wrote other bytes"]
    try:
        result = workload.check()
    except (OSError, ValueError, KeyError, IndexError) as err:
        return attempted, attempted, [f"output unreadable: {err!r}"]
    return attempted, result.failed * len(passes), result.failures


def output_sizes(workload) -> dict[str, int]:
    """The workload's throughput units, CSV data rows and bytes written; 0 if unreadable."""
    try:
        return {
            "work": workload.work(),
            "rows": sum(count_rows(path) for path in workload.outputs()),
            "bytes": sum(os.path.getsize(path) + os.path.getsize(path + ".manifest.txt")
                         for path in workload.outputs()),
        }
    except (OSError, ValueError, KeyError, IndexError):
        return {"work": 0, "rows": 0, "bytes": 0}


def end_to_end(setup: list[float], passes: list[dict], peak_rss_mb: float, work: int) -> dict:
    wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": work / wall,
    }


def per_layer(untraced: list[dict], traced: list[dict], sizes: dict[str, int]) -> dict:
    layers = traced[0]["layers"]
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in layers}
    out["cli.rows_written"] = sizes["rows"]
    out["cli.bytes_written"] = sizes["bytes"]
    out["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                   / statistics.median(p["wall_s"] for p in untraced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few seconds (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gumbelkit", "cli.py")):
        print(f"run.py: {root} holds no src/gumbelkit; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root)
    result_path = os.path.join(out_dir, "worker.json")
    if os.path.exists(result_path):
        os.remove(result_path)

    try:
        setup = []
        for _ in range(SETUP_PROBES):
            started, proc = timed_start(worker_cmd(args, root, out_dir, "--setup-only"), env,
                                        max(1.0, deadline - time.monotonic() - 10.0))
            if proc.returncode != 0:
                print(f"run.py: set-up probe exited {proc.returncode}", file=sys.stderr)
                return 1
            setup.append(float(proc.stdout.strip().splitlines()[-1]) - started)
        cmd = worker_cmd(args, root, out_dir, "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--result", result_path)
        started, proc = timed_start(cmd, env, max(1.0, deadline - time.monotonic() - 10.0))
    except subprocess.TimeoutExpired as err:
        print(f"run.py: worker ran past {err.timeout:.0f} s and was stopped", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"run.py: worker exited {proc.returncode} without a result", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        measured = json.load(fh)
    setup.append(measured["setup_end"] - started)

    workload = WORKLOADS[args.workload](args.seed, out_dir, tiny=args.tiny)
    untraced, traced = measured["untraced"], measured["traced"]
    attempted, failed, reasons = check_outputs(workload, untraced + traced)
    sizes = output_sizes(workload)
    if args.trace:
        metrics = per_layer(untraced, traced, sizes)
    else:
        metrics = end_to_end(setup, untraced, measured["peak_rss_mb"], sizes["work"])
    specs = load_metric_specs()
    env_info = environment(root)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for name, digest in untraced[0]["digests"].items():
        print(f"sha256 {digest}  {name}")
    print(f"passes untraced={len(untraced)} traced={len(traced)} setup_probes={len(setup)}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} checked units failed)")
    for reason in reasons[:20]:
        print(f"  failed: {reason}")
    passes = len(traced) if args.trace else len(untraced)
    basis = {"setup_s": f"median of {len(setup)} processes", "peak_rss_mb": "one process",
             "cli.rows_written": "last pass", "cli.bytes_written": "last pass"}
    for name, value in metrics.items():
        alias = f" [{workload.work_name}]" if name == "work_per_s" else ""
        how = basis.get(name, f"median of {passes} passes")
        print(f"metric {name}{alias} {value:.6g} {specs[name]['unit']} ({how})")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_info, "setup_s_samples": setup,
              "attempted": attempted, "failed": failed, "failures": reasons,
              "metrics": metrics, "passes": untraced + traced}
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": specs[name]["unit"]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
