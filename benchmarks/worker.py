"""Child process of the benchmark: sets up one workload, runs it timed, reports.

``run.py`` starts this script with BLAS/OpenMP threads set to one and
``PYTHONPATH`` pointing at the checkout's ``src``.  It imports ``gumbelkit``,
builds the workload's CLI arguments and then runs them through
``gumbelkit.cli.main`` in process, pass after pass, until the next pass
would end after ``--seconds``.  Every pass writes the same files, whose
sha256 digests are taken after the pass, outside the timed region.

With ``--trace 1`` the time is split: half untraced, then half with the
tracer installed, so the two give the tracing overhead.  With
``--setup-only`` the script stops once set up and prints the monotonic
clock, which ``run.py`` subtracts from the time it started the process.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback


def run_calls(cli, calls: list[list[str]]) -> list[int]:
    """Exit code of each CLI call; a call that raises counts as exit code 1."""
    codes = []
    for argv in calls:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed unit, reported, not fatal
            traceback.print_exc()
            code = 1
        codes.append(code or 0)
    return codes


def digests(paths: list[str]) -> dict[str, str]:
    out = {}
    for csv_path in paths:
        for path in (csv_path, csv_path + ".manifest.txt"):
            h = hashlib.sha256()
            try:
                with open(path, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        h.update(chunk)
                out[os.path.basename(path)] = h.hexdigest()
            except OSError:
                out[os.path.basename(path)] = "missing"
    return out


def phase(cli, workload, calls, seconds: float, tracer=None) -> list[dict]:
    """Passes over the calls until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        for path in workload.outputs():
            for stale in (path, path + ".manifest.txt"):
                if os.path.exists(stale):
                    os.remove(stale)
        if tracer is not None:
            tracer.reset()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        codes = run_calls(cli, calls)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        record = {"wall_s": wall, "cpu_s": cpu, "exit_codes": codes,
                  "digests": digests(workload.outputs())}
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
        passes.append(record)
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--root", required=True, help="checkout whose src/ is measured")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", help="JSON file for the measurements")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import gumbelkit.cli as cli
    from workloads import WORKLOADS

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"worker: imported gumbelkit from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.out_dir, tiny=args.tiny)
    calls = workload.calls()
    setup_end = time.monotonic()
    if args.setup_only:
        print(repr(setup_end))
        return 0

    result = {"setup_end": setup_end}
    if args.trace:
        from tracer import Tracer

        result["untraced"] = phase(cli, workload, calls, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        result["traced"] = phase(cli, workload, calls, args.seconds / 2, tracer)
        tracer.save(os.path.join(args.out_dir, "spans.npz"))
    else:
        result["untraced"] = phase(cli, workload, calls, args.seconds)
        result["traced"] = []
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
