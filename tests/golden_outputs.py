"""Golden sha256 digests of small CLI runs, and the tool that records them.

Each run writes a CSV and its manifest; ``golden_outputs.json`` holds the
sha256 of both for every run in ``RUNS``, with the numpy version and CPU
features they were recorded under.  numpy's SIMD kernels may round
differently elsewhere, so ``test_golden_outputs.py`` compares only on a
matching machine.

    python tests/golden_outputs.py --update     # rewrite golden_outputs.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden_outputs.json")

# flag sets of the regress grid, each run at 1 and at 10 repeats
REGRESS_FLAGS = {
    "gumbel": [],
    "order4": ["--loss", "expanded", "--order", "4"],
    "order8": ["--loss", "expanded", "--order", "8"],
    "order20": ["--loss", "expanded", "--order", "20"],
    "clipped": ["--loss", "clipped"],
    "expectile": ["--loss", "expectile"],
    "l2": ["--loss", "l2"],
    "fixed": ["--fixed-dataset"],
    "escape-none": ["--escape-factor", "none"],
}

# run name -> argv without --out; a run writes <name>.csv, and compare reads two
# earlier runs' CSVs by name
RUNS = {
    **{f"regress-r{repeats}-{flags}": ["regress", "--repeats", str(repeats), *argv]
       for repeats in (1, 10) for flags, argv in REGRESS_FLAGS.items()},
    "compare": ["compare", "regress-r10-gumbel.csv", "regress-r10-order8.csv"],
    "mdp-train": ["mdp-train"],
    "loss-curve": ["loss-curve"],
    "err-dist": ["err-dist"],
}


def machine() -> dict:
    """What the digests depend on besides the code: numpy and the CPU features it dispatches on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:          # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "cpu_features": dict(sorted(__cpu_features__.items()))}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_all() -> dict:
    """The CSV and manifest sha256 of every run, run in order in one temporary directory."""
    from gumbelkit.cli import main

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            # a manifest names files by their base names only
            argv = [os.path.join(tmp, arg) if arg.endswith(".csv") else arg for arg in argv]
            out = os.path.join(tmp, f"{name}.csv")
            if main([*argv, "--out", out]) != 0:
                raise RuntimeError(f"{name} failed")
            digests[name] = {"csv": _sha256(out), "manifest": _sha256(out + ".manifest.txt")}
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    digests = run_all()
    if args.update:
        GOLDEN.write_text(json.dumps({**machine(), "runs": digests}, indent=1) + "\n")
        print(f"wrote {len(digests)} runs to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text())["runs"]
    changed = sorted(name for name in RUNS if golden.get(name) != digests[name])
    for name in changed:
        print(f"changed: {name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
