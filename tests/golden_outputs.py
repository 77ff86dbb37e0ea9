"""Golden sha256 digests of small CLI runs and of the demo printouts, and the
tool that records them.

Each run writes a CSV and its manifest; ``golden_outputs.json`` holds the
sha256 of both for every run in ``RUNS``, and of each demo's stdout, with the
numpy version and CPU features they were recorded under.  numpy's SIMD kernels
may round differently elsewhere, so ``test_golden_outputs.py`` and
``test_demos.py`` compare only on a matching machine.

    python tests/golden_outputs.py              # name each changed output, with
                                                # its recorded and fresh sha256 prefix;
                                                # exits 2 on another machine
    python tests/golden_outputs.py --update     # rewrite golden_outputs.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden_outputs.json")
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

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
# earlier runs' CSVs by name, and others read the files of write_inputs by name
RUNS = {
    **{f"regress-r{repeats}-{flags}": ["regress", "--repeats", str(repeats), *argv]
       for repeats in (1, 10) for flags, argv in REGRESS_FLAGS.items()},
    "compare": ["compare", "regress-r10-gumbel.csv", "regress-r10-order8.csv"],
    "compare-student": ["compare", "regress-r10-gumbel.csv", "regress-r10-order8.csv",
                        "--student"],
    "regress-r10-logsumexp": ["regress", "--repeats", "10", "--target", "logsumexp"],
    # a key set both in the file and by a flag, where the flag wins
    "regress-config": ["regress", "--config", "regress.cfg", "--repeats", "3"],
    "mdp-train": ["mdp-train"],
    "mdp-train-chain3-closed-l2": ["mdp-train", "--mdp", "chain3", "--mode", "closed",
                                   "--orders", "2", "--include", "l2"],
    # a file saved with an empty name is named by its base name
    "mdp-train-file": ["mdp-train", "--mdp", "unnamed-bandit1.json", "--orders", "2"],
    "mdp-train-bandit1-all": ["mdp-train", "--mdp", "bandit1",
                              "--include", "gumbel,clipped,expectile,l2"],
    "loss-curve": ["loss-curve"],
    "err-dist": ["err-dist"],
    # losses named out of the order the tables list them in
    "mdp-train-bandit1-unordered": ["mdp-train", "--mdp", "bandit1", "--orders", "4,2",
                                    "--include", "l2,gumbel"],
    "loss-curve-unordered": ["loss-curve", "--orders", "8,2",
                             "--include", "l2,expectile,gumbel,clipped"],
    "err-dist-unordered": ["err-dist", "--orders", "4,2", "--include", "l2,gumbel",
                           "--bounds", "-32:10"],
    # divides by a beta other than 1, a series group split by expectile and gumbel
    # rows with l2 last, clipped rows, and state-action pairs the rollout never drew
    "mdp-train-chain3-beta2-all": ["mdp-train", "--mdp", "chain3", "--beta", "2",
                                   "--orders", "2,20", "--include", "gumbel,clipped,expectile,l2",
                                   "--dataset", "rollout", "--outer", "60"],
    # table order puts l2 after expectile and gumbel, splitting the series rows
    "mdp-train-risky5-all": ["mdp-train", "--mdp", "risky5",
                             "--include", "gumbel,clipped,expectile,l2"],
    # spaces around list pieces, which each piece's cast strips
    "loss-curve-spaced": ["loss-curve", "--orders", " 2, 4", "--include", " gumbel, l2",
                          "--grid", " -1: 1: 0.5"],
    "err-dist-spaced": ["err-dist", "--orders", "2 ,4 ", "--bounds", " -10 : 10", "--points", "101"],
    "mdp-train-bandit1-spaced": ["mdp-train", "--mdp", "bandit1", "--orders", " 2",
                                 "--include", "l2 , gumbel "],
    "regress-r1-spaced-betas": ["regress", "--repeats", "1", "--betas", " 0.5, 2"],
    # 250 V steps an outer iteration: two full 100-step chunks and a partial one
    "mdp-train-risky5-v250": ["mdp-train", "--mdp", "risky5", "--v-steps", "250", "--outer", "20"],
    # 6 of 10 pairs drawn and state 1 never visited
    "mdp-train-risky5-sparse": ["mdp-train", "--mdp", "risky5", "--dataset", "rollout",
                                "--dataset-size", "20", "--include", "gumbel,clipped,expectile",
                                "--outer", "60"],
    # every series fit and the gumbel one diverge, at iterations 1 and 3
    "mdp-train-risky5-diverging": ["mdp-train", "--mdp", "risky5", "--beta", "0.5",
                                   "--orders", "2,8,20", "--include", "gumbel,clipped,expectile",
                                   "--lr-v", "2", "--v-steps", "250", "--outer", "30"],
}


def machine() -> dict:
    """What the digests depend on besides the code: numpy and the CPU features it dispatches on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:          # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "cpu_features": dict(sorted(__cpu_features__.items()))}


def machine_mismatch(recorded: dict) -> str | None:
    """Why digests recorded under ``recorded`` cannot be compared here, or None."""
    here = machine()
    for key in ("numpy", "cpu_features"):
        if here[key] != recorded[key]:
            return (f"golden digests were recorded under another {key}: "
                    f"{recorded[key]!r}, here {here[key]!r}")
    return None


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """One demo in a fresh interpreter, with numpy's runtime warnings and
    deprecations as errors; its output comes back as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def stdout_digest(done: subprocess.CompletedProcess) -> str:
    return hashlib.sha256(done.stdout.encode()).hexdigest()


def write_inputs(directory: str) -> None:
    """The files the runs read besides earlier runs' CSVs: a regress config file
    and bandit1 saved with an empty name."""
    from gumbelkit.mdp import save_mdp, zoo

    with open(os.path.join(directory, "regress.cfg"), "w", encoding="utf-8") as fh:
        fh.write("repeats = 2\ndata_size = 500\nbetas = 0.5,2\nfixed_dataset = yes\n")
    save_mdp(dataclasses.replace(zoo("bandit1"), name=""),
             os.path.join(directory, "unnamed-bandit1.json"))


def run_all() -> dict:
    """The CSV and manifest sha256 of every run, run in order in one temporary directory."""
    from gumbelkit.cli import main

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        for name, argv in RUNS.items():
            # a manifest names files by their base names only
            argv = [os.path.join(tmp, arg) if arg.endswith((".csv", ".cfg", ".json")) else arg
                    for arg in argv]
            out = os.path.join(tmp, f"{name}.csv")
            if main([*argv, "--out", out]) != 0:
                raise RuntimeError(f"{name} failed")
            digests[name] = {"csv": _sha256(out), "manifest": _sha256(out + ".manifest.txt")}
    return digests


def _by_output(runs: dict, demos: dict) -> dict:
    """Each digest under its output's name: '<run> csv', '<run> manifest' or 'demo <demo>'."""
    named = {f"{name} {part}": digest
             for name, parts in runs.items() for part, digest in parts.items()}
    return {**named, **{f"demo {name}": digest for name, digest in demos.items()}}


def changes(golden: dict, digests: dict, demos: dict) -> list[str]:
    """A line for each output whose digest differs from ``golden``, giving the
    recorded and the fresh sha256 prefix."""
    recorded, fresh = _by_output(golden["runs"], golden["demos"]), _by_output(digests, demos)
    return [f"changed: {what}: recorded {recorded.get(what, 'none')[:16]}, fresh {digest[:16]}"
            for what, digest in fresh.items() if recorded.get(what) != digest]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    if not args.update:
        golden = json.loads(GOLDEN.read_text())
        mismatch = machine_mismatch(golden)
        if mismatch:
            print(mismatch, file=sys.stderr)
            return 2
    digests = run_all()
    demos = {}
    for demo in DEMOS:
        done = run_demo(demo)
        if done.returncode != 0:
            raise RuntimeError(f"demo {demo.stem} failed:\n{done.stderr}")
        demos[demo.stem] = stdout_digest(done)
    if args.update:
        GOLDEN.write_text(json.dumps({**machine(), "runs": digests, "demos": demos}, indent=1) + "\n")
        print(f"wrote {len(digests)} runs and {len(demos)} demos to {GOLDEN}")
        return 0
    changed = changes(golden, digests, demos)
    for line in changed:
        print(line)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
