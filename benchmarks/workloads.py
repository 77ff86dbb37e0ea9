"""The benchmark's workloads: CLI argument lists built from a seed, and output checks.

Each workload is a fixed sequence of ``gumbelkit`` CLI calls.  ``calls()``
gives their argument lists, ``check()`` reads the CSVs they wrote and
compares them with exact oracles, and ``work()`` counts the workload's unit
of throughput in those CSVs.  A checked unit is a regression cell or a value
fit; ``units`` is how many of them one pass over the calls produces.

There is no ``err-dist`` workload (implied densities written as large CSVs):
on a shared two-core host its run-to-run spread came close to the bound, and
two workloads leave time for runs long enough to average out the host's
minute-long slow and fast stretches.  The layers it stressed still run here:
``cli`` and ``distributions.sample_gumbel`` in ``regress-grid``.
"""

from __future__ import annotations

import csv
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

CHECKPOINTS = (10, 100, 500, 1000, 2000)


@dataclass
class CheckResult:
    """Outcome of checking one pass: the units checked and why any failed."""

    units: int
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, unit: str, why: str) -> None:
        self.failures.append(f"{unit}: {why}")


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def group_rows(path: str, *columns: str) -> dict[tuple, list[dict[str, str]]]:
    """A CSV's rows grouped by the values of ``columns``, in file order."""
    groups = defaultdict(list)
    for row in read_rows(path):
        groups[tuple(row[c] for c in columns)].append(row)
    return groups


def collapses(diverged: int, repeats: int, rate: float = 0.9, level: float = 1e-3) -> bool:
    """Whether a diverged count is consistent with a collapse rate of at least ``rate``.

    At the benchmark's 10 repeats a literal "at least 90%" fails for about 3%
    of seeds, since each repeat of the mismatched exponential cell collapses
    with probability near 0.975.  So the count fails only when a binomial
    variable with that rate falls this low with probability below ``level``.
    """
    below = sum(math.comb(repeats, k) * rate ** k * (1.0 - rate) ** (repeats - k)
                for k in range(diverged + 1))
    return below >= level


def _num(text: str) -> float:
    return math.nan if text == "" else float(text)


class Workload:
    name = ""
    why = ""
    work_name = ""  # the workload's own name for its throughput metric
    units = 0

    def __init__(self, seed: int, out_dir: str, tiny: bool = False):
        self.seed = seed
        self.out_dir = out_dir
        self.tiny = tiny

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def calls(self) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self) -> list[str]:
        """Every CSV the calls write; each has a ``.manifest.txt`` beside it."""
        raise NotImplementedError

    def check(self) -> CheckResult:
        raise NotImplementedError

    def work(self) -> int:
        raise NotImplementedError


class RegressGrid(Workload):
    name = "regress-grid"
    why = ("SGD stability grid with the exponential and order-8 losses, then a Welch "
           "compare: regression and losses do the work")
    work_name = "repeats_per_s"

    def __init__(self, seed: int, out_dir: str, tiny: bool = False):
        super().__init__(seed, out_dir, tiny)
        self.repeats = 3 if tiny else 10
        self.betas = (0.5, 10.0) if tiny else (0.5, 2.0, 10.0)
        self.cells = [(d, r) for d in self.betas for r in self.betas]
        self.units = 3 * len(self.cells)

    def _regress(self, out: str, *extra: str) -> list[str]:
        argv = ["regress", "--seed", str(self.seed), "--out", self.path(out),
                "--repeats", str(self.repeats), *extra]
        if self.tiny:
            argv += ["--betas", ",".join(repr(b) for b in self.betas)]
        return argv

    def calls(self) -> list[list[str]]:
        return [
            self._regress("gumbel.csv"),
            self._regress("order8.csv", "--loss", "expanded", "--order", "8"),
            ["compare", self.path("gumbel.csv"), self.path("order8.csv"),
             "--seed", str(self.seed), "--out", self.path("compare.csv")],
        ]

    def outputs(self) -> list[str]:
        return [self.path(n) for n in ("gumbel.csv", "order8.csv", "compare.csv")]

    @staticmethod
    def _by_cell(path: str) -> dict:
        groups = group_rows(path, "cell_beta_data", "cell_beta_reg")
        return {(float(d), float(r)): rows for (d, r), rows in groups.items()}

    def _check_grid(self, result: CheckResult, path: str, variant: str) -> None:
        cells = self._by_cell(path)
        for d, r in self.cells:
            unit = f"{os.path.basename(path)} cell ({d}, {r})"
            rows = cells.get((d, r), [])
            if [int(row["checkpoint"]) for row in rows] != list(CHECKPOINTS):
                result.fail(unit, "checkpoints are not 10,100,500,1000,2000")
                continue
            if any(row["loss_variant"] != variant or int(row["repeats"]) != self.repeats
                   for row in rows):
                result.fail(unit, "wrong loss_variant or repeats column")
                continue
            diverged = int(rows[0]["diverged_count"])
            means = [_num(row["mean_abs_error"]) for row in rows]
            if not 0 <= diverged <= self.repeats:
                result.fail(unit, f"diverged_count {diverged} out of range")
            elif (diverged == self.repeats) != all(math.isnan(m) for m in means):
                result.fail(unit, "mean_abs_error must be empty exactly when all repeats diverge")
            elif diverged < self.repeats and not all(math.isfinite(m) and m >= 0 for m in means):
                result.fail(unit, "mean_abs_error is not finite and nonnegative")
            elif variant == "gumbel" and d == r and not (diverged == 0 and means[-1] < means[0]):
                result.fail(unit, f"matched cell: {diverged} diverged, "
                                  f"error {means[0]} at 10 -> {means[-1]} at 2000")
            elif variant == "gumbel" and (d, r) == (10.0, 0.5) and not collapses(diverged, self.repeats):
                result.fail(unit, f"only {diverged}/{self.repeats} repeats diverged")

    def _check_compare(self, result: CheckResult, path: str) -> None:
        cells = self._by_cell(path)
        for d, r in self.cells:
            unit = f"compare.csv cell ({d}, {r})"
            rows = cells.get((d, r), [])
            if [int(row["checkpoint"]) for row in rows] != list(CHECKPOINTS):
                result.fail(unit, "checkpoints are not 10,100,500,1000,2000")
                continue
            for row in rows:
                p = _num(row["p_value"])
                if math.isnan(p):
                    if row["flag"] not in ("all_diverged", "insufficient"):
                        result.fail(unit, f"empty p_value with flag {row['flag']!r}")
                        break
                elif not 0.0 <= p <= 1.0:
                    result.fail(unit, f"p_value {p} outside [0, 1]")
                    break
                elif row["flag"] != ("significant" if p < 0.05 else "ok"):
                    result.fail(unit, f"flag {row['flag']!r} disagrees with p_value {p}")
                    break

    def check(self) -> CheckResult:
        result = CheckResult(self.units)
        gumbel, order8, compare = self.outputs()
        self._check_grid(result, gumbel, "gumbel")
        self._check_grid(result, order8, "expanded_gumbel")
        self._check_compare(result, compare)
        return result

    def work(self) -> int:
        """Cell-repeats run, diverged or not."""
        total = 0
        for path in self.outputs()[:2]:
            cells = self._by_cell(path)
            total += sum(int(rows[0]["repeats"]) for rows in cells.values())
        return total


class ValueSweep(Workload):
    name = "value-sweep"
    why = ("in-sample value fits on the risky5 MDP over orders 2..20 plus gumbel: "
           "value_fitting and losses on small tables, regression idle")
    work_name = "fits_per_s"

    def __init__(self, seed: int, out_dir: str, tiny: bool = False):
        super().__init__(seed, out_dir, tiny)
        # risky5 alone, not with bandit1: a 16-23 s pass fits two or three
        # times into a run, where the pair's 25-35 s pass fits once
        self.mdps = ("bandit1",) if tiny else ("risky5",)
        self.orders = (2, 20) if tiny else (2, 4, 8, 12, 20)
        self.fits = [("expanded_gumbel", str(n)) for n in self.orders] + [("gumbel", "")]
        self.units = len(self.mdps) * len(self.fits)

    def calls(self) -> list[list[str]]:
        return [["mdp-train", "--mdp", mdp, "--seed", str(self.seed),
                 "--orders", ",".join(str(n) for n in self.orders), "--include", "gumbel",
                 "--out", self.path(f"{mdp}.csv")] for mdp in self.mdps]

    def outputs(self) -> list[str]:
        return [self.path(f"{mdp}.csv") for mdp in self.mdps]

    def check(self) -> CheckResult:
        result = CheckResult(self.units)
        for mdp, path in zip(self.mdps, self.outputs()):
            fits = group_rows(path, "loss_variant", "order")
            for variant, order in self.fits:
                unit = f"{mdp} {variant}{order}"
                rows = fits.get((variant, order), [])
                if not rows or [int(row["state"]) for row in rows] != list(range(len(rows))):
                    result.fail(unit, "missing or unordered state rows")
                    continue
                gap_b = np.array([float(row["gap_behavior"]) for row in rows])
                gap_s = np.array([float(row["gap_soft"]) for row in rows])
                if any(row["converged"] != "1" or row["diverged"] != "0" for row in rows):
                    result.fail(unit, "fit did not converge or diverged")
                elif order == "2" and np.max(np.abs(gap_b)) > 1e-6:
                    result.fail(unit, f"|gap_behavior| {np.max(np.abs(gap_b)):.3g} > 1e-6")
                elif order in ("", "20") and np.max(np.abs(gap_s)) > 1e-6:
                    result.fail(unit, f"|gap_soft| {np.max(np.abs(gap_s)):.3g} > 1e-6")
                elif min(gap_b.min(), gap_s.min()) < -1e-4:
                    result.fail(unit, "gap_behavior or gap_soft below -1e-4")
        return result

    def work(self) -> int:
        """Fits run: one per (MDP, loss)."""
        return sum(len(group_rows(path, "loss_variant", "order")) for path in self.outputs())


def count_rows(path: str) -> int:
    """Data rows of a CSV: its lines minus the header."""
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


WORKLOADS = {w.name: w for w in (RegressGrid, ValueSweep)}
