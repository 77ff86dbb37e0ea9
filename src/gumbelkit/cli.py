"""Command-line front end: every experiment as a subcommand emitting CSV.

Subcommands: ``loss-curve``, ``err-dist``, ``regress``, ``mdp-train``,
``compare``.  Every run honors ``--seed`` (a fixed constant when absent, so
default runs reproduce byte for byte) and writes exactly one plain-text
manifest next to each CSV recording the resolved configuration.  Divergence
inside an experiment is data, not failure; only usage, configuration, and
I/O errors exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .distributions import implied_error_density
from .losses import LossSpec, loss_values
from .mdp import behavior_value, generate_dataset, load_mdp, soft_value, zoo, zoo_names
from .regression import (
    DEFAULT_BETAS,
    DEFAULT_CHECKPOINTS,
    EXPERIMENT_COLUMNS,
    RegressionConfig,
    experiment_rows,
    run_experiment,
)
from .rng import stream
from .stats import t_test_from_summary
from .value_fitting import TrainConfig, train_many

DEFAULT_SEED = 20_240_214

_LOSS_ALIASES = {
    "gumbel": "gumbel",
    "clipped": "clipped_gumbel",
    "clipped_gumbel": "clipped_gumbel",
    "expanded": "expanded_gumbel",
    "expanded_gumbel": "expanded_gumbel",
    "l2": "l2",
    "expectile": "expectile",
}


def _blank_none(value):
    """A CSV or manifest cell: an unset (None) parameter is written empty."""
    return "" if value is None else value


def _seed(text: str) -> int:
    """The --seed type: a non-negative integer, as numpy's seeding requires."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(out_path: str, subcommand: str, seed: int, config: dict) -> None:
    manifest_path = out_path + ".manifest.txt"
    entries = {
        "subcommand": subcommand,
        "seed": seed,
        "tool_version": __version__,
        "output_files": os.path.basename(out_path),
    }
    entries.update({f"config.{k}": v for k, v in config.items()})
    with open(manifest_path, "w", encoding="utf-8") as fh:
        for key in sorted(entries):
            fh.write(f"{key}={_fmt(entries[key])}\n")


def _parse_grid(text: str, parser: argparse.ArgumentParser) -> np.ndarray:
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        parser.error(f"grid must look like lo:hi:step, got {text!r}")
    if step <= 0 or hi < lo:
        parser.error(f"grid must have positive step and hi >= lo, got {text!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    grid = lo + step * np.arange(count)
    if grid.size == 0:
        parser.error("grid is empty")
    return grid


def _parse_bounds(text: str, parser: argparse.ArgumentParser) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        parser.error(f"bounds must look like lo:hi, got {text!r}")
    if not hi > lo:
        parser.error(f"bounds must have hi > lo, got {text!r}")
    return lo, hi


def _parse_orders(text: str, parser: argparse.ArgumentParser) -> list[int]:
    if not text.strip():
        return []
    orders = []
    for piece in text.split(","):
        try:
            n = int(piece)
        except ValueError:
            parser.error(f"orders must be integers, got {piece!r}")
        if n < 2 or n % 2 != 0:
            parser.error(f"order must be even and >= 2, got {n}")
        orders.append(n)
    return orders


def _parse_floats(text: str, parser: argparse.ArgumentParser, what: str) -> list[float]:
    try:
        return [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        parser.error(f"{what} must be a comma list of reals, got {text!r}")


def _build_spec(parser, variant_alias: str, beta: float, order: int | None,
                clip: float, tau: float) -> LossSpec:
    variant = _LOSS_ALIASES.get(variant_alias)
    if variant is None:
        parser.error(f"unknown loss {variant_alias!r}, expected one of {sorted(set(_LOSS_ALIASES))}")
    try:
        if variant == "expanded_gumbel":
            if order is None:
                parser.error("--order is required for the expanded loss")
            return LossSpec.expanded(order, beta=beta)
        if variant == "clipped_gumbel":
            return LossSpec.clipped(beta=beta, clip=clip)
        if variant == "expectile":
            return LossSpec.expectile(tau)
        if variant == "l2":
            return LossSpec.l2(beta=beta)
        return LossSpec.gumbel(beta=beta)
    except ValueError as err:
        parser.error(str(err))


def _check_clip_tau(parser, clip: float, tau: float) -> None:
    """--clip and --tau by LossSpec's own rules, whether or not a selected loss reads them."""
    _build_spec(parser, "clipped", 1.0, None, clip, tau)
    _build_spec(parser, "expectile", 1.0, None, clip, tau)


def _loss_specs(args, parser, task: str) -> list[LossSpec]:
    """The expanded losses named by --orders, then the variants named by --include."""
    # checked here too: --beta also sets the soft oracle, and expectile ignores it
    if not (math.isfinite(args.beta) and args.beta > 0):
        parser.error(f"beta must be a positive finite real, got {args.beta}")
    _check_clip_tau(parser, args.clip, args.tau)
    include = [s.strip() for s in args.include.split(",") if s.strip() and s.strip() != "none"]
    specs = [_build_spec(parser, "expanded", args.beta, n, args.clip, args.tau)
             for n in _parse_orders(args.orders, parser)]
    specs += [_build_spec(parser, alias, args.beta, None, args.clip, args.tau) for alias in include]
    if not specs:
        parser.error(f"nothing to {task}: give --orders and/or --include")
    return specs


def _cmd_loss_curve(args, parser) -> int:
    grid = _parse_grid(args.grid, parser)
    specs = _loss_specs(args, parser, "tabulate")
    rows = []
    for spec in specs:
        values = np.atleast_1d(loss_values(spec, grid))
        order = _blank_none(spec.order)
        for z, val in zip(grid.tolist(), values.tolist()):
            rows.append((spec.variant, order, args.beta, z, val))
    rows.sort(key=lambda r: (r[0], r[1] if r[1] != "" else -1, r[3]))
    _write_csv(args.out, ("loss_variant", "order", "beta", "residual", "loss"), rows)
    _write_manifest(
        args.out, "loss-curve", args.seed,
        {"beta": args.beta, "orders": args.orders, "include": args.include, "grid": args.grid,
         "clip": args.clip, "tau": args.tau},
    )
    return 0


def _cmd_err_dist(args, parser) -> int:
    lo, hi = _parse_bounds(args.bounds, parser)
    if args.points < 3:
        parser.error("--points must be at least 3")
    grid = np.linspace(lo, hi, args.points)
    specs = _loss_specs(args, parser, "tabulate")
    rows = []
    normalizers = {}
    for spec in specs:
        curve = implied_error_density(spec, grid)
        order = _blank_none(spec.order)
        integral = curve.trapezoid_integral()
        key = spec.variant if spec.order is None else f"{spec.variant}_{spec.order}"
        normalizers[f"normalizer.{key}"] = curve.normalizer
        for z, dens in curve.rows():
            rows.append((spec.variant, order, args.beta, z, dens, integral))
    rows.sort(key=lambda r: (r[0], r[1] if r[1] != "" else -1, r[3]))
    _write_csv(
        args.out,
        ("loss_variant", "order", "beta", "z", "density", "curve_integral"),
        rows,
    )
    config = {"beta": args.beta, "orders": args.orders, "include": args.include,
              "clip": args.clip, "tau": args.tau, "bounds": args.bounds, "points": args.points}
    config.update(normalizers)
    _write_manifest(args.out, "err-dist", args.seed, config)
    return 0


def _read_config_file(path: str, parser) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    parser.error(f"config line must look like key = value, got {line!r}")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as err:
        parser.error(f"cannot read config file: {err}")
    return values


# every regress setting, keyed by its flag's dest and config-file key: (default, cast)
_REGRESS_SETTINGS = {
    "loss": ("gumbel", str),
    "order": (None, int),
    "clip": (7.0, float),
    "tau": (0.7, float),
    "betas": (None, str),
    "repeats": (100, int),
    "data_size": (10_000, int),
    "lr": (0.02, float),
    "batch_size": (32, int),
    "init_h": (1.0, float),
    "target": ("minimizer", str),
    "escape_factor": ("20", str),
    "fixed_dataset": (False, lambda text: text.lower() in ("1", "true", "yes")),
}


def _regress_settings(args, parser) -> dict:
    """Each regress setting from its flag, else from the --config file, else its default."""
    file_cfg = _read_config_file(args.config, parser) if args.config else {}
    unknown = sorted(set(file_cfg) - set(_REGRESS_SETTINGS))
    if unknown:
        parser.error(f"unknown config key(s) {', '.join(unknown)}; "
                     f"known: {', '.join(sorted(_REGRESS_SETTINGS))}")
    settings = {key: default for key, (default, _) in _REGRESS_SETTINGS.items()}
    for key, text in file_cfg.items():
        try:
            settings[key] = _REGRESS_SETTINGS[key][1](text)
        except ValueError:
            parser.error(f"config file {args.config!r}: bad value {text!r} for key {key}")
    settings.update({key: getattr(args, key) for key in settings if getattr(args, key) is not None})
    return settings


def _cmd_regress(args, parser) -> int:
    cfg = _regress_settings(args, parser)
    beta_list = tuple(_parse_floats(cfg["betas"], parser, "betas")) if cfg["betas"] else DEFAULT_BETAS
    if not all(math.isfinite(b) and b > 0 for b in beta_list):
        parser.error(f"betas must be positive finite reals, got {cfg['betas']!r}")
    escape_raw = cfg["escape_factor"]
    escape = None if str(escape_raw).lower() == "none" else float(escape_raw)

    _check_clip_tau(parser, cfg["clip"], cfg["tau"])
    # reference spec at beta 1; run_experiment re-keys beta per cell
    spec = _build_spec(parser, cfg["loss"], 1.0, cfg["order"], cfg["clip"], cfg["tau"])
    try:
        base = RegressionConfig(
            beta_data=1.0,
            beta_reg=1.0,
            loss=spec if spec.variant == "expectile" else dataclasses.replace(spec, beta=1.0),
            n_data=cfg["data_size"],
            lr=cfg["lr"],
            batch_size=cfg["batch_size"],
            repeats=cfg["repeats"],
            master_seed=args.seed,
            init_h=cfg["init_h"],
            resample_data=not cfg["fixed_dataset"],
            target=cfg["target"],
            escape_factor=escape,
        )
    except ValueError as err:
        parser.error(str(err))
    cells = run_experiment(base, betas=beta_list)
    _write_csv(args.out, EXPERIMENT_COLUMNS, experiment_rows(cells))
    _write_manifest(
        args.out, "regress", args.seed,
        {
            "loss": spec.variant, "order": _blank_none(spec.order),
            "clip": _blank_none(spec.clip),
            "tau": _blank_none(spec.tau),
            "betas": ",".join(repr(b) for b in sorted(beta_list)),
            "repeats": cfg["repeats"], "data_size": cfg["data_size"], "lr": cfg["lr"],
            "batch_size": cfg["batch_size"], "init_h": cfg["init_h"], "target": cfg["target"],
            "checkpoints": ",".join(str(c) for c in DEFAULT_CHECKPOINTS),
            "resample_data": not cfg["fixed_dataset"],
            "escape_factor": "none" if escape is None else escape,
        },
    )
    return 0


def _cmd_mdp_train(args, parser) -> int:
    if os.path.exists(args.mdp):
        try:
            mdp = load_mdp(args.mdp)
        except (OSError, ValueError, KeyError) as err:
            parser.error(f"cannot load MDP file {args.mdp!r}: {err}")
        mdp_name = mdp.name or os.path.basename(args.mdp)
    else:
        try:
            mdp = zoo(args.mdp)
        except KeyError:
            parser.error(
                f"unknown MDP {args.mdp!r}; built-in zoo: {', '.join(zoo_names())} "
                f"(or pass a JSON file path)"
            )
        mdp_name = args.mdp
    specs = _loss_specs(args, parser, "train")
    if args.mode == "closed" and any(not (s.variant == "l2" or s.order == 2) for s in specs):
        parser.error("--mode closed requires every loss to be the squared one (order 2 or l2)")

    size = args.dataset_size
    if size is None:
        size = 200 * mdp.num_states * mdp.num_actions
    rng = stream(args.seed, 0)
    try:
        dataset = generate_dataset(mdp, args.dataset, size, rng=rng)
    except ValueError as err:
        parser.error(str(err))

    v_mu = behavior_value(mdp)
    v_soft, _ = soft_value(mdp, beta=args.beta)
    lr_v = args.lr_v if args.lr_v is not None else 0.002 * args.beta * args.beta
    try:
        configs = [
            TrainConfig(
                loss=spec,
                v_steps=args.v_steps,
                v_mode="closed_form_n2" if args.mode == "closed" else "gradient",
                lr_v=lr_v,
                outer_iterations=args.outer,
                tolerance=args.tol,
            )
            for spec in specs
        ]
    except ValueError as err:
        parser.error(str(err))
    rows = []
    for spec, tables in zip(specs, train_many(mdp, dataset, configs)):
        order = _blank_none(spec.order)
        for s in range(mdp.num_states):
            rows.append(
                (
                    mdp_name, spec.variant, order, args.beta, s,
                    float(tables.v[s]), float(v_mu[s]), float(v_soft[s]),
                    float(tables.v[s] - v_mu[s]), float(v_soft[s] - tables.v[s]),
                    tables.iterations, int(tables.converged), int(tables.diverged),
                )
            )
    rows.sort(key=lambda r: (r[1], r[2] if r[2] != "" else -1, r[4]))
    _write_csv(
        args.out,
        ("mdp", "loss_variant", "order", "beta", "state", "v_fitted", "v_behavior",
         "v_soft", "gap_behavior", "gap_soft", "iterations", "converged", "diverged"),
        rows,
    )
    _write_manifest(
        args.out, "mdp-train", args.seed,
        {"mdp": mdp_name, "beta": args.beta, "orders": args.orders, "include": args.include,
         "clip": args.clip, "tau": args.tau, "mode": args.mode, "dataset": args.dataset,
         "dataset_size": size, "lr_v": lr_v, "v_steps": args.v_steps, "outer": args.outer,
         "tol": args.tol},
    )
    return 0


def _read_result_csv(path: str, parser) -> dict:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in EXPERIMENT_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                parser.error(f"{path}: missing columns {missing}")
            table = {}
            for row in reader:
                key = (row["cell_beta_data"], row["cell_beta_reg"], row["checkpoint"])
                table[key] = row
            return table
    except OSError as err:
        parser.error(f"cannot read {path}: {err}")


def _cmd_compare(args, parser) -> int:
    if not 0 < args.alpha < 1:
        parser.error(f"alpha must lie in (0, 1), got {args.alpha}")
    table_a = _read_result_csv(args.csv_a, parser)
    table_b = _read_result_csv(args.csv_b, parser)
    keys = sorted(set(table_a) & set(table_b), key=lambda k: (float(k[0]), float(k[1]), int(k[2])))
    if not keys:
        parser.error("the two files share no (cell, checkpoint) keys")
    kind = "student" if args.student else "welch"
    rows = []
    for key in keys:
        ra, rb = table_a[key], table_b[key]
        n_a = int(ra["repeats"]) - int(ra["diverged_count"])
        n_b = int(rb["repeats"]) - int(rb["diverged_count"])
        base = [float(key[0]), float(key[1]), int(key[2])]
        if ra["mean_abs_error"] == "" or rb["mean_abs_error"] == "":
            rows.append(base + [n_a, "", "", n_b, "", "", "", "", "", "all_diverged"])
            continue
        mean_a, mean_b = float(ra["mean_abs_error"]), float(rb["mean_abs_error"])
        if n_a < 2 or n_b < 2 or ra["std_abs_error"] == "" or rb["std_abs_error"] == "":
            rows.append(base + [n_a, mean_a, "", n_b, mean_b, "", "", "", "", "insufficient"])
            continue
        std_a, std_b = float(ra["std_abs_error"]), float(rb["std_abs_error"])
        result = t_test_from_summary(n_a, mean_a, std_a, n_b, mean_b, std_b, kind=kind)
        rows.append(
            base
            + [n_a, mean_a, std_a, n_b, mean_b, std_b, result.t, result.dof, result.p,
               "significant" if result.p < args.alpha else "ok"]
        )
    _write_csv(
        args.out,
        ("cell_beta_data", "cell_beta_reg", "checkpoint", "n_a", "mean_a", "std_a",
         "n_b", "mean_b", "std_b", "t_stat", "dof", "p_value", "flag"),
        rows,
    )
    _write_manifest(
        args.out, "compare", args.seed,
        {"csv_a": os.path.basename(args.csv_a), "csv_b": os.path.basename(args.csv_b),
         "kind": kind, "alpha": args.alpha},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gumbelkit",
        description="Gumbel-family loss experiments with deterministic CSV output.",
    )
    parser.add_argument("--version", action="version", version=f"gumbelkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                       help="master seed (fixed constant when omitted)")
        p.add_argument("--out", required=True, help="output CSV path")

    def loss_flags(p, orders, include, include_help):
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--orders", default=orders, help="comma list of even truncation orders")
        p.add_argument("--include", default=include, help=include_help)
        p.add_argument("--clip", type=float, default=7.0)
        p.add_argument("--tau", type=float, default=0.7)

    p = sub.add_parser("loss-curve", help="tabulate loss values over a residual grid")
    common(p)
    loss_flags(p, "2,4,8", "gumbel", "extra variants: gumbel, l2, clipped, expectile, or none")
    p.add_argument("--grid", default="-3:3:0.01", help="residual grid as lo:hi:step")
    p.set_defaults(func=_cmd_loss_curve)

    p = sub.add_parser("err-dist", help="normalized implied error densities")
    common(p)
    loss_flags(p, "2,4,8,12,16", "none",
               "extra variants (the plain gumbel needs a wide left bound)")
    p.add_argument("--bounds", default="-10:10", help="density span as lo:hi")
    p.add_argument("--points", type=int, default=20_001)
    p.set_defaults(func=_cmd_err_dist)

    p = sub.add_parser("regress", help="scalar-regression stability grid")
    common(p)
    p.add_argument("--loss", default=None, help="gumbel, clipped, expanded, or l2")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--clip", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--betas", default=None, help="comma list for the (beta_data, beta_reg) grid")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--data-size", dest="data_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--init-h", dest="init_h", type=float, default=None)
    p.add_argument("--target", choices=("minimizer", "logsumexp"), default=None)
    p.add_argument("--escape-factor", dest="escape_factor", default=None,
                   help="escape-bound multiple of the data scale, or 'none'")
    p.add_argument("--fixed-dataset", action="store_true", default=None,
                   help="reuse one dataset across repeats instead of resampling")
    p.add_argument("--config", default=None, help="key = value file; explicit flags win")
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("mdp-train", help="in-sample value fitting against exact oracles")
    common(p)
    p.add_argument("--mdp", default="risky5", help="zoo name or JSON file path")
    loss_flags(p, "2,4,8,12,20", "none", "extra variants, e.g. gumbel")
    p.add_argument("--mode", choices=("closed", "gradient"), default="gradient")
    p.add_argument("--dataset", choices=("exhaustive", "rollout"), default="exhaustive")
    p.add_argument("--dataset-size", dest="dataset_size", type=int, default=None)
    p.add_argument("--lr-v", dest="lr_v", type=float, default=None,
                   help="V step size (default 0.002 * beta^2)")
    p.add_argument("--v-steps", dest="v_steps", type=int, default=150)
    p.add_argument("--outer", type=int, default=400)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_mdp_train)

    p = sub.add_parser("compare", help="Welch test between two regress CSVs")
    p.add_argument("csv_a")
    p.add_argument("csv_b")
    common(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--student", action="store_true", help="pooled-variance variant")
    p.set_defaults(func=_cmd_compare)
    return parser


_DASH_VALUE_FLAGS = ("--grid", "--bounds", "--betas")


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join flag and value for flags whose values may start with a dash."""
    merged, i = [], 0
    while i < len(argv):
        token = argv[i]
        if token in _DASH_VALUE_FLAGS and i + 1 < len(argv):
            merged.append(token + "=" + argv[i + 1])
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_dash_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args, parser)
    except (OSError, ValueError) as err:
        print(f"gumbelkit: {err}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    sys.exit(main())
