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
import math
import os
import sys

import numpy as np

from . import __version__
from .distributions import implied_error_density
from .losses import VARIANTS, LossSpec, loss_values
from .mdp import behavior_value, generate_dataset, load_mdp, soft_value, zoo, zoo_names
from .regression import (
    DEFAULT_BETAS,
    DEFAULT_CHECKPOINTS,
    EXPERIMENT_COLUMNS,
    RegressionConfig,
    cell_bytes,
    experiment_rows,
    run_experiment,
)
from .rng import stream
from .stats import t_test_from_summary
from .value_fitting import TrainConfig, train_many

DEFAULT_SEED = 20_240_214

# the CLI names that differ from a variant's own
_LOSS_ALIASES = {"clipped": "clipped_gumbel", "expanded": "expanded_gumbel"}

# the most points a loss-curve --grid may hold: it writes one loss's rows at a time,
# and a run at this cap with the four default losses peaks near 42 MB resident
MAX_GRID_POINTS = 100_000

# the most points err-dist --points may ask for: it writes one density's rows at a
# time, and a run at this cap peaks near 43 MB resident at the default orders, 46 MB
# with three more
MAX_DENSITY_POINTS = 100_000

# the most bytes one regress cell may hold, counted by regression.cell_bytes: its
# datasets, its rows of a chunk's drawn batches and its repeats' random streams.  A
# cell over the stack budget runs alone, and a 106.6 MB cell (1000 repeats at the
# default sizes) peaks at 141 MB resident, so a run at this cap should peak near 1.1 GB
MAX_CELL_BYTES = 1 << 30

# the largest mdp-train --dataset-size: a run at this cap peaks near 85 MB resident,
# and a rollout of this size takes about 23 s to draw
MAX_DATASET_SIZE = 1_000_000

# the most V steps an mdp-train fit may ask for, --v-steps times --outer.  At the
# default five losses a V step takes about 22 us, an outer iteration about 190 us
# more, and each fit keeps 24 bytes of trace an iteration, so a run at this cap that
# never converges takes from about 25 s (--v-steps 150) to about 3 min and 120 MB
# of traces (--v-steps 1)
MAX_V_STEPS = 1_000_000


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


def _escape_factor(text: str) -> float | None:
    """The --escape-factor type and config cast: 'none', or a real that RegressionConfig checks."""
    try:
        return None if text.lower() == "none" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a real or 'none', got {text!r}") from None


def _write_csv(path: str, header, rows) -> None:
    # csv writes a float as its repr and any other value but None as its str, and
    # a Python float's str is its repr: each cell reads as in the manifest
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
            fh.write(f"{key}={entries[key]}\n")


def _flag_settings(args, **resolved) -> dict:
    """A manifest's settings: each flag of the run but --seed and --out, the
    values it resolved in place of theirs."""
    return {**{key: value for key, value in vars(args).items()
               if key not in ("command", "func", "seed", "out")}, **resolved}


def _parse_list(text: str, parser: argparse.ArgumentParser, what: str, cast, sep: str = ",") -> list:
    """Each piece of a ``sep`` list, cast; an empty or uncastable piece is a usage error."""
    pieces = text.split(sep)
    try:
        if all(piece.strip() for piece in pieces):
            return [cast(piece) for piece in pieces]
    except ValueError:
        pass
    parser.error(f"{what} must be a {sep!r} list with no empty or malformed piece, got {text!r}")


def _parse_reals(text: str, parser: argparse.ArgumentParser, what: str, form: str) -> list[float]:
    """The finite reals of a colon list shaped like ``form``, such as lo:hi."""
    parts = _parse_list(text, parser, what, float, ":")
    if len(parts) != form.count(":") + 1 or not all(map(math.isfinite, parts)):
        parser.error(f"{what} must look like {form} with finite parts, got {text!r}")
    return parts


def _parse_grid(text: str, parser: argparse.ArgumentParser) -> np.ndarray:
    lo, hi, step = _parse_reals(text, parser, "grid", "lo:hi:step")
    if step <= 0 or hi < lo:
        parser.error(f"grid must have positive step and hi >= lo, got {text!r}")
    steps = (hi - lo) / step + 1e-9
    if not steps < MAX_GRID_POINTS:
        parser.error(f"grid must have at most {MAX_GRID_POINTS} points, got {text!r}")
    return lo + step * np.arange(int(math.floor(steps)) + 1)


def _parse_bounds(text: str, parser: argparse.ArgumentParser) -> tuple[float, float]:
    lo, hi = _parse_reals(text, parser, "bounds", "lo:hi")
    if not (hi > lo and math.isfinite(hi - lo)):
        parser.error(f"bounds must have hi > lo and a finite span, got {text!r}")
    return lo, hi


def _parse_orders(text: str, parser: argparse.ArgumentParser) -> list[int]:
    orders = _parse_list(text, parser, "orders", int) if text.strip() else []
    for n in orders:
        if n < 2 or n % 2 != 0:
            parser.error(f"order must be even and >= 2, got {n}")
    return orders


def _build_spec(parser, variant_alias: str, beta: float, order: int | None,
                clip: float, tau: float) -> LossSpec:
    """The named loss, reading --clip only for clipped and --tau only for expectile,
    whose beta stays 1.0.  A stray --order is LossSpec's error."""
    variant = _LOSS_ALIASES.get(variant_alias, variant_alias)
    if variant not in VARIANTS:
        parser.error(f"unknown loss {variant_alias!r}, expected one of {sorted({*_LOSS_ALIASES, *VARIANTS})}")
    if variant == "expanded_gumbel" and order is None:
        parser.error("--order is required for the expanded loss")
    expectile = variant == "expectile"
    try:
        return LossSpec(variant, 1.0 if expectile else beta, order,
                        clip if variant == "clipped_gumbel" else None, tau if expectile else None)
    except ValueError as err:
        parser.error(str(err))


def _check_clip_tau(parser, clip: float, tau: float) -> None:
    """--clip and --tau by LossSpec's own rules, whether or not a selected loss reads them."""
    _build_spec(parser, "clipped", 1.0, None, clip, tau)
    _build_spec(parser, "expectile", 1.0, None, clip, tau)


def _loss_key(spec: LossSpec) -> str:
    """A loss as the manifest and the errors name it: its variant, and its order if any."""
    return spec.variant if spec.order is None else f"{spec.variant}_{spec.order}"


def _loss_specs(args, parser, task: str) -> list[LossSpec]:
    """The losses named by --orders and --include, each once, in the order every
    table lists them: by variant, and the expanded ones by order."""
    # checked here too: --beta also sets the soft oracle, and expectile ignores it
    if not (math.isfinite(args.beta) and args.beta > 0):
        parser.error(f"beta must be a positive finite real, got {args.beta}")
    _check_clip_tau(parser, args.clip, args.tau)
    include = _parse_list(args.include, parser, "include", str.strip) if args.include.strip() else []
    specs = [_build_spec(parser, "expanded", args.beta, n, args.clip, args.tau)
             for n in _parse_orders(args.orders, parser)]
    specs += [_build_spec(parser, alias, args.beta, None, args.clip, args.tau)
              for alias in include if alias != "none"]
    if not specs:
        parser.error(f"nothing to {task}: give --orders and/or --include")
    specs.sort(key=lambda spec: (spec.variant, spec.order or 0))
    for a, b in zip(specs, specs[1:]):
        if a == b:
            parser.error(f"loss {_loss_key(a)} is named twice")
    return specs


def _cmd_loss_curve(args, parser):
    grid = _parse_grid(args.grid, parser)
    specs = _loss_specs(args, parser, "tabulate")
    residuals = grid.tolist()
    rows = ((spec.variant, _blank_none(spec.order), args.beta, z, val)
            for spec in specs
            for z, val in zip(residuals, np.atleast_1d(loss_values(spec, grid)).tolist()))
    return ("loss_variant", "order", "beta", "residual", "loss"), rows, _flag_settings(args)


def _cmd_err_dist(args, parser):
    lo, hi = _parse_bounds(args.bounds, parser)
    if not 3 <= args.points <= MAX_DENSITY_POINTS:
        parser.error(f"--points must be at least 3 and at most {MAX_DENSITY_POINTS}, got {args.points}")
    grid = np.linspace(lo, hi, args.points)
    specs = _loss_specs(args, parser, "tabulate")
    # every density is built before the CSV is opened, since one may raise
    curves = [implied_error_density(spec, grid) for spec in specs]
    integrals = [curve.trapezoid_integral() for curve in curves]
    rows = ((spec.variant, _blank_none(spec.order), args.beta, z, dens, integral)
            for spec, curve, integral in zip(specs, curves, integrals)
            for z, dens in curve.rows())
    normalizers = {f"normalizer.{_loss_key(spec)}": curve.normalizer
                   for spec, curve in zip(specs, curves)}
    return (("loss_variant", "order", "beta", "z", "density", "curve_integral"), rows,
            _flag_settings(args, **normalizers))


# the values of the fixed_dataset config key, in any case
_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

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
    "escape_factor": (20.0, _escape_factor),
    "fixed_dataset": (False, lambda text: _SWITCH[text.lower()]),
}


def _regress_settings(args, parser) -> dict:
    """Each regress setting from its flag, else from the --config file's one line
    of ``key = value`` for it, else its default."""
    settings = {key: default for key, (default, _) in _REGRESS_SETTINGS.items()}
    lines, seen = [], set()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                lines = [line.strip() for line in fh]
        except (OSError, UnicodeDecodeError) as err:
            parser.error(f"cannot read config file: {err}")
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"config line must look like key = value, got {line!r}")
        key, _, text = line.partition("=")
        key, text = key.strip().replace("-", "_"), text.strip()
        if key not in _REGRESS_SETTINGS:
            parser.error(f"unknown config key(s) {key}; known: {', '.join(sorted(_REGRESS_SETTINGS))}")
        if key in seen:
            parser.error(f"config file {args.config!r}: key {key} is set twice")
        seen.add(key)
        try:
            settings[key] = _REGRESS_SETTINGS[key][1](text)
        except (ValueError, KeyError, argparse.ArgumentTypeError):
            parser.error(f"config file {args.config!r}: bad value {text!r} for key {key}")
    # a flag left out leaves no attribute (the parser's default is SUPPRESS)
    settings.update({key: value for key, value in vars(args).items() if key in settings})
    return settings


def _cmd_regress(args, parser):
    cfg = _regress_settings(args, parser)
    # compare keys rows by cell, so a repeated beta would overwrite a cell's rows
    beta_list = DEFAULT_BETAS if cfg["betas"] is None else tuple(_parse_list(cfg["betas"], parser, "betas", float))
    if not (len(set(beta_list)) == len(beta_list)
            and all(math.isfinite(b) and b > 0 for b in beta_list)):
        parser.error(f"betas must be one or more distinct positive finite reals, got {cfg['betas']!r}")
    escape = cfg["escape_factor"]
    _check_clip_tau(parser, cfg["clip"], cfg["tau"])
    # reference spec at beta 1; run_experiment re-keys beta per cell
    spec = _build_spec(parser, cfg["loss"], 1.0, cfg["order"], cfg["clip"], cfg["tau"])
    try:
        base = RegressionConfig(
            beta_data=1.0,
            beta_reg=1.0,
            loss=spec,
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
    if cell_bytes(base) > MAX_CELL_BYTES:
        parser.error(f"a regress cell would hold {cell_bytes(base)} bytes of datasets, drawn "
                     f"batches and random streams, over the cap of {MAX_CELL_BYTES}: lower "
                     f"--repeats, --data-size or --batch-size")
    cells = run_experiment(base, betas=beta_list)
    # popped first: unpacking cfg would keep the key
    resample = not cfg.pop("fixed_dataset")
    return EXPERIMENT_COLUMNS, experiment_rows(cells), {
        **cfg, "loss": spec.variant, "order": _blank_none(spec.order),
        "clip": _blank_none(spec.clip), "tau": _blank_none(spec.tau),
        "betas": ",".join(repr(b) for b in sorted(beta_list)),
        "escape_factor": "none" if escape is None else escape, "resample_data": resample,
        "checkpoints": ",".join(str(c) for c in DEFAULT_CHECKPOINTS)}


def _cmd_mdp_train(args, parser):
    if os.path.exists(args.mdp):
        try:
            mdp = load_mdp(args.mdp)
        except (OSError, ValueError, KeyError, TypeError) as err:
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
    lr_v = args.lr_v if args.lr_v is not None else 0.002 * args.beta * args.beta
    if args.lr_v is None and not (math.isfinite(lr_v) and lr_v > 0):
        parser.error(f"--lr-v defaults to 0.002 * beta^2, here {lr_v}, which is not positive and finite")
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
    if args.v_steps * args.outer > MAX_V_STEPS:
        parser.error(f"--v-steps times --outer must be at most {MAX_V_STEPS}, "
                     f"got {args.v_steps * args.outer}")
    size = args.dataset_size
    if size is None:
        size = 200 * mdp.num_states * mdp.num_actions
    if size > MAX_DATASET_SIZE:
        parser.error(f"--dataset-size must be at most {MAX_DATASET_SIZE}, got {size}")
    # only a rollout draws; building its stream loads numpy.random
    rng = stream(args.seed, 0) if args.dataset == "rollout" else None
    try:
        dataset = generate_dataset(mdp, args.dataset, size, rng=rng)
    except ValueError as err:
        parser.error(str(err))

    v_mu = behavior_value(mdp)
    v_soft, _ = soft_value(mdp, beta=args.beta)
    rows = ((mdp_name, spec.variant, _blank_none(spec.order), args.beta, s,
             float(tables.v[s]), float(v_mu[s]), float(v_soft[s]),
             float(tables.v[s] - v_mu[s]), float(v_soft[s] - tables.v[s]),
             tables.iterations, int(tables.converged), int(tables.diverged))
            for spec, tables in zip(specs, train_many(mdp, dataset, configs))
            for s in range(mdp.num_states))
    return (("mdp", "loss_variant", "order", "beta", "state", "v_fitted", "v_behavior",
             "v_soft", "gap_behavior", "gap_soft", "iterations", "converged", "diverged"),
            rows, _flag_settings(args, mdp=mdp_name, dataset_size=size, lr_v=lr_v))


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


def _cmd_compare(args, parser):
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
    return (("cell_beta_data", "cell_beta_reg", "checkpoint", "n_a", "mean_a", "std_a",
             "n_b", "mean_b", "std_b", "t_stat", "dof", "p_value", "flag"), rows,
            {"csv_a": os.path.basename(args.csv_a), "csv_b": os.path.basename(args.csv_b),
             "kind": kind, "alpha": args.alpha})


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

    # each setting's default is in _REGRESS_SETTINGS, as a --config file may set it
    p = sub.add_parser("regress", help="scalar-regression stability grid",
                       argument_default=argparse.SUPPRESS)
    common(p)
    p.add_argument("--loss", help="gumbel, clipped, expanded, expectile, or l2")
    p.add_argument("--order", type=int)
    p.add_argument("--clip", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--betas", help="comma list for the (beta_data, beta_reg) grid")
    p.add_argument("--repeats", type=int)
    p.add_argument("--data-size", dest="data_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--init-h", dest="init_h", type=float)
    p.add_argument("--target", choices=("minimizer", "logsumexp"))
    p.add_argument("--escape-factor", dest="escape_factor", type=_escape_factor,
                   help="escape-bound multiple of the data scale, or 'none'")
    p.add_argument("--fixed-dataset", action="store_true",
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
        header, rows, settings = args.func(args, parser)
        _write_csv(args.out, header, rows)
        _write_manifest(args.out, args.command, args.seed, settings)
    except (OSError, ValueError, MemoryError) as err:
        print(f"gumbelkit: {str(err) or 'out of memory'}", file=sys.stderr)
        sys.exit(1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
