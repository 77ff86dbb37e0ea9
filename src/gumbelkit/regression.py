"""Scalar-regression stability harness over mismatched temperature scales.

Data are drawn from a negated Gumbel at scale ``beta_data`` and fitted by
stochastic gradient descent on a chosen loss at scale ``beta_reg``.  The
estimate's absolute error against the empirical loss minimizer is recorded at
fixed update counts, over many independent repeats, on a grid of
(beta_data, beta_reg) cells.

Divergence detection.  A repeat is marked diverged when the estimate, a
per-sample loss, or a gradient stops being finite, or when the estimate
escapes the data's scale by a configurable factor (``escape_factor``).  The
escape test exists because in double precision the exponential loss's blow-up
overshoots the estimate to a huge but still finite value where the gradient
flattens to 1/beta and the run freezes; a non-finiteness check alone provably
never fires at these data scales, while the polynomial losses that do
overflow reach literal infinities and are caught either way.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import GumbelParams, sample_gumbel
from .losses import LossSpec, loss_grads, loss_values
from .rng import stream

__all__ = [
    "RegressionConfig",
    "RepeatResult",
    "RegressionTrace",
    "DEFAULT_BETAS",
    "generate_data",
    "target_value",
    "run_repeat",
    "run_cell",
    "run_experiment",
    "full_batch_descent",
    "experiment_rows",
    "EXPERIMENT_COLUMNS",
]

DEFAULT_BETAS = (0.5, 2.0, 10.0)
DEFAULT_CHECKPOINTS = (10, 100, 500, 1000, 2000)


@dataclass(frozen=True)
class RegressionConfig:
    """Full definition of one regression cell.

    ``loss.beta`` must equal ``beta_reg`` for every temperature-carrying
    variant.  ``init_h`` is the starting estimate; it is recorded in run
    metadata so it can be varied.  ``resample_data`` draws a fresh dataset
    per repeat; when false, one shared dataset (stream slot 0) is reused.
    ``target`` selects the reference the error is measured against:
    ``minimizer`` is beta * log mean exp(x / beta), the exact minimizer of
    the empirical exponential loss, and ``logsumexp`` is the unscaled
    log sum exp(x / beta) alternative.
    """

    beta_data: float
    beta_reg: float
    loss: LossSpec
    n_data: int = 10_000
    lr: float = 0.02
    batch_size: int = 32
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS
    repeats: int = 100
    master_seed: int = 0
    init_h: float = 1.0
    resample_data: bool = True
    target: str = "minimizer"
    escape_factor: float | None = 20.0
    stream_key: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (self.beta_data > 0 and self.beta_reg > 0):
            raise ValueError("beta_data and beta_reg must be positive")
        if self.loss.variant != "expectile" and self.loss.beta != self.beta_reg:
            raise ValueError(
                f"loss.beta ({self.loss.beta}) must equal beta_reg ({self.beta_reg})"
            )
        if self.n_data <= 0 or self.batch_size <= 0 or self.repeats <= 0:
            raise ValueError("n_data, batch_size, and repeats must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be positive and finite")
        if not math.isfinite(self.init_h):
            raise ValueError(f"init_h must be finite, got {self.init_h}")
        if len(self.checkpoints) == 0 or any(
            b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])
        ):
            raise ValueError("checkpoints must be nonempty and strictly ascending")
        if self.checkpoints[0] <= 0:
            raise ValueError("checkpoints must be positive update counts")
        if self.target not in ("minimizer", "logsumexp"):
            raise ValueError(f"target must be 'minimizer' or 'logsumexp', got {self.target!r}")
        if self.escape_factor is not None and not (
            math.isfinite(self.escape_factor) and self.escape_factor > 0
        ):
            raise ValueError("escape_factor must be positive and finite, or None")


@dataclass(frozen=True)
class RepeatResult:
    """One repeat, a row of a :class:`RegressionTrace`: per-checkpoint
    absolute errors (NaN past divergence)."""

    errors: np.ndarray
    diverged: bool
    diverged_at: int | None
    target: float
    final_h: float


@dataclass
class RegressionTrace:
    """The repeats of one cell as rows of arrays, with their aggregates.

    ``errors`` (repeats, checkpoints) holds |h - target| per checkpoint, NaN
    past a divergence.  ``diverged_at`` holds the update at which each repeat
    diverged, counting from 1, or 0 for a survivor.  Means and standard
    deviations are taken over the surviving rows only; with no survivor (mean)
    or fewer than two (std) they are None.
    """

    config: RegressionConfig
    errors: np.ndarray
    diverged_at: np.ndarray
    targets: np.ndarray
    final_h: np.ndarray
    mean_abs_error: np.ndarray | None = field(default=None, init=False)
    std_abs_error: np.ndarray | None = field(default=None, init=False)
    diverged_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        survivors = self.errors[self.diverged_at == 0]
        self.diverged_count = len(self.errors) - len(survivors)
        # taken on the errors scaled by the power of two above each column's largest,
        # which is exact and keeps the squares of errors past 1e154 from overflowing
        exponent = np.frexp(survivors.max(axis=0, initial=0.0))[1]
        scaled = np.ldexp(survivors, -exponent)
        if len(survivors) >= 1:
            self.mean_abs_error = np.ldexp(scaled.mean(axis=0), exponent)
        if len(survivors) >= 2:
            self.std_abs_error = np.ldexp(scaled.std(axis=0, ddof=1), exponent)

    @property
    def all_diverged(self) -> bool:
        return self.diverged_count == len(self.diverged_at)

    @property
    def repeats(self) -> list[RepeatResult]:
        """One :class:`RepeatResult` per row, built on each access."""
        return [
            RepeatResult(
                errors=self.errors[i],
                diverged=bool(at),
                diverged_at=int(at) if at else None,
                target=float(self.targets[i]),
                final_h=float(self.final_h[i]),
            )
            for i, at in enumerate(self.diverged_at)
        ]


def generate_data(beta_data: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the negated Gumbel at scale beta_data."""
    if not beta_data > 0:
        raise ValueError(f"beta_data must be positive, got {beta_data}")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return sample_gumbel(GumbelParams(0.0, beta_data, negated=True), rng, size=n)


def target_value(data: np.ndarray, beta_reg: float, convention: str = "minimizer") -> float:
    """Reference value the estimate is compared against.

    ``minimizer``: beta * log mean exp(x / beta), computed with a max shift;
    this is the exact minimizer of the empirical exponential loss.
    ``logsumexp``: log sum exp(x / beta) without the beta multiplier, kept as
    a selectable alternative reference.
    """
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise ValueError("data must be nonempty")
    if not beta_reg > 0:
        raise ValueError(f"beta_reg must be positive, got {beta_reg}")
    z = arr / beta_reg
    m = float(np.max(z))
    lse = m + math.log(float(np.sum(np.exp(z - m))))
    if convention == "minimizer":
        return beta_reg * (lse - math.log(arr.size))
    if convention == "logsumexp":
        return lse
    raise ValueError(f"unknown target convention {convention!r}")


def _escape_bound(config: RegressionConfig, data: np.ndarray) -> float:
    """Estimates beyond this are collapse: the loss minimizer always lies
    inside the data range, so the bound scales with the data (and the start
    point, so unusual initializations cannot trip it)."""
    if config.escape_factor is None:
        return math.inf
    scale = max(float(np.max(np.abs(data))), abs(config.init_h))
    return config.escape_factor * (1.0 + scale)


# steps of batch indices each live repeat draws at a time: enough to amortize
# the draw call, small enough that a cell holds only a slice of its index stream
_DRAW_CHUNK = 100


def run_cell(config: RegressionConfig) -> RegressionTrace:
    """All repeats of one cell: SGD runs stepped together as rows of (repeats, batch) arrays.

    Each row draws its data and then its batch indices from its own stream, and
    the batch is the last array axis, so a row computes exactly what it would
    compute alone.  A row stops at its first divergence and leaves the live
    set; the loop ends once no row is live.  Without ``resample_data`` every
    row reads one dataset, drawn from stream slot 0.
    """
    count, n = config.repeats, config.n_data
    rngs = [stream(config.master_seed, *config.stream_key, 1 + i) for i in range(count)]
    if config.resample_data:
        pool = np.empty((count, n))
        for row, rng in zip(pool, rngs):
            row[:] = generate_data(config.beta_data, n, rng)
        source = np.arange(count)              # pool row each repeat reads
    else:
        shared = stream(config.master_seed, *config.stream_key, 0)
        pool = generate_data(config.beta_data, n, shared)[None, :]
        source = np.zeros(count, dtype=int)
    targets = np.array([target_value(pool[s], config.beta_reg, config.target) for s in source])
    bounds = np.array([_escape_bound(config, pool[s]) for s in source])
    flat = pool.ravel()

    total = config.checkpoints[-1]
    cp_index = {cp: k for k, cp in enumerate(config.checkpoints)}
    errors = np.full((count, len(config.checkpoints)), np.nan)
    final_h = np.full(count, float(config.init_h))
    diverged_at = np.zeros(count, dtype=int)
    # the live rows, in order, with their estimates, targets and bounds
    live, h, target, bound = np.arange(count), final_h.copy(), targets, bounds
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, total, _DRAW_CHUNK):
            if live.size == 0:
                break
            span = min(_DRAW_CHUNK, total - done)
            picks = np.stack(
                [rngs[i].integers(0, n, size=(span, config.batch_size)) for i in live]
            )
            picks += (source[live] * n)[:, None, None]
            for j in range(span):
                t = done + j + 1
                residuals = flat[picks[:, j]] - h[:, None]
                grads = loss_grads(config.loss, residuals)
                losses = loss_values(config.loss, residuals)
                step = grads.mean(axis=-1)
                # a row with a non-finite gradient has a non-finite mean, so
                # the step check covers the gradients
                ok = (
                    np.isfinite(residuals).all(axis=-1)
                    & np.isfinite(losses).all(axis=-1)
                    & np.isfinite(step)
                )
                # a row failing the checks above keeps its estimate; one that
                # fails the checks below keeps its update
                h = np.where(ok, h - config.lr * step, h)
                alive = ok & np.isfinite(h) & (np.abs(h) <= bound)
                if t in cp_index:
                    errors[live[alive], cp_index[t]] = np.abs(h - target)[alive]
                if not alive.all():
                    dead = ~alive
                    final_h[live[dead]] = h[dead]
                    diverged_at[live[dead]] = t
                    live, h, target, bound = live[alive], h[alive], target[alive], bound[alive]
                    picks = picks[alive]
                    if live.size == 0:
                        break
    final_h[live] = h
    return RegressionTrace(config, errors, diverged_at, targets, final_h)


def run_repeat(config: RegressionConfig, repeat_index: int) -> RepeatResult:
    """One SGD run: row ``repeat_index`` of its cell, which computes it as if alone.

    Checkpoint entries record |h - target|; after a divergence the remaining
    entries stay NaN (missing, not infinite).
    """
    return run_cell(dataclasses.replace(config, repeats=repeat_index + 1)).repeats[repeat_index]


def run_experiment(
    base: RegressionConfig,
    betas: tuple[float, ...] = DEFAULT_BETAS,
) -> list[RegressionTrace]:
    """Run the full (beta_data, beta_reg) grid derived from a base config.

    Cells come in sorted (beta_data, beta_reg) order; each cell gets its own
    stream key so the output is independent of execution order.
    """
    cells = []
    grid = sorted(betas)
    for i, beta_data in enumerate(grid):
        for j, beta_reg in enumerate(grid):
            loss = base.loss
            if loss.variant != "expectile":
                loss = dataclasses.replace(loss, beta=beta_reg)
            config = dataclasses.replace(
                base,
                beta_data=beta_data,
                beta_reg=beta_reg,
                loss=loss,
                stream_key=(i * len(grid) + j,),
            )
            cells.append(run_cell(config))
    return cells


def full_batch_descent(
    data: np.ndarray, spec: LossSpec, lr: float, updates: int, init_h: float = 0.0
) -> float:
    """Deterministic gradient descent on the mean loss over the whole dataset."""
    h = init_h
    arr = np.asarray(data, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(updates):
            residuals = arr - h
            if not np.all(np.isfinite(residuals)):
                return math.inf
            step = float(np.mean(loss_grads(spec, residuals)))
            if not math.isfinite(step):
                return math.inf
            h = h - lr * step
    return h


EXPERIMENT_COLUMNS = (
    "cell_beta_data",
    "cell_beta_reg",
    "loss_variant",
    "order",
    "checkpoint",
    "mean_abs_error",
    "std_abs_error",
    "diverged_count",
    "repeats",
)


def experiment_rows(cells: list[RegressionTrace]) -> list[tuple]:
    """Flatten cell traces into EXPERIMENT_COLUMNS rows, canonically sorted.

    Aggregate fields are empty strings when fewer than two (mean: one)
    repeats survived, so the output never contains NaN text.
    """
    rows = []
    for trace in sorted(cells, key=lambda t: (t.config.beta_data, t.config.beta_reg)):
        cfg = trace.config
        order = "" if cfg.loss.order is None else cfg.loss.order
        for k, cp in enumerate(cfg.checkpoints):
            mean = "" if trace.mean_abs_error is None else float(trace.mean_abs_error[k])
            std = "" if trace.std_abs_error is None else float(trace.std_abs_error[k])
            rows.append(
                (
                    cfg.beta_data,
                    cfg.beta_reg,
                    cfg.loss.variant,
                    order,
                    cp,
                    mean,
                    std,
                    trace.diverged_count,
                    cfg.repeats,
                )
            )
    return rows
