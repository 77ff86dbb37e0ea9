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
overflow reach literal infinities and are caught either way.  The checks run
once per chunk of steps; a row that fails them is checked step by step from the
chunk's recorded path to find where it diverged (see :func:`run_cell`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import GumbelParams, sample_gumbel
from .losses import LossSpec, _loss_finite_within, _spec_kernel
from .rng import stream

__all__ = [
    "RegressionConfig",
    "RegressionTrace",
    "DEFAULT_BETAS",
    "generate_data",
    "target_value",
    "run_cell",
    "run_cells",
    "cell_bytes",
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


def _escape_bound(config: RegressionConfig, data_scale: float) -> float:
    """Estimates beyond this are collapse: the loss minimizer always lies
    inside the data range, so the bound scales with the data's largest
    magnitude (and the start point, so unusual initializations cannot trip it)."""
    if config.escape_factor is None:
        return math.inf
    return config.escape_factor * (1.0 + max(data_scale, abs(config.init_h)))


# steps of batch indices each live repeat draws at a time: enough to amortize
# the draw call, small enough that a stack holds only a slice of its batches
_DRAW_CHUNK = 100

# bytes a repeat's random stream holds: a Philox Generator counts 969 B by
# tracemalloc and 1,032 B resident, each measured over many thousand streams
_STREAM_BYTES = 1 << 10

# bytes one stack of cells may hold, counted by cell_bytes: run_experiment cuts
# the grid into stacks that fit, and a larger cell runs alone.  A step's cost is
# per call below some tens of rows and per row above, so the 10-repeat cells
# (1.07 MB each) gain from stacking, five to a stack, and 100-repeat ones
# (10.7 MB) do not.  All nine 10-repeat cells in one stack would step faster
# still, but they would add 4 MB, a tenth, to the peak resident memory
_STACK_BUDGET = 6 << 20

# what the cells of one stack must share; everything else is per row, the
# loss's beta too
_SHARED = ("loss", "n_data", "lr", "batch_size", "checkpoints", "resample_data")


def _shared(config: RegressionConfig, name: str):
    """A field the cells of a stack must agree on; a loss counts without its beta."""
    value = getattr(config, name)
    return dataclasses.replace(value, beta=1.0) if name == "loss" else value


def cell_bytes(config: RegressionConfig) -> int:
    """The bytes a cell's rows hold while they step: their datasets (one shared
    one without ``resample_data``), their rows of a chunk's drawn batches and
    their random streams."""
    datasets = config.repeats if config.resample_data else 1
    drawn = config.repeats * min(_DRAW_CHUNK, config.checkpoints[-1]) * config.batch_size
    return 8 * (datasets * config.n_data + drawn) + _STREAM_BYTES * config.repeats


def run_cell(config: RegressionConfig) -> RegressionTrace:
    """All repeats of one cell: :func:`run_cells` of the cell alone."""
    return run_cells([config])[0]


def run_cells(configs: list[RegressionConfig]) -> list[RegressionTrace]:
    """The repeats of cells whose losses differ at most in beta: SGD runs stepped
    together as rows of (rows, batch) arrays, one trace per cell.

    The cells must share their loss up to its beta, ``n_data``, ``lr``,
    ``batch_size``, ``checkpoints`` and ``resample_data``; each row keeps its own
    cell's beta, data stream, target, escape bound and start point.  Each row
    draws its data and then its batch indices from its own stream, and the batch
    is the last array axis, so a row computes exactly what it would compute alone.  A row stops
    at its first divergence and leaves the live set; the loop ends once no row
    is live.  Without ``resample_data`` every row of a cell reads one dataset,
    drawn from the cell's stream slot 0.

    Each chunk of steps runs unchecked, computing gradients only, and records
    every row's path.  A row is kept if nothing in its chunk could have failed a
    check; the path of any other row is checked step by step up to its first
    failing step, so the result is the same as checking every step.
    """
    first = configs[0]
    for name in _SHARED:
        if any(_shared(config, name) != _shared(first, name) for config in configs):
            raise ValueError(f"cells stepped together must share {name}")
    n, batch, checkpoints, loss = first.n_data, first.batch_size, first.checkpoints, first.loss
    rngs, data, reduced = [], [], []
    for config in configs:
        cell = [stream(config.master_seed, *config.stream_key, 1 + i) for i in range(config.repeats)]
        if first.resample_data:
            sets = [generate_data(config.beta_data, n, rng) for rng in cell]
        else:
            sets = [generate_data(config.beta_data, n, stream(config.master_seed, *config.stream_key, 0))]
        rngs += cell
        # each dataset is reduced once, and a shared one serves every repeat
        copies = config.repeats // len(sets)
        data += sets * copies                   # the dataset each repeat reads
        for x in sets:
            scale = float(np.max(np.abs(x)))
            reduced += [(target_value(x, config.beta_reg, config.target), scale,
                         _escape_bound(config, scale), config.init_h, config.loss.beta)] * copies
    targets, scales, bounds, init, betas = np.array(reduced).T

    count, total = len(rngs), checkpoints[-1]
    errors = np.full((count, len(checkpoints)), np.nan)
    final_h = np.array(init)
    diverged_at = np.zeros(count, dtype=int)
    # the live rows, in order, and their estimates
    live, h = np.arange(count), final_h.copy()
    # one buffer for every chunk's batches, so that no chunk allocates its own
    buffer = np.empty((count, min(_DRAW_CHUNK, total), batch))
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, total, _DRAW_CHUNK):
            if live.size == 0:
                break
            span = min(_DRAW_CHUNK, total - done)
            # drawn[k, j] is live row k's batch for step j + 1, gathered a row at a
            # time so that each gather stays inside one dataset
            drawn = buffer[:live.size, :span]
            for k, i in enumerate(live):
                drawn[k] = data[i][rngs[i].integers(0, n, size=(span, batch))]
            beta, bound = betas[live], bounds[live]
            # fast pass: the steps without their checks, on gradients alone.
            # path[j] is the estimate before step j + 1; a non-finite gradient
            # leaves the estimate non-finite.  beta is spread to the full (rows,
            # batch) shape, since numpy dispatches same-shape operands faster
            grads_of = _spec_kernel(loss, beta=np.repeat(beta[:, None], batch, axis=1))
            path = np.empty((span + 1, live.size))
            path[0] = h
            residuals, grads = np.empty((2, live.size, batch))
            for j in range(span):
                grads_of(np.subtract(drawn[:, j], h[:, None], residuals), grads)
                # numpy's float64 mean, without its Python wrapper
                h = np.subtract(h, first.lr * (np.add.reduce(grads, axis=-1) / batch),
                                out=path[j + 1])
            # every residual of a chunk is at most its row's reach in magnitude.  A
            # row whose estimate stayed finite and within its bound, and whose reach
            # keeps its loss finite, passed every check on every step.  The path of
            # any other row is exact up to its first failing step, so checking it
            # from the path finds that step; a row that fails none lives the chunk out
            peak = np.abs(path).max(axis=0)
            passed = np.isfinite(peak) & (peak <= bound)
            passed &= _loss_finite_within(loss, scales[live] + peak, beta)
            rows = np.flatnonzero(~passed)
            lived = np.full(live.size, span)       # the steps each row passed
            for j in range(span):
                if rows.size == 0:
                    break
                before, after = path[j, rows], path[j + 1, rows]
                residuals = drawn[rows, j] - before[:, None]
                losses = _spec_kernel(loss, values=True, beta=beta[rows, None])(residuals)
                grads = _spec_kernel(loss, beta=beta[rows, None])(residuals)
                # a row with a non-finite gradient has a non-finite mean, so the
                # step check covers the gradients
                ok = np.isfinite(residuals).all(axis=-1) & np.isfinite(losses).all(axis=-1)
                ok &= np.isfinite(np.add.reduce(grads, axis=-1) / batch)
                alive = ok & np.isfinite(after) & (np.abs(after) <= bound[rows])
                # a row failing the step checks keeps its estimate; one that fails
                # the estimate checks keeps its update
                dead = rows[~alive]
                lived[dead] = j
                final_h[live[dead]] = np.where(ok, after, before)[~alive]
                diverged_at[live[dead]] = done + j + 1
                rows = rows[alive]
            for k, cp in enumerate(checkpoints):
                if done < cp <= done + span:
                    reached = lived >= cp - done
                    errors[live[reached], k] = np.abs(path[cp - done] - targets[live])[reached]
            kept = lived == span
            live, h = live[kept], path[span, kept]
    final_h[live] = h
    splits = np.cumsum([config.repeats for config in configs])[:-1]
    cells = zip(*(np.split(a, splits) for a in (errors, diverged_at, targets, final_h)))
    return [RegressionTrace(config, *cell) for config, cell in zip(configs, cells)]


def run_experiment(
    base: RegressionConfig,
    betas: tuple[float, ...] = DEFAULT_BETAS,
) -> list[RegressionTrace]:
    """Run the full (beta_data, beta_reg) grid derived from a base config.

    Cells come in sorted (beta_data, beta_reg) order; each cell gets its own
    stream key so the output is independent of execution order.  Their losses
    differ only in beta, so the grid is cut, in cell order, into stacks that
    :func:`run_cells` steps together, as many cells a stack as fit in
    ``_STACK_BUDGET`` bytes by :func:`cell_bytes`.
    """
    grid = sorted(betas)
    configs = []
    for i, beta_data in enumerate(grid):
        for j, beta_reg in enumerate(grid):
            loss = base.loss
            if loss.variant != "expectile":
                loss = dataclasses.replace(loss, beta=beta_reg)
            configs.append(dataclasses.replace(
                base,
                beta_data=beta_data,
                beta_reg=beta_reg,
                loss=loss,
                stream_key=(i * len(grid) + j,),
            ))
    per_stack = max(1, _STACK_BUDGET // cell_bytes(base))
    cells = []
    for s in range(0, len(configs), per_stack):
        cells += run_cells(configs[s:s + per_stack])
    return cells


def full_batch_descent(
    data: np.ndarray, spec: LossSpec, lr: float, updates: int, init_h: float = 0.0
) -> float:
    """Deterministic gradient descent on the mean loss over the whole dataset."""
    h = init_h
    arr = np.atleast_1d(np.asarray(data, dtype=float))
    grads_of = _spec_kernel(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(updates):
            residuals = arr - h
            if not np.all(np.isfinite(residuals)):
                return math.inf
            step = float(np.add.reduce(grads_of(residuals), axis=None) / arr.size)
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
