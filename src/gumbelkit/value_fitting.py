"""In-sample tabular value learning on offline data.

V is fitted against in-dataset Q targets under a chosen loss (residual
Q(s,a) - V(s)), Q is set to its least-squares fit, the dataset mean of
r + gamma V(s'), and the two steps alternate to a fixed point.  With the
squared loss the fixed point is the behavior value; with the exponential loss
it is the soft optimal value; the series-truncated losses land in between,
moving from the former to the latter as the order grows.

Divergence is reported when a table entry or gradient stops being finite or
when an entry escapes the value scale implied by the rewards (see
``escape_factor`` on :class:`TrainConfig`); the exponential loss's blow-up
can freeze at huge finite values where gradients flatten, so non-finiteness
alone is not a sufficient detector.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .losses import LossSpec, _groups, _row_kernel
from .mdp import DatasetCounts, OfflineDataset, TabularMdp

__all__ = [
    "TrainConfig",
    "ValueTables",
    "v_step",
    "q_step",
    "train",
    "train_many",
]


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and step sizes for the alternating fit.

    Each outer iteration sets Q(s,a) to the dataset mean of r + gamma V(s')
    in one sweep, then updates V.  v_mode ``gradient`` runs v_steps descent steps per outer iteration;
    ``closed_form_n2`` is the exact mean update, valid only when the loss is
    the squared one (order 2 or l2).
    """

    loss: LossSpec
    v_steps: int = 50
    v_mode: str = "gradient"
    lr_v: float = 0.02
    outer_iterations: int = 500
    tolerance: float = 1e-9
    escape_factor: float | None = 100.0

    def __post_init__(self) -> None:
        if self.v_mode not in ("closed_form_n2", "gradient"):
            raise ValueError(f"v_mode must be 'closed_form_n2' or 'gradient', got {self.v_mode!r}")
        if self.v_mode == "closed_form_n2" and not _is_squared(self.loss):
            raise ValueError("closed_form_n2 requires the squared loss (l2 or order 2)")
        if min(self.v_steps, self.outer_iterations) <= 0:
            raise ValueError("v_steps and outer_iterations must be positive")
        if not all(math.isfinite(x) and x > 0 for x in (self.lr_v, self.tolerance)):
            raise ValueError("lr_v and tolerance must be positive and finite")
        if self.escape_factor is not None and not (
            math.isfinite(self.escape_factor) and self.escape_factor > 0
        ):
            raise ValueError("escape_factor must be positive and finite, or None")


def _is_squared(spec: LossSpec) -> bool:
    return spec.variant == "l2" or (spec.variant == "expanded_gumbel" and spec.order == 2)


@dataclass
class ValueTables:
    """Fitted tables plus the trace of the run that produced them.

    ``trace`` holds one row per recorded iteration, row j for iteration j + 1,
    with columns (max change of V, V loss, Q loss).  A fit that diverges
    records no row for the iteration that stopped it.
    """

    v: np.ndarray
    q: np.ndarray
    iterations: int
    converged: bool
    diverged: bool = False
    divergence_note: str = ""
    final_v_loss: float = math.nan
    final_q_loss: float = math.nan
    trace: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))


# the most steps of V's path that v_step holds at once
_PATH_CHUNK = 100


def v_step(
    v: np.ndarray,
    q: np.ndarray,
    counts: DatasetCounts,
    loss: Sequence[LossSpec],
    lr: Sequence[float],
    steps: int,
    mode: str = "gradient",
) -> tuple[np.ndarray, list[str]]:
    """Update a stack of V tables against the dataset's Q residuals; absent states are untouched.

    Takes ``v`` (K, S) and ``q`` (K, S, A) with one loss and one rate per row,
    and updates each row as if alone.  ``counts`` is the dataset's summary
    from :meth:`OfflineDataset.counts`.  Gradient mode descends each state's
    dataset-weighted mean loss over its observed actions.  Closed-form mode
    (squared loss only) jumps straight to the weighted mean of Q(s, .).

    Returns the new V and one note per row, empty for a row that ran every
    step.  A row whose residuals or gradients stop being finite stops there:
    it keeps its input V, and its note names the state where it broke.  V's
    path is held one chunk of at most ``_PATH_CHUNK`` steps at a time, so the
    memory does not grow with ``steps``.
    """
    v_new = v.astype(float)
    q_seen = q[:, counts.observed]
    k_count, s_count = v_new.shape
    notes = [""] * k_count
    rows, weights = counts.pair_states, counts.pair_weights
    # row k's pairs fall in bins k * S + state of the flattened table, so one
    # bincount sums every row and one take gathers every row's V; the first n
    # rows of bins do the same for a stack of n rows
    bins = rows + s_count * np.arange(k_count)[:, None]
    flat_bins = bins.ravel()

    def state_sums(values: np.ndarray) -> np.ndarray:
        sums = np.bincount(flat_bins[: values.size], weights=(weights * values).ravel(),
                           minlength=len(values) * s_count)
        return sums.reshape(len(values), s_count)

    if mode == "closed_form_n2":
        if not all(_is_squared(spec) for spec in loss):
            raise ValueError("closed_form_n2 requires the squared loss")
        means = state_sums(q_seen)
        v_new[:, rows] = means[:, rows]
        return v_new, notes
    if mode != "gradient":
        raise ValueError(f"unknown v_step mode {mode!r}")
    grads_of = _row_kernel(tuple(loss), len(rows))
    # the stack's tables, rates and weights flattened, so that every step's
    # operands are contiguous and of one shape, which numpy dispatches fastest
    q_flat, size = q_seen.reshape(-1), k_count * s_count
    rate = np.broadcast_to(np.reshape(lr, (-1, 1)), (k_count, s_count)).astype(float).ravel()
    flat_weights = np.tile(weights, k_count)
    # a row's reach in a chunk, max |q| plus the chunk's max |V|, bounds every
    # residual |q - v|, and rounding is monotone: while it is finite, so is each
    q_reach = np.abs(q_seen).max(axis=1, initial=0.0)
    # buffers every step reuses: path[j] is V before the chunk's step j + 1
    path = np.empty((min(_PATH_CHUNK, steps) + 1, k_count, s_count))
    flat_path = path.reshape(len(path), size)
    residuals, grads = np.empty(bins.shape), np.empty(bins.shape)
    flat_residuals, flat_grads = residuals.reshape(-1), grads.reshape(-1)
    unbroken = np.ones(k_count, dtype=bool)

    def check(suspects: np.ndarray, span: int) -> None:
        """Step the suspects' chunk again from its path, with every check, and
        note and retire each row at the first step that fails one."""
        kernel = _row_kernel(tuple(loss[k] for k in suspects), len(rows))
        q_rows, path_rows, bins_rows = q_seen[suspects], path[:span, suspects], bins[: suspects.size]
        alive = np.ones(suspects.size, dtype=bool)
        for j in range(span):
            residuals = q_rows - path_rows[j].take(bins_rows)
            finite = np.isfinite(residuals)
            for at in np.flatnonzero(alive & ~finite.all(axis=1)):
                state = int(rows[np.argmin(finite[at])])
                notes[suspects[at]] = f"non-finite residual while fitting V at state {state}"
                alive[at] = False
            finite = np.isfinite(state_sums(kernel(residuals)))
            for at in np.flatnonzero(alive & ~finite.all(axis=1)):
                state = int(np.argmin(finite[at]))
                bad = residuals[at][rows == state]
                worst = float(bad[np.argmax(np.abs(bad))])
                notes[suspects[at]] = (f"non-finite gradient while fitting V at state {state} "
                                       f"(residual about {worst:.6g})")
                alive[at] = False
            if not alive.any():
                break
        unbroken[suspects] = alive

    with np.errstate(all="ignore"):
        # fast pass, without checks, one chunk of steps at a time.  One kernel call
        # per group of rows; a clipped row takes its max over its own pairs, and
        # absent states get an exact zero, so they stay untouched
        for done in range(0, steps, _PATH_CHUNK):
            span = min(_PATH_CHUNK, steps - done)
            flat_path[0] = v_new.reshape(-1)
            v_new = flat_path[0]
            for j in range(span):
                np.subtract(q_flat, v_new[flat_bins], flat_residuals)
                grads_of(residuals, grads)
                np.multiply(flat_grads, flat_weights, flat_grads)
                state_grad = np.bincount(flat_bins, flat_grads, size)
                np.multiply(state_grad, rate, state_grad)
                v_new = np.subtract(v_new, state_grad, flat_path[j + 1])
            # a non-finite residual, gradient or V leaves the row's reach non-finite.
            # The path of such a row is exact up to the step where it broke, if it
            # did, so only those rows are checked, step by step from their path.  An
            # overflow of V lands as an infinity, which the checks catch on the next
            # step, or the caller's table check.  A row broken in an earlier chunk
            # stays broken
            reach = q_reach + np.abs(path[: span + 1]).max(axis=(0, 2))
            suspects = np.flatnonzero(unbroken & ~np.isfinite(reach))
            if suspects.size:
                check(suspects, span)
    v_new = v_new.reshape(k_count, s_count).copy()
    v_new[~unbroken] = v[~unbroken]
    return v_new, notes


def q_step(
    q: np.ndarray,
    v: np.ndarray,
    counts: DatasetCounts,
    gamma: float,
) -> np.ndarray:
    """Set Q to the dataset mean of r + gamma V(s'); absent pairs are untouched.

    Takes one table pair, ``q`` (S, A) and ``v`` (S,), or a stack of them,
    ``q`` (K, S, A) and ``v`` (K, S).
    """
    present = counts.observed
    # huge finite tables overflow to infinities here, which the caller's checks catch
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.sum(counts.visits * (counts.mean_reward + gamma * v[..., None, None, :]), axis=-1)
        means = sums / np.maximum(counts.pair_counts, 1.0)
    q_new = q.astype(float)
    q_new[..., present] = means[..., present]
    return q_new


def _value_scale_bound(mdp: TabularMdp, loss: LossSpec, factor: float | None) -> float:
    if factor is None:
        return math.inf
    reward_span = float(np.max(np.abs(mdp.reward)))
    return factor * (reward_span / (1.0 - mdp.gamma) + loss.beta * math.log(mdp.num_actions + 1) + 1.0)


def train(mdp: TabularMdp, dataset: OfflineDataset, config: TrainConfig) -> ValueTables:
    """Alternate q_step and v_step until V stops moving: one row of :func:`train_many`.

    Divergence does not raise; the partial trace comes back flagged, with the
    note naming what escaped.
    """
    return train_many(mdp, dataset, [config])[0]


def train_many(
    mdp: TabularMdp, dataset: OfflineDataset, configs: Sequence[TrainConfig]
) -> list[ValueTables]:
    """Fit one V and Q per config, all together as the rows of (K, S) and (K, S, A) tables.

    Each outer iteration runs one q_step and one v_step over the rows still
    running.  A row leaves when it converges, diverges or escapes its
    value-scale bound, and its tables equal those of a fit of its config
    alone, field for field.  The configs must share ``v_steps``, ``v_mode``
    and ``outer_iterations``, which set the loop's shape.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("train_many needs at least one config")
    shape = {(c.v_steps, c.v_mode, c.outer_iterations) for c in configs}
    if len(shape) > 1:
        raise ValueError("stacked configs must share v_steps, v_mode and outer_iterations")
    ((v_steps, v_mode, outer),) = shape
    s_count, a_count = mdp.num_states, mdp.num_actions
    counts = dataset.counts(s_count, a_count)
    present = counts.observed
    seen_counts = counts.pair_counts[present]
    visited = counts.visits > 0
    rates = np.array([c.lr_v for c in configs])
    bounds = [_value_scale_bound(mdp, c.loss, c.escape_factor) for c in configs]
    results: list[ValueTables | None] = [None] * len(configs)
    # row i, iteration j + 1: (max change of V, V loss, Q loss); doubled as iterations
    # run, up to outer, so its size follows them
    traces = np.full((len(configs), min(outer, 64), 3), np.nan)
    # the config of each row, in kernel group order, so that each group's rows are
    # contiguous and its gradients are written in place (see losses._row_kernel)
    live = np.array([i for rows in _groups([c.loss for c in configs]).values() for i in rows])
    v = np.zeros((len(configs), s_count))
    q = np.zeros((len(configs), s_count, a_count))

    def finish(i: int, recorded: int, **fields) -> None:
        results[i] = ValueTables(trace=traces[i, :recorded], **fields)

    for it in range(1, outer + 1):
        if it > traces.shape[1]:
            traces = np.concatenate([traces, np.full_like(traces[:, : outer - it + 1], np.nan)], axis=1)
        q = q_step(q, v, counts, mdp.gamma)
        specs = [configs[i].loss for i in live]
        v_new, notes = v_step(v, q, counts, specs, rates[live], v_steps, mode=v_mode)
        # huge finite tables overflow these to +inf, which is what they record
        with np.errstate(all="ignore"):
            peak = np.maximum(np.abs(v_new).max(axis=1), np.abs(q).max(axis=(1, 2)))
            finite = np.isfinite(peak)
            change = np.abs(v_new - v).max(axis=1)
            # gathered C-contiguous, so each row sums its pairs in the order a solo fit does
            residuals = np.ascontiguousarray((q - v_new[:, :, None])[:, present])
            values = _row_kernel(tuple(specs), len(seen_counts), values=True)(residuals)
            v_loss = (values * seen_counts).sum(axis=1) / seen_counts.sum()
            # row mean of (r + gamma V(s') - Q(s, a))**2: per-cell gaps plus the
            # within-cell spread; an empty cell's gap counts as 0, so 0 * inf never forms
            gaps = counts.mean_reward + mdp.gamma * v_new[:, None, None, :] - q[..., None]
            gaps[:, ~visited] = 0.0
            q_loss = (((counts.visits * gaps**2).reshape(len(live), -1).sum(axis=1)
                       + counts.reward_sq_dev) / len(dataset))
        for row, i in enumerate(live):
            tables = dict(v=v_new[row], q=q[row], iterations=it)
            if notes[row]:
                # the row stopped inside v_step and kept its pre-step V
                finish(i, it - 1, converged=False, diverged=True, divergence_note=notes[row],
                       **tables)
            elif not finite[row] or peak[row] > bounds[i]:
                what = ("non-finite" if not finite[row]
                        else f"beyond the value-scale bound {bounds[i]:.6g}")
                finish(i, it - 1, converged=False, diverged=True,
                       divergence_note=f"table entries went {what} at iteration {it}", **tables)
            else:
                traces[i, it - 1] = change[row], v_loss[row], q_loss[row]
                if change[row] < configs[i].tolerance:
                    finish(i, it, converged=True, final_v_loss=float(v_loss[row]),
                           final_q_loss=float(q_loss[row]), **tables)
        keep = np.array([results[i] is None for i in live])
        live, v, q = live[keep], v_new[keep], q[keep]
        if not live.size:
            return results
    for row, i in enumerate(live):
        finish(i, outer, v=v[row], q=q[row], iterations=outer, converged=False,
               final_v_loss=float(traces[i, -1, 1]), final_q_loss=float(traces[i, -1, 2]))
    return results
