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

from .losses import LossSpec, _clipped_terms, _row_grads, loss_values
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
    it keeps its input V, and its note names the state where it broke.
    """
    v_new = v.astype(float)
    q_seen = q[:, counts.observed]
    k_count, s_count = v_new.shape
    notes = [""] * k_count
    rows, weights = counts.pair_states, counts.pair_weights
    # row k's pairs fall in bins k * S + state of the flattened table, so one
    # bincount sums every row and one take gathers every row's V
    bins = rows + s_count * np.arange(k_count)[:, None]
    flat_bins = bins.ravel()

    def state_sums(values: np.ndarray) -> np.ndarray:
        sums = np.bincount(flat_bins, weights=(weights * values).ravel(),
                           minlength=k_count * s_count)
        return sums.reshape(k_count, s_count)

    if mode == "closed_form_n2":
        if not all(_is_squared(spec) for spec in loss):
            raise ValueError("closed_form_n2 requires the squared loss")
        means = state_sums(q_seen)
        v_new[:, rows] = means[:, rows]
        return v_new, notes
    if mode != "gradient":
        raise ValueError(f"unknown v_step mode {mode!r}")
    grads_of = _row_grads(list(loss), len(rows))
    rate = np.broadcast_to(np.reshape(lr, (-1, 1)), (k_count, s_count)).astype(float)
    stopped = np.zeros(k_count, dtype=bool)

    def stop(row: int, note: str) -> None:
        # the row's Q and V are parked at zero, so its residuals and gradients stay
        # exact zeros and raise nothing; its bins and its clipped maximum are its
        # own, so the other rows never read them
        notes[row] = note
        stopped[row] = True
        q_seen[row] = 0.0
        v_new[row] = 0.0

    # an overflow lands as an infinity: the checks below catch it on the next
    # step, and the caller's table check after the last one
    with np.errstate(all="ignore"):
        for _ in range(steps):
            residuals = q_seen - v_new.take(bins)
            finite = np.isfinite(residuals)
            if not finite.all():
                for row in np.flatnonzero(~finite.all(axis=1)):
                    state = int(rows[np.argmin(finite[row])])
                    stop(row, f"non-finite residual while fitting V at state {state}")
                    residuals[row] = 0.0
            # one kernel call per group of rows; a clipped row takes its max over its
            # own pairs, and absent states get an exact zero, so they stay untouched
            state_grad = state_sums(grads_of(residuals))
            finite = np.isfinite(state_grad)
            if not finite.all():
                for row in np.flatnonzero(~finite.all(axis=1)):
                    state = int(np.argmin(finite[row]))
                    bad = residuals[row][rows == state]
                    worst = float(bad[np.argmax(np.abs(bad))])
                    stop(row, f"non-finite gradient while fitting V at state {state} "
                              f"(residual about {worst:.6g})")
                    state_grad[row] = 0.0
            state_grad *= rate
            v_new -= state_grad
    v_new[stopped] = v[stopped]
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


def _dataset_v_loss(loss: LossSpec, residuals: np.ndarray, weights: np.ndarray) -> float:
    """Row mean of the V loss from the observed pairs' residuals and counts."""
    if loss.variant == "clipped_gumbel":
        values = _clipped_terms(residuals, loss.beta, loss.clip)
    else:
        values = np.asarray(loss_values(loss, residuals))
    return float(np.sum(values * weights) / np.sum(weights))


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
    # row i, iteration j + 1: (max change of V, V loss, Q loss)
    traces = np.full((len(configs), outer, 3), np.nan)
    live = np.arange(len(configs))  # the config of each row
    v = np.zeros((len(configs), s_count))
    q = np.zeros((len(configs), s_count, a_count))

    def finish(i: int, recorded: int, **fields) -> None:
        results[i] = ValueTables(trace=traces[i, :recorded], **fields)

    for it in range(1, outer + 1):
        q = q_step(q, v, counts, mdp.gamma)
        v_new, notes = v_step(v, q, counts, [configs[i].loss for i in live], rates[live],
                              v_steps, mode=v_mode)
        for row, i in enumerate(live):
            config, bound, v_row, q_row = configs[i], bounds[i], v_new[row], q[row]
            if notes[row]:
                # the row stopped inside v_step and kept its pre-step V
                finish(i, it - 1, v=v_row, q=q_row, iterations=it, converged=False,
                       diverged=True, divergence_note=notes[row])
                continue
            finite = np.all(np.isfinite(v_row)) and np.all(np.isfinite(q_row))
            escaped = finite and (
                float(np.max(np.abs(v_row))) > bound or float(np.max(np.abs(q_row))) > bound
            )
            if not finite or escaped:
                what = "non-finite" if not finite else f"beyond the value-scale bound {bound:.6g}"
                finish(i, it - 1, v=v_row, q=q_row, iterations=it, converged=False,
                       diverged=True, divergence_note=f"table entries went {what} at iteration {it}")
                continue
            # huge finite tables overflow these to +inf, which is what they record
            with np.errstate(all="ignore"):
                change = float(np.max(np.abs(v_row - v[row])))
                residuals = (q_row - v_row[:, None])[present]
                v_loss = _dataset_v_loss(config.loss, residuals, seen_counts)
                # row mean of (r + gamma V(s') - Q(s, a))**2: per-cell gaps plus the
                # within-cell spread; an empty cell's gap counts as 0, so 0 * inf never forms
                gaps = counts.mean_reward + mdp.gamma * v_row - q_row[:, :, None]
                gaps[~visited] = 0.0
                q_loss = float((np.sum(counts.visits * gaps**2) + counts.reward_sq_dev)
                               / len(dataset))
            traces[i, it - 1] = change, v_loss, q_loss
            if change < config.tolerance:
                finish(i, it, v=v_row, q=q_row, iterations=it, converged=True,
                       final_v_loss=v_loss, final_q_loss=q_loss)
        keep = np.array([results[i] is None for i in live])
        live, v, q = live[keep], v_new[keep], q[keep]
        if not live.size:
            return results
    for row, i in enumerate(live):
        finish(i, outer, v=v[row], q=q[row], iterations=outer, converged=False,
               final_v_loss=float(traces[i, -1, 1]), final_q_loss=float(traces[i, -1, 2]))
    return results
