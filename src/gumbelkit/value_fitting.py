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
    "IterationRecord",
    "DivergenceError",
    "v_step",
    "q_step",
    "train",
    "train_many",
]


class DivergenceError(RuntimeError):
    """A value table left the finite, data-supported range.

    Carries the offending state, the residual that produced the bad
    gradient when known, and the row of a stacked fit that it hit.
    """

    def __init__(self, message: str, state: int | None = None, residual: float | None = None,
                 row: int = 0):
        super().__init__(message)
        self.state = state
        self.residual = residual
        self.row = row


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


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    max_change: float
    v_loss: float
    q_loss: float


@dataclass
class ValueTables:
    """Fitted tables plus the trace of the run that produced them."""

    v: np.ndarray
    q: np.ndarray
    iterations: int
    converged: bool
    diverged: bool = False
    divergence_note: str = ""
    final_v_loss: float = math.nan
    final_q_loss: float = math.nan
    trace: list[IterationRecord] = field(default_factory=list)


def v_step(
    v: np.ndarray,
    q: np.ndarray,
    counts: DatasetCounts,
    loss: LossSpec | Sequence[LossSpec],
    lr: float | Sequence[float],
    steps: int,
    mode: str = "gradient",
) -> np.ndarray:
    """Update V against the dataset's Q residuals; absent states are untouched.

    Takes one fit, ``v`` (S,) and ``q`` (S, A), or a stack of fits, ``v``
    (K, S) and ``q`` (K, S, A) with one loss and one rate per row (a single
    loss or rate serves every row).  Each row is updated as if alone.
    ``counts`` is the dataset's summary from :meth:`OfflineDataset.counts`.
    Gradient mode descends each state's dataset-weighted mean loss over its
    observed actions.  Closed-form mode (squared loss only) jumps straight to
    the weighted mean of Q(s, .).  A non-finite residual or gradient raises
    :class:`DivergenceError` naming the first row it hit.
    """
    single = v.ndim == 1
    if single:
        v, q = v[None], q[None]
    v_new = v.astype(float)
    q_seen = q[:, counts.observed]
    k_count, s_count = v_new.shape
    specs = [loss] * k_count if isinstance(loss, LossSpec) else list(loss)
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
        if not all(_is_squared(spec) for spec in specs):
            raise ValueError("closed_form_n2 requires the squared loss")
        means = state_sums(q_seen)
        v_new[:, rows] = means[:, rows]
        return v_new[0] if single else v_new
    if mode != "gradient":
        raise ValueError(f"unknown v_step mode {mode!r}")
    grads_of = _row_grads(specs, len(rows))
    rate = np.broadcast_to(np.reshape(lr, (-1, 1)), (k_count, s_count)).astype(float)
    for _ in range(steps):
        residuals = q_seen - v_new.take(bins)
        finite = np.isfinite(residuals)
        if not finite.all():
            row, pair = np.unravel_index(np.argmin(finite), finite.shape)
            state = int(rows[pair])
            raise DivergenceError(
                f"non-finite residual while fitting V at state {state}", state=state, row=int(row)
            )
        # one kernel call per group of rows; a clipped row takes its max over its
        # own pairs, and absent states get an exact zero, so they stay untouched
        state_grad = state_sums(grads_of(residuals))
        finite_grad = np.isfinite(state_grad)
        if not finite_grad.all():
            row, state = map(int, np.unravel_index(np.argmin(finite_grad), finite_grad.shape))
            bad = residuals[row][rows == state]
            worst = float(bad[np.argmax(np.abs(bad))])
            raise DivergenceError(
                f"non-finite gradient while fitting V at state {state} "
                f"(residual about {worst:.6g})",
                state=state,
                residual=worst,
                row=row,
            )
        state_grad *= rate
        v_new -= state_grad
    return v_new[0] if single else v_new


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
    rates = np.array([c.lr_v for c in configs])
    bounds = [_value_scale_bound(mdp, c.loss, c.escape_factor) for c in configs]
    results: list[ValueTables | None] = [None] * len(configs)
    traces: list[list[IterationRecord]] = [[] for _ in configs]
    live = np.arange(len(configs))  # the config of each row
    v = np.zeros((len(configs), s_count))
    q = np.zeros((len(configs), s_count, a_count))

    def finish(i: int, **fields) -> None:
        results[i] = ValueTables(trace=traces[i], **fields)

    for it in range(1, outer + 1):
        q = q_step(q, v, counts, mdp.gamma)
        while True:
            try:
                v_new = v_step(v, q, counts, [configs[i].loss for i in live], rates[live],
                               v_steps, mode=v_mode)
                break
            except DivergenceError as err:
                # the row ends here with its pre-step V; the rest redo the step without it
                finish(live[err.row], v=v[err.row], q=q[err.row], iterations=it, converged=False,
                       diverged=True, divergence_note=str(err))
                keep = np.arange(live.size) != err.row
                live, v, q = live[keep], v[keep], q[keep]
                if not live.size:
                    return results
        for row, i in enumerate(live):
            config, bound, v_row, q_row = configs[i], bounds[i], v_new[row], q[row]
            finite = np.all(np.isfinite(v_row)) and np.all(np.isfinite(q_row))
            escaped = finite and (
                float(np.max(np.abs(v_row))) > bound or float(np.max(np.abs(q_row))) > bound
            )
            if not finite or escaped:
                what = "non-finite" if not finite else f"beyond the value-scale bound {bound:.6g}"
                finish(i, v=v_row, q=q_row, iterations=it, converged=False, diverged=True,
                       divergence_note=f"table entries went {what} at iteration {it}")
                continue
            change = float(np.max(np.abs(v_row - v[row])))
            residuals = (q_row - v_row[:, None])[present]
            v_loss = _dataset_v_loss(config.loss, residuals, seen_counts)
            # row mean of (r + gamma V(s') - Q(s, a))**2: per-cell gaps plus the within-cell spread
            gaps = counts.mean_reward + mdp.gamma * v_row - q_row[:, :, None]
            q_loss = float((np.sum(counts.visits * gaps**2) + counts.reward_sq_dev) / len(dataset))
            traces[i].append(IterationRecord(it, change, v_loss, q_loss))
            if change < config.tolerance:
                finish(i, v=v_row, q=q_row, iterations=it, converged=True,
                       final_v_loss=v_loss, final_q_loss=q_loss)
        keep = np.array([results[i] is None for i in live])
        live, v, q = live[keep], v_new[keep], q[keep]
        if not live.size:
            return results
    for row, i in enumerate(live):
        last = traces[i][-1] if traces[i] else IterationRecord(0, math.nan, math.nan, math.nan)
        finish(i, v=v[row], q=q[row], iterations=outer, converged=False,
               final_v_loss=last.v_loss, final_q_loss=last.q_loss)
    return results
