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
from dataclasses import dataclass, field

import numpy as np

from .losses import LossSpec, _clipped_terms, loss_grads, loss_values
from .mdp import DatasetCounts, OfflineDataset, TabularMdp

__all__ = [
    "TrainConfig",
    "ValueTables",
    "IterationRecord",
    "DivergenceError",
    "v_step",
    "q_step",
    "train",
]


class DivergenceError(RuntimeError):
    """A value table left the finite, data-supported range.

    Carries the offending state and the residual that produced the bad
    gradient when known.
    """

    def __init__(self, message: str, state: int | None = None, residual: float | None = None):
        super().__init__(message)
        self.state = state
        self.residual = residual


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
        if not (self.lr_v > 0 and self.tolerance > 0):
            raise ValueError("lr_v and tolerance must be positive")
        if self.escape_factor is not None and not self.escape_factor > 0:
            raise ValueError("escape_factor must be positive or None")


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
    loss: LossSpec,
    lr: float,
    steps: int,
    mode: str = "gradient",
) -> np.ndarray:
    """Update V against the dataset's Q residuals; absent states are untouched.

    ``counts`` is the dataset's summary from :meth:`OfflineDataset.counts`.
    Gradient mode descends each state's dataset-weighted mean loss over its
    observed actions.  Closed-form mode (squared loss only) jumps straight to
    the weighted mean of Q(s, .).
    """
    s_count = q.shape[0]
    rows, weights = counts.pair_states, counts.pair_weights
    q_seen = q[counts.observed]
    v_new = v.astype(float).copy()
    if mode == "closed_form_n2":
        if not _is_squared(loss):
            raise ValueError("closed_form_n2 requires the squared loss")
        means = np.bincount(rows, weights=weights * q_seen, minlength=s_count)
        v_new[rows] = means[rows]
        return v_new
    if mode != "gradient":
        raise ValueError(f"unknown v_step mode {mode!r}")
    for _ in range(steps):
        residuals = q_seen - v_new[rows]
        finite = np.isfinite(residuals)
        if not finite.all():
            state = int(rows[np.argmin(finite)])
            raise DivergenceError(
                f"non-finite residual while fitting V at state {state}", state=state
            )
        # one call over the observed pairs; the clipped variant shares its max over them
        grads = loss_grads(loss, residuals)
        # absent states get an exact zero, so the update leaves them untouched
        state_grad = np.bincount(rows, weights=weights * grads, minlength=s_count)
        finite_grad = np.isfinite(state_grad)
        if not finite_grad.all():
            state = int(np.argmin(finite_grad))
            bad = residuals[rows == state]
            worst = float(bad[np.argmax(np.abs(bad))])
            raise DivergenceError(
                f"non-finite gradient while fitting V at state {state} "
                f"(residual about {worst:.6g})",
                state=state,
                residual=worst,
            )
        v_new = v_new - lr * state_grad
    return v_new


def q_step(
    q: np.ndarray,
    v: np.ndarray,
    counts: DatasetCounts,
    gamma: float,
) -> np.ndarray:
    """Set Q to the dataset mean of r + gamma V(s'); absent pairs are untouched."""
    present = counts.observed
    sums = np.sum(counts.visits * (counts.mean_reward + gamma * v), axis=2)
    means = sums / np.maximum(counts.pair_counts, 1.0)
    q_new = q.astype(float).copy()
    q_new[present] = means[present]
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
    """Alternate q_step and v_step until V stops moving.

    Divergence does not raise; the partial trace comes back flagged, with the
    note naming what escaped.
    """
    s_count, a_count = mdp.num_states, mdp.num_actions
    counts = dataset.counts(s_count, a_count)
    present = counts.observed
    seen_counts = counts.pair_counts[present]
    bound = _value_scale_bound(mdp, config.loss, config.escape_factor)
    v = np.zeros(s_count)
    q = np.zeros((s_count, a_count))
    trace: list[IterationRecord] = []
    for it in range(1, config.outer_iterations + 1):
        try:
            q = q_step(q, v, counts, mdp.gamma)
            v_new = v_step(
                v, q, counts, config.loss, config.lr_v, config.v_steps, mode=config.v_mode
            )
        except DivergenceError as err:
            return ValueTables(
                v=v, q=q, iterations=it, converged=False, diverged=True,
                divergence_note=str(err), trace=trace,
            )
        finite = np.all(np.isfinite(v_new)) and np.all(np.isfinite(q))
        escaped = finite and (
            float(np.max(np.abs(v_new))) > bound or float(np.max(np.abs(q))) > bound
        )
        if not finite or escaped:
            what = "non-finite" if not finite else f"beyond the value-scale bound {bound:.6g}"
            return ValueTables(
                v=v_new, q=q, iterations=it, converged=False, diverged=True,
                divergence_note=f"table entries went {what} at iteration {it}", trace=trace,
            )
        change = float(np.max(np.abs(v_new - v)))
        residuals = (q - v_new[:, None])[present]
        v_loss = _dataset_v_loss(config.loss, residuals, seen_counts)
        # row mean of (r + gamma V(s') - Q(s, a))**2: per-cell gaps plus the within-cell spread
        gaps = counts.mean_reward + mdp.gamma * v_new - q[:, :, None]
        q_loss = float((np.sum(counts.visits * gaps**2) + counts.reward_sq_dev) / len(dataset))
        trace.append(IterationRecord(it, change, v_loss, q_loss))
        v = v_new
        if change < config.tolerance:
            return ValueTables(
                v=v, q=q, iterations=it, converged=True,
                final_v_loss=v_loss, final_q_loss=q_loss, trace=trace,
            )
    last = trace[-1] if trace else IterationRecord(0, math.nan, math.nan, math.nan)
    return ValueTables(
        v=v, q=q, iterations=config.outer_iterations, converged=False,
        final_v_loss=last.v_loss, final_q_loss=last.q_loss, trace=trace,
    )
