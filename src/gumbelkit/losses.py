"""Loss families for regression under extreme-value shaped errors.

Residual convention, fixed across the whole package: ``residual = sample -
prediction`` (x - h, and Q - V in the value-learning modules).  Every loss
works on the scaled residual z = residual / beta.  Losses return per-sample
values and leave batch reduction to the caller, with one exception:
:func:`clipped_gumbel_loss` subtracts the batch maximum inside the
exponential, which couples the samples, so it is inherently a batch mean.
The batch is the last axis: a (repeats, batch) array is that many batches,
each with its own maximum.

Parameters are checked once, when a :class:`LossSpec` is built.  The
standalone kernels build one from their arguments, check that the residuals
are finite and dispatch through :func:`loss_values` or :func:`loss_grads`,
which trust the spec and take the residuals as finite: every caller in the
package checks them first.

The exponential is evaluated in double precision.  When e**z overflows, the
result is returned as an IEEE infinity instead of raising, so a training loop
can observe the blow-up and record it as a divergence event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "LossSpec",
    "VARIANTS",
    "gumbel_loss",
    "gumbel_loss_grad",
    "clipped_gumbel_loss",
    "clipped_gumbel_loss_grad",
    "expanded_gumbel_loss",
    "expanded_gumbel_loss_grad",
    "expectile_loss",
    "expectile_loss_grad",
    "loss_values",
    "loss_grads",
    "loss_curve",
]

VARIANTS = ("gumbel", "clipped_gumbel", "expanded_gumbel", "l2", "expectile")


@dataclass(frozen=True)
class LossSpec:
    """Tagged description of one loss family and its parameters.

    variant      one of ``gumbel``, ``clipped_gumbel``, ``expanded_gumbel``,
                 ``l2``, ``expectile``
    beta         temperature, scales the residual (z = residual / beta)
    order        truncation order of the series variant, even and >= 2;
                 even orders keep the loss nonnegative
    clip         symmetric bound applied to z before the exponential
                 (clipped variant only)
    tau          expectile level in (0, 1) (expectile variant only)
    """

    variant: str
    beta: float = 1.0
    order: int | None = None
    clip: float | None = None
    tau: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}, expected one of {VARIANTS}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be a positive finite real, got {self.beta}")
        if self.variant == "expanded_gumbel":
            if self.order is None:
                raise ValueError("expanded_gumbel requires an order")
            if self.order < 2 or self.order % 2 != 0:
                raise ValueError(f"order must be even and >= 2, got {self.order}")
        elif self.order is not None:
            raise ValueError(f"order is only meaningful for expanded_gumbel, got variant {self.variant!r}")
        if self.variant == "clipped_gumbel":
            if self.clip is None or not self.clip > 0:
                raise ValueError("clipped_gumbel requires clip > 0")
        elif self.clip is not None:
            raise ValueError(f"clip is only meaningful for clipped_gumbel, got variant {self.variant!r}")
        if self.variant == "expectile":
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ValueError("expectile requires tau in (0, 1)")
        elif self.tau is not None:
            raise ValueError(f"tau is only meaningful for expectile, got variant {self.variant!r}")

    @classmethod
    def gumbel(cls, beta: float = 1.0) -> "LossSpec":
        return cls("gumbel", beta=beta)

    @classmethod
    def clipped(cls, beta: float = 1.0, clip: float = 7.0) -> "LossSpec":
        return cls("clipped_gumbel", beta=beta, clip=clip)

    @classmethod
    def expanded(cls, order: int, beta: float = 1.0) -> "LossSpec":
        return cls("expanded_gumbel", beta=beta, order=order)

    @classmethod
    def l2(cls, beta: float = 1.0) -> "LossSpec":
        return cls("l2", beta=beta)

    @classmethod
    def expectile(cls, tau: float) -> "LossSpec":
        return cls("expectile", tau=tau)


def _finite_array(values, name: str = "residual") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _like_input(out: np.ndarray, template) -> float | np.ndarray:
    return float(out) if np.ndim(template) == 0 else out


# Unchecked kernels on float arrays, behind the spec dispatch.

def _clipped_terms(residuals: np.ndarray, beta: float, clip: float,
                   pointwise: bool = False) -> np.ndarray:
    """Per-sample clipped terms around m = the max of z along the last axis, or
    around each z itself when every sample is its own batch of one; m is
    floored at -1 either way."""
    z = np.clip(residuals / beta, -clip, clip)
    m = np.maximum(z if pointwise else z.max(axis=-1, keepdims=True), -1.0)
    with np.errstate(over="ignore"):
        em = np.exp(-m)
        return np.exp(z - m) - z * em - em


def _horner(z, coeffs):
    """sum_k coeffs[k] * z**(k + 1), by Horner's scheme from the top coefficient.

    Each coefficient is a scalar, or a (rows, batch) array zero-padded above
    each row's own top term.  A zero leading coefficient keeps acc at +-0
    until the row's top term, where (+-0 + c) * z == c * z, so each row
    matches its unpadded evaluation bit for bit wherever z is finite.
    """
    acc = coeffs[-1] * z
    for c in coeffs[-2::-1]:
        acc += c
        acc *= z
    return acc


def _grad_coeffs(spec: LossSpec) -> tuple[float, ...]:
    """1 / k! for k = 1 .. order - 1: the gradient series of a series variant
    (l2 is order 2); empty for every other variant."""
    if spec.variant not in ("expanded_gumbel", "l2"):
        return ()
    return _recip_factorials((spec.order or 2) - 1)[1:]


def _variant_grads(variant: str, beta, clip, tau, coeffs, r) -> np.ndarray:
    """Per-sample gradients of one kernel with respect to the prediction.

    The parameters are one spec's scalars, or full (rows, batch) arrays for
    rows that share the kernel (see :func:`_row_grads`); the residuals come
    last, so a group's kernel is this function with the rest bound.  Every
    variant not named here is a series, whose gradient is
    -(1/beta) sum_k coeffs[k] z**(k+1).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "gumbel":
            return (1.0 - np.exp(r / beta)) / beta
        if variant == "clipped_gumbel":
            zraw = r / beta
            z = np.clip(zraw, -clip, clip)
            m = np.maximum(z.max(axis=-1, keepdims=True), -1.0)
            return np.where(np.abs(zraw) <= clip, np.exp(-m) * (1.0 - np.exp(z)) / beta, 0.0)
        if variant == "expectile":
            return -2.0 * np.where(r < 0, 1.0 - tau, tau) * r
        return -_horner(r / beta, coeffs) / beta


def _row_grads(specs: list[LossSpec], batch: int):
    """Gradient function for (rows, batch) residuals whose row i is under specs[i].

    Rows that share a kernel are evaluated in one call per group; the series
    variants (expanded and l2) share one Horner pass up to their highest
    order.  Each row equals ``loss_grads(specs[i], residuals[i])`` bit for
    bit wherever residual / beta is finite; where it overflows, both are
    non-finite.
    """
    groups: dict[str, list[int]] = {}
    for i, spec in enumerate(specs):
        key = "series" if spec.variant in ("expanded_gumbel", "l2") else spec.variant
        groups.setdefault(key, []).append(i)
    parts = []
    for key, members in groups.items():
        group = [specs[i] for i in members]
        series = [_grad_coeffs(spec) for spec in group]
        table = np.zeros((max(map(len, series)), len(group), 1))
        for row, c in enumerate(series):
            table[: len(c), row, 0] = c
        # parameters spread to the full (rows, batch) shape up front, since numpy
        # dispatches same-shape operands faster than broadcast ones; one a
        # variant lacks (None) comes out NaN and goes unread
        params = np.array([[spec.beta, spec.clip, spec.tau] for spec in group], dtype=float)
        beta, clip, tau = np.repeat(params.T[:, :, None], batch, axis=2)
        contiguous = members[-1] - members[0] + 1 == len(members)
        rows = slice(members[0], members[-1] + 1) if contiguous else np.array(members)
        coeffs = list(np.repeat(table, batch, axis=2))
        parts.append((rows, partial(_variant_grads, key, beta, clip, tau, coeffs)))
    if len(parts) == 1:
        return parts[0][1]

    def grads(residuals: np.ndarray) -> np.ndarray:
        out = np.empty_like(residuals)
        for rows, kernel in parts:
            out[rows] = kernel(residuals[rows])
        return out

    return grads


def gumbel_loss(residual, beta: float):
    """Per-sample loss e**z - z - 1 with z = residual / beta.

    Zero at zero residual, exponential on the side where the sample exceeds
    the prediction, linear on the other side.  Overflow of e**z is returned
    as +inf.
    """
    return loss_values(LossSpec.gumbel(beta), _finite_array(residual))


def gumbel_loss_grad(residual, beta: float):
    """Derivative of :func:`gumbel_loss` with respect to the prediction.

    Equals (1 - e**z) / beta; an overflowing e**z yields -inf, which is the
    mechanism by which mismatched-scale training blows up.
    """
    return loss_grads(LossSpec.gumbel(beta), _finite_array(residual))


def clipped_gumbel_loss(residuals, beta: float, clip: float) -> float:
    """Batch mean of the max-normalized, clipped exponential loss.

    Procedure: z_i = clamp(residual_i / beta, -clip, clip); m = max_i z_i,
    replaced by -1 when it falls below -1; the per-sample term is
    e**(z_i - m) - z_i e**(-m) - e**(-m).  The shared maximum couples the
    samples, hence the mean is taken here and not by the caller.
    """
    spec = LossSpec.clipped(beta, clip)
    arr = np.atleast_1d(_finite_array(residuals))
    if arr.size == 0:
        raise ValueError("clipped_gumbel_loss requires a nonempty batch")
    return float(np.mean(_clipped_terms(arr, spec.beta, spec.clip)))


def clipped_gumbel_loss_grad(residuals, beta: float, clip: float) -> np.ndarray:
    """Per-sample derivative of the clipped batch loss with respect to the prediction.

    The batch maximum is treated as a constant (it is detached in the
    defining procedure) and clamped samples carry zero gradient.
    """
    spec = LossSpec.clipped(beta, clip)
    arr = np.atleast_1d(_finite_array(residuals))
    if arr.size == 0:
        raise ValueError("clipped_gumbel_loss_grad requires a nonempty batch")
    return loss_grads(spec, arr)


@lru_cache(maxsize=None)
def _recip_factorials(n: int) -> tuple[float, ...]:
    # 1.0 / j! up to 170!, the largest factorial a float holds; beyond it the
    # exact int quotient, correctly rounded, underflows smoothly to 0.0
    return tuple(
        1.0 / math.factorial(j) if j <= 170 else 1 / math.factorial(j) for j in range(n + 1)
    )


def expanded_gumbel_loss(residual, beta: float, order: int):
    """Truncated series sum_{j=2..n} z**j / j! with z = residual / beta.

    Evaluated by a Horner scheme on precomputed reciprocal factorials, so no
    large factorial or high power is formed on its own.  Even orders make the
    polynomial nonnegative everywhere; order 2 is exactly z**2 / 2.
    """
    return loss_values(LossSpec.expanded(order, beta), _finite_array(residual))


def expanded_gumbel_loss_grad(residual, beta: float, order: int):
    """Derivative of :func:`expanded_gumbel_loss` with respect to the prediction.

    Equals -(1/beta) sum_{k=1..n-1} z**k / k!.
    """
    return loss_grads(LossSpec.expanded(order, beta), _finite_array(residual))


def expectile_loss(residual, tau: float):
    """Asymmetric squared loss |tau - 1[residual < 0]| * residual**2."""
    return loss_values(LossSpec.expectile(tau), _finite_array(residual))


def expectile_loss_grad(residual, tau: float):
    """Derivative of :func:`expectile_loss` with respect to the prediction."""
    return loss_grads(LossSpec.expectile(tau), _finite_array(residual))


def loss_values(spec: LossSpec, residuals):
    """Pointwise loss values for any spec, on finite residuals of any shape.

    For the clipped variant each residual is treated as its own batch of one,
    which matches how a loss curve is read.
    """
    r = np.asarray(residuals, dtype=float)
    variant = spec.variant
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "gumbel":
            z = r / spec.beta
            out = np.exp(z) - z - 1.0
        elif variant == "expectile":
            out = np.where(r < 0, 1.0 - spec.tau, spec.tau) * r * r
        elif variant == "clipped_gumbel":
            out = _clipped_terms(r, spec.beta, spec.clip, pointwise=True)
        else:
            # sum_{j=2..n} z**j / j!, as z * sum_{j=2..n} z**(j-1) / j!
            z = r / spec.beta
            out = _horner(z, _recip_factorials(spec.order or 2)[2:]) * z
    return _like_input(out, residuals)


def loss_grads(spec: LossSpec, residuals):
    """Per-sample gradients with respect to the prediction for any spec.

    Takes finite residuals with the batch on the last axis.  Batch-coupled
    for the clipped variant (each batch shares its maximum), independent per
    sample for every other variant.
    """
    r = np.asarray(residuals, dtype=float)
    if spec.variant == "clipped_gumbel":
        r = np.atleast_1d(r)
    out = _variant_grads(spec.variant, spec.beta, spec.clip, spec.tau, _grad_coeffs(spec), r)
    return _like_input(out, r)


def loss_curve(spec: LossSpec, grid) -> np.ndarray:
    """Tabulate (residual, loss) pairs over a grid, as a (n, 2) array."""
    pts = _finite_array(grid, name="grid")
    if pts.size == 0:
        raise ValueError("grid must be nonempty")
    vals = np.atleast_1d(loss_values(spec, pts))
    return np.column_stack([pts, vals])
