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
import sys
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


# Unchecked kernels on float arrays, behind the spec dispatch.  They leave
# overflow to come out as inf or NaN: their callers hold the np.errstate.

def _horner(z, coeffs, out):
    """sum_k coeffs[k] * z**(k + 1) by Horner's scheme from the top coefficient, into ``out``.

    Each coefficient is a scalar, or a (rows, batch) array zero-padded above
    each row's own top term.  A zero leading coefficient keeps out at +-0 until
    the row's top term, where (+-0 + c) * z == c * z, so each row matches its
    unpadded evaluation bit for bit wherever z is finite.
    """
    np.multiply(coeffs[-1], z, out)
    for c in coeffs[-2::-1]:
        np.add(out, c, out)
        np.multiply(out, z, out)
    return out


def _kind(spec: LossSpec) -> str:
    return "series" if spec.variant in ("expanded_gumbel", "l2") else spec.variant


def _series_coeffs(spec: LossSpec, values: bool) -> tuple[float, ...]:
    """The Horner coefficients of a series variant (l2 is order 2), for the values
    (1 / j! for j = 2 .. order) or the gradients (1 / k! for k = 1 .. order - 1),
    order - 1 long; empty for every other variant."""
    if _kind(spec) != "series":
        return ()
    inverse = _recip_factorials(spec.order or 2)
    return inverse[2:] if values else inverse[1:-1]


def _variant_terms(kind: str, beta, clip, tau, coeffs, r):
    """The loss values of one kernel (see :func:`_kind`).

    The parameters are the scalars of one spec, or of rows that share them (see
    :func:`_row_kernel`); beta may also be an array of one value per row, shaped
    to broadcast against the residuals.  The residuals come last, so a kernel is
    this function with the rest bound.  The clipped terms share their batch's
    maximum along the last axis, floored at -1.  A series is z * sum_{j=2..n}
    z**(j-1) / j!, by a Horner pass over ``coeffs``.
    """
    if kind == "expectile":
        return np.where(r < 0, 1.0 - tau, tau) * r * r
    z = r / beta
    if kind == "gumbel":
        return np.exp(z) - z - 1.0
    if kind == "clipped_gumbel":
        z = np.clip(z, -clip, clip)
        m = np.maximum(z.max(axis=-1, keepdims=True), -1.0)
        em = np.exp(-m)
        return np.exp(z - m) - z * em - em
    # every even-order series is +inf at an infinite z, where a row padded with
    # zeros above its own order would form 0 * inf = NaN
    return np.where(np.isinf(z), np.inf, _horner(z, coeffs, np.empty_like(z)) * z)


def _write_grads(kind: str, beta, clip, tau, coeffs, r, out=None):
    """The gradients of :func:`_variant_terms` with respect to the prediction,
    written into ``out`` (allocated if None) and returned; ``r`` is only read.

    A series' -(1/beta) sum_{k=1..n-1} z**k / k! is the order n - 1 truncation
    of gumbel's (1 - e**z) / beta.  At beta exactly 1.0 the divides are skipped,
    since x / 1.0 == x, and the series' (-h) / beta is taken as h / (-beta),
    since IEEE division is sign-symmetric.
    """
    if out is None:
        out = np.empty_like(r)
    unit = isinstance(beta, float) and beta == 1.0
    if kind == "series":
        _horner(r if unit else r / beta, coeffs, out)
        return np.negative(out, out) if unit else np.divide(out, -beta, out)
    if kind == "gumbel":
        np.exp(r if unit else np.divide(r, beta, out), out)
        np.subtract(1.0, out, out)
        return out if unit else np.divide(out, beta, out)
    if kind == "clipped_gumbel":
        zraw = r / beta
        z = np.clip(zraw, -clip, clip)
        np.subtract(1.0, np.exp(z, out), out)
        np.multiply(np.exp(-np.maximum(z.max(axis=-1, keepdims=True), -1.0)), out, out)
        np.divide(out, beta, out)
        out[~(np.abs(zraw) <= clip)] = 0.0  # clamped samples, and NaN ones
        return out
    return np.multiply(np.multiply(-2.0, np.where(r < 0, 1.0 - tau, tau), out), r, out)


def _spec_kernel(spec: LossSpec, values: bool = False, beta=None):
    """:func:`_variant_terms` or, without ``values``, :func:`_write_grads` of one spec, bound;
    ``beta``, such as an array of per-row temperatures, stands in for the spec's own."""
    return partial(_variant_terms if values else _write_grads, _kind(spec),
                   spec.beta if beta is None else beta, spec.clip, spec.tau, _series_coeffs(spec, values))


# the natural log of the largest float is 709.8; a series bound held 20 below it
# leaves room for the rounding of every Horner step
_SERIES_LOG_LIMIT = 690.0


def _loss_finite_within(spec: LossSpec, reach, beta):
    """Whether the loss is finite at every residual of magnitude at most ``reach``
    where its gradient is finite, at temperature ``beta`` (arrays compare row by row).

    Rounding is monotone, so |r| <= reach gives |r / beta| <= reach / beta = z.
    - gumbel: e**z - z - 1 overflows only where e**z does, where the gradient is
      -inf, so a finite z is enough.
    - clipped: z - m <= 0 and e**-m <= e, so the loss is at most 1 + e (|z| + 1),
      finite below a quarter of the largest float.
    - series of order n: every Horner partial sum is at most n max(1, |z|)**n.
    - expectile: w r**2 with w < 1, which beta does not scale.
    """
    if spec.variant == "expectile":
        return reach < 1e154
    z = reach / beta
    if spec.variant == "gumbel":
        return z < math.inf
    if spec.variant == "clipped_gumbel":
        return z < sys.float_info.max / 4
    n = spec.order or 2
    return z < math.exp((_SERIES_LOG_LIMIT - math.log(n)) / n)


def _groups(specs) -> dict[tuple, list[int]]:
    """The indices of the specs that share a kernel and its scalar parameters,
    under their (kind, beta, clip, tau), in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((_kind(spec), spec.beta, spec.clip, spec.tau), []).append(i)
    return groups


@lru_cache(maxsize=64)
def _row_kernel(specs: tuple[LossSpec, ...], batch: int, values: bool = False):
    """Gradient (or loss-value) function for (rows, batch) residuals whose row i is under specs[i].

    The function takes the residuals and an optional ``out`` of their shape,
    which it fills and returns; without one it allocates it.  Each group of
    :func:`_groups` is one call of its kernel, the series variants (expanded
    and l2) sharing one Horner pass up to their highest order.  A gradient group
    whose rows are contiguous writes into ``out[rows]``; any other group is
    assigned there.  Each row equals ``loss_grads`` (or ``loss_values``, but
    with a clipped row as one batch) of specs[i] on it, bit for bit wherever
    residual / beta is finite; where it overflows, both are non-finite.
    """
    parts = []
    for (kind, *params), members in _groups(specs).items():
        series = [_series_coeffs(specs[i], values) for i in members]
        table = np.zeros((max(map(len, series)), len(members), 1))
        for row, c in enumerate(series):
            table[: len(c), row, 0] = c
        # spread to the full (rows, batch) shape up front, since numpy dispatches
        # same-shape operands faster than broadcast ones
        coeffs = list(np.repeat(table, batch, axis=2))
        rows = np.array(members)
        if not values and rows[-1] - rows[0] + 1 == rows.size:
            rows = slice(members[0], members[-1] + 1)
        parts.append((rows, partial(_variant_terms if values else _write_grads, kind, *params, coeffs)))

    def kernel(residuals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty_like(residuals)
        for rows, part in parts:
            if type(rows) is slice:
                part(residuals[rows], out[rows])
            else:
                out[rows] = part(residuals[rows])
        return out

    return kernel


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
    arr = np.atleast_1d(_finite_array(residuals))
    if arr.size == 0:
        raise ValueError("clipped_gumbel_loss requires a nonempty batch")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _spec_kernel(LossSpec.clipped(beta, clip), values=True)(arr)
    return float(np.mean(values))


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
    # exact int quotient, correctly rounded, underflows smoothly to 0.0.  Held as
    # numpy scalars, which numpy combines with arrays faster than Python floats
    return tuple(
        np.float64(1.0 / math.factorial(j) if j <= 170 else 1 / math.factorial(j))
        for j in range(n + 1)
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
    batch = r[..., None] if spec.variant == "clipped_gumbel" else r
    with np.errstate(over="ignore", invalid="ignore"):
        out = _spec_kernel(spec, values=True)(batch)
    return _like_input(out.reshape(r.shape), residuals)


def loss_grads(spec: LossSpec, residuals):
    """Per-sample gradients with respect to the prediction for any spec.

    Takes finite residuals with the batch on the last axis.  Batch-coupled
    for the clipped variant (each batch shares its maximum), independent per
    sample for every other variant.
    """
    r = np.asarray(residuals, dtype=float)
    if spec.variant == "clipped_gumbel":
        r = np.atleast_1d(r)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _spec_kernel(spec)(r)
    return _like_input(out, r)


def loss_curve(spec: LossSpec, grid) -> np.ndarray:
    """Tabulate (residual, loss) pairs over a grid, as a (n, 2) array."""
    pts = _finite_array(grid, name="grid")
    if pts.size == 0:
        raise ValueError("grid must be nonempty")
    vals = np.atleast_1d(loss_values(spec, pts))
    return np.column_stack([pts, vals])
