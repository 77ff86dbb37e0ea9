"""Gumbel sampling, Gumbel densities, and loss-implied error densities.

The implied error density of a loss L is exp(-L(t)) / Z over the raw
residual t = x - h, so the temperature stretches the curve.  Z is computed by
adaptive Simpson quadrature over the requested grid's span, which makes the
returned curve integrate to one over that span by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, loss_curve, loss_values

__all__ = [
    "GumbelParams",
    "DensityCurve",
    "SupportNotCoveredError",
    "gumbel_quantile",
    "sample_gumbel",
    "gumbel_pdf",
    "implied_error_density",
]

# exp(-loss) must have decayed to at most this at both grid ends
TAIL_THRESHOLD = 1e-12

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


class SupportNotCoveredError(ValueError):
    """The density grid leaves more than the allowed mass outside its span."""


@dataclass(frozen=True)
class GumbelParams:
    """Location, scale, and orientation of a Gumbel variable.

    ``negated`` means the variable is location minus a centered Gumbel draw,
    i.e. the heavy tail points left.
    """

    location: float = 0.0
    scale: float = 1.0
    negated: bool = False

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be a positive finite real, got {self.scale}")


@dataclass(frozen=True)
class DensityCurve:
    """A gridded, normalized density: grid ascending, density >= 0, Z > 0."""

    grid: np.ndarray
    density: np.ndarray
    normalizer: float

    def trapezoid_integral(self) -> float:
        return float(_trapezoid(self.density, self.grid))

    def rows(self):
        """(z, density) pairs, CSV-ready."""
        return zip(self.grid.tolist(), self.density.tolist())


def gumbel_quantile(u, params: GumbelParams):
    """Inverse CDF: location - scale * ln(-ln u), reflected when negated."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    centered = -params.scale * np.log(-np.log(u_arr))
    if params.negated:
        centered = -centered
    out = params.location + centered
    return float(out) if np.ndim(u) == 0 else out


def sample_gumbel(params: GumbelParams, rng: np.random.Generator, size: int | None = None):
    """Draw by inverse transform with uniforms strictly inside (0, 1).

    The uniform is formed from a 53-bit integer in [1, 2**53 - 1], so both
    endpoints are excluded by construction and the stream is reproducible
    from the generator state alone.
    """
    n = 1 if size is None else int(size)
    u = rng.integers(1, 1 << 53, size=n) * (1.0 / (1 << 53))
    draws = gumbel_quantile(u, params)
    return float(draws[0]) if size is None else draws


def gumbel_pdf(x, params: GumbelParams):
    """Density (1/scale) exp(-(w + e**-w)) with w the signed scaled offset."""
    w = (np.asarray(x, dtype=float) - params.location) / params.scale
    if params.negated:
        w = -w
    out = np.exp(-(w + np.exp(-w))) / params.scale
    return float(out) if np.ndim(x) == 0 else out


def _adaptive_simpson(f, a: float, b: float, tol: float = 1e-8, max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature with interval bisection and Richardson tail."""
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_split(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_split(f, a, b, fa, fm, fb, whole, tol, depth) -> float:
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm, frm = f(lm), f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _simpson_split(f, a, mid, fa, flm, fm, left, 0.5 * tol, depth - 1) + _simpson_split(
        f, mid, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def implied_error_density(spec: LossSpec, grid) -> DensityCurve:
    """Normalized density exp(-loss) / Z over the grid's span.

    The grid must reach far enough into both tails that exp(-loss) is below
    ``TAIL_THRESHOLD`` at the ends; otherwise the span visibly truncates the
    distribution and a :class:`SupportNotCoveredError` is raised.  Note the
    plain Gumbel loss has a slowly decaying left tail (exp(-loss) ~ e**(z+1)
    for z << 0 at beta 1), so it needs a much wider left bound than the
    series-truncated variants.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size < 3:
        raise ValueError("grid must be a 1-d array with at least 3 points")
    if np.any(~np.isfinite(pts)) or np.any(np.diff(pts) <= 0):
        raise ValueError("grid must be finite and strictly ascending")

    def unnormalized(t: float) -> float:
        return math.exp(-loss_values(spec, t))

    lo, hi = unnormalized(pts[0]), unnormalized(pts[-1])
    if lo > TAIL_THRESHOLD or hi > TAIL_THRESHOLD:
        raise SupportNotCoveredError(
            f"support not covered: exp(-loss) at the grid ends is ({lo:.3e}, {hi:.3e}), "
            f"needs to be at most {TAIL_THRESHOLD:.0e}; widen the grid"
        )
    normalizer = _adaptive_simpson(unnormalized, float(pts[0]), float(pts[-1]))
    if not (normalizer > 0 and math.isfinite(normalizer)):
        raise ValueError(f"normalizer must be positive and finite, got {normalizer}")
    density = np.exp(-loss_curve(spec, pts)[:, 1]) / normalizer
    return DensityCurve(grid=pts, density=density, normalizer=normalizer)
