"""Run aggregation and two-sample significance testing.

The t-test defaults to the unequal-variance (Welch) form with
Welch-Satterthwaite degrees of freedom, since compared runs come from
different algorithms; the pooled-variance Student form is available behind a
flag.  Two-sided p values go through the regularized incomplete beta
function, evaluated by a Lentz continued fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "SampleSummary",
    "TTestResult",
    "summarize",
    "regularized_incomplete_beta",
    "student_t_two_sided_p",
    "welch_t_test",
    "t_test_from_summary",
]


@dataclass(frozen=True)
class SampleSummary:
    """Count, mean, and unbiased standard deviation (divisor n - 1)."""

    n: int
    mean: float
    std: float


class TTestResult(NamedTuple):
    t: float
    dof: float
    p: float


def summarize(samples: Sequence[float]) -> SampleSummary:
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("samples must be nonempty")
    if arr.size < 2:
        raise ValueError("standard deviation needs at least two samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return SampleSummary(n=int(arr.size), mean=float(arr.mean()), std=float(arr.std(ddof=1)))


_MAX_CF_ITERATIONS = 400
_CF_EPS = 1e-16
_CF_TINY = 1e-300


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITERATIONS + 1):
        m2 = 2 * m
        # the even and odd half-steps; convergence is tested after the pair
        for coeff in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                      -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + coeff * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + coeff / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction did not converge for x={x}, a={a}, b={b}")


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for x in [0, 1], a > 0, b > 0."""
    if not (a > 0 and b > 0):
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return float(x)
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        + math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _beta_cf(x, a, b) / a
    return 1.0 - math.exp(ln_front) * _beta_cf(1.0 - x, b, a) / b


def student_t_two_sided_p(t: float, dof: float) -> float:
    """P(|T| >= |t|) for a Student t variable with the given degrees of freedom."""
    if not dof > 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = dof / (dof + t * t)
    return min(1.0, max(0.0, regularized_incomplete_beta(x, 0.5 * dof, 0.5)))


def t_test_from_summary(
    n1: int, mean1: float, std1: float, n2: int, mean2: float, std2: float,
    kind: str = "welch",
) -> TTestResult:
    """Two-sample t-test from summary statistics.

    ``welch`` uses the unequal-variance statistic with Welch-Satterthwaite
    degrees of freedom; ``student`` pools the variances.  When both samples
    have zero variance the p value degenerates by convention: 1 for equal
    means, 0 (with an infinite statistic) otherwise.
    """
    if min(n1, n2) < 2:
        raise ValueError("both samples need n >= 2")
    v1, v2 = std1 * std1, std2 * std2
    if v1 == 0.0 and v2 == 0.0:
        dof = float(n1 + n2 - 2)
        if mean1 == mean2:
            return TTestResult(t=0.0, dof=dof, p=1.0)
        return TTestResult(t=math.copysign(math.inf, mean1 - mean2), dof=dof, p=0.0)
    if kind == "welch":
        r1, r2 = v1 / n1, v2 / n2
        t = (mean1 - mean2) / math.sqrt(r1 + r2)
        # scale by the larger per-sample variance so squaring cannot underflow
        scale = max(r1, r2)
        u1, u2 = r1 / scale, r2 / scale
        dof = (u1 + u2) ** 2 / (u1 * u1 / (n1 - 1) + u2 * u2 / (n2 - 1))
    elif kind == "student":
        pooled = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
        t = (mean1 - mean2) / math.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
        dof = float(n1 + n2 - 2)
    else:
        raise ValueError(f"kind must be 'welch' or 'student', got {kind!r}")
    return TTestResult(t=t, dof=dof, p=student_t_two_sided_p(t, dof))


def welch_t_test(a: Sequence[float], b: Sequence[float], kind: str = "welch") -> TTestResult:
    """Two-sample t-test on raw samples; see :func:`t_test_from_summary`."""
    sa, sb = summarize(a), summarize(b)
    return t_test_from_summary(sa.n, sa.mean, sa.std, sb.n, sb.mean, sb.std, kind=kind)
