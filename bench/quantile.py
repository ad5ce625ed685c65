"""The Harrell-Davis quantile estimator, for the operation-time percentiles.

A nearest-rank percentile is one order statistic.  Where the operation
times have gaps (count-profiles' slowest groups are 10-20% apart, and the
seed decides which labelling of each lands there), it jumps from one group
to the next between runs.  Harrell-Davis weighs every order statistic by
the Beta((n+1)q, (n+1)(1-q)) mass on its slot, so it moves smoothly.

    F. E. Harrell and C. E. Davis, "A new distribution-free quantile
    estimator", Biometrika 69 (1982) 635-640.
"""

from __future__ import annotations

import math


def harrell_davis(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile (0 < q < 1)."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    # the Beta(a, b) mass lies within a few of its deviations of its mean;
    # outside that window the CDF is 0 or 1 to double precision
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo, hi = q - 12 * sd, q + 12 * sd
    total, prev = 0.0, 0.0
    for i in range(1, n + 1):
        t = i / n
        cdf = 0.0 if t <= lo else 1.0 if t >= hi else betainc(a, b, t)
        total += (cdf - prev) * x[i - 1]
        prev = cdf
    return total


def betainc(a: float, b: float, x: float) -> float:
    """The regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            step = d * c
            h *= step
        if abs(step - 1.0) < 1e-15:
            break
    return h
