"""Descriptive moments, Tukey box summaries, and two-group comparisons.

Estimator conventions (the ones mainstream statistical packages print):

* skewness: adjusted Fisher-Pearson G1 = sqrt(n(n-1))/(n-2) * m3/m2^(3/2)
* kurtosis: sample-adjusted *excess* kurtosis
  G2 = ((n+1)(m4/m2^2 - 3) + 6) * (n-1)/((n-2)(n-3))
* quantiles: sort, h = (n-1)q, linear interpolation (type 7)
* two-sample test: equal-variance pooled t with df = n_a + n_b - 2,
  two-sided p, and R^2 = t^2/(t^2 + df), the explained variance of the
  one-dummy regression.

Central moments m_k use the 1/n denominator; sd uses n-1.  describe and the
t-test scale their data (both groups by one e) by 2**-e, e = math.frexp(largest
magnitude)[1], and scale the mean, sd and group means back.  A power of two
scales exactly, and no moment leaves the float range: against 60-digit mpmath
the mean, sd and group means are within 1e-15 of the largest magnitude |x|max,
skewness, kurtosis, t and R^2 within 1e-14 * max(|v|, 1) * |x|max / sd (the
pooled sd for t and R^2).  So a spread tiny next to its offset still loses
digits in the rounded mean: 1e-11 around 50 puts skewness off by 6.5e-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataError,
    TooFewObservationsError,
    ZeroPooledVarianceError,
    ZeroVarianceError,
)
from .tdist import student_t_two_sided_p


@dataclass(frozen=True)
class DescriptiveStats:
    n: int
    mean: float
    sd: float
    skewness: float
    excess_kurtosis: float


@dataclass(frozen=True, eq=False)
class BoxSummary:
    q1: float
    median: float
    q3: float
    iqr: float
    inner_fences: tuple[float, float]
    outer_fences: tuple[float, float]
    whiskers: tuple[float, float]
    outliers: np.ndarray  # read-only, ascending float64, as are the extreme outliers
    extreme_outliers: np.ndarray

    @property
    def n_outliers(self) -> int:
        return len(self.outliers)

    @property
    def n_extreme_outliers(self) -> int:
        return len(self.extreme_outliers)


@dataclass(frozen=True)
class GroupComparison:
    """An equal-variance t comparison; its fields, in order, are its report entry's keys."""

    t: float
    df: int
    p: float
    r_squared: float
    group_means: tuple[float, float]


def _as_array(data) -> np.ndarray:
    return np.asarray(data if isinstance(data, np.ndarray) else list(data), dtype=float).ravel()


def _is_constant(a: np.ndarray) -> bool:
    # a constant sample has zero variance by definition; testing the
    # computed m2 instead misses cases like six copies of 0.7, where the
    # unrepresentable mean leaves a spurious variance of ~1e-32
    return bool(np.all(a == a[0]))


def describe(data) -> DescriptiveStats:
    """n, mean, sample sd, G1 skewness and G2 excess kurtosis of 4 or more varying values."""
    a = _as_array(data)
    n = a.size
    if n < 4:
        raise TooFewObservationsError(4, n, "describe")
    if _is_constant(a):
        raise ZeroVarianceError("data has zero variance")
    e = math.frexp(max(a.max(), -a.min()))[1]
    a = np.ldexp(a, -e)
    mean = a.mean()
    # explicit products, not dev**k: numpy's vectorized pow is not
    # sign-symmetric at the last ulp, and skewness must flip its sign
    # bit-exactly when the data are negated
    dev = np.subtract(a, mean, out=a)  # in place: the scaled copy is this call's own
    dev2 = dev * dev
    ss = float(dev2.sum())
    m2 = ss / n
    m3 = float((dev2 * dev).mean())
    m4 = float((dev2 * dev2).mean())
    g1 = math.sqrt(n * (n - 1)) / (n - 2) * m3 / m2**1.5
    g2 = ((n + 1) * (m4 / m2**2 - 3.0) + 6.0) * (n - 1) / ((n - 2) * (n - 3))
    sd = float(np.ldexp(math.sqrt(ss / (n - 1)), e))  # past the float range: inf, not OverflowError
    return DescriptiveStats(n, math.ldexp(float(mean), e), sd, g1, g2)


def box_summary(data) -> BoxSummary:
    """Tukey box summary with inner (1.5 IQR) and outer (3 IQR) fences.

    Outliers lie strictly beyond the inner fences, extreme outliers strictly
    beyond the outer fences; whiskers sit at the most extreme data points
    within the inner fences.
    """
    xs = np.sort(_as_array(data))
    if xs.size == 0:
        raise EmptyDataError()
    # type-7 quartiles: the symmetric two-product form (1-g)*xs[k] + g*xs[k+1]
    # keeps quantile(-data, q) == -quantile(data, 1-q) bit-exact for these
    # dyadic q; that exactness is what keeps outlier counts identical under
    # sign flips
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        h = (xs.size - 1) * q
        k = math.floor(h)
        g = h - k
        quartiles.append(float(xs[k]) if g == 0.0 else float((1.0 - g) * xs[k] + g * xs[k + 1]))
    q1, median, q3 = quartiles
    iqr = q3 - q1
    inner = (q1 - 1.5 * iqr, q3 + 1.5 * iqr)
    outer = (q1 - 3.0 * iqr, q3 + 3.0 * iqr)
    # xs[lo:hi] lies within the inner fences, xs[:lo_x] and xs[hi_x:]
    # beyond the outer ones; the slice inside is never empty: the order
    # statistic right above q1 is within [q1, q3] for n >= 3, and n <= 2
    # has no outliers
    lo, hi = np.searchsorted(xs, inner[0], "left"), np.searchsorted(xs, inner[1], "right")
    lo_x, hi_x = np.searchsorted(xs, outer[0], "left"), np.searchsorted(xs, outer[1], "right")
    outliers, extreme = np.concatenate((xs[:lo], xs[hi:])), np.concatenate((xs[:lo_x], xs[hi_x:]))
    for a in (outliers, extreme):
        a.setflags(write=False)
    return BoxSummary(
        q1=q1,
        median=median,
        q3=q3,
        iqr=iqr,
        inner_fences=inner,
        outer_fences=outer,
        whiskers=(float(xs[lo]), float(xs[hi - 1])),
        outliers=outliers,
        extreme_outliers=extreme,
    )


def two_sample_t_equal_var(a, b) -> GroupComparison:
    """Equal-variance two-sample t-test, two-sided.

    t > 0 means group ``a`` has the larger mean.  R^2 = t^2/(t^2 + df) is
    the share of variance a one-dummy regression on group membership
    explains.
    """
    xa, xb = _as_array(a), _as_array(b)
    na, nb = xa.size, xb.size
    if na < 2 or nb < 2:
        raise TooFewObservationsError(2, min(na, nb), "each group of the t-test")
    e = math.frexp(max(xa.max(), -xa.min(), xb.max(), -xb.min()))[1]  # one scale for both groups
    xa, xb = np.ldexp(xa, -e), np.ldexp(xb, -e)
    df = na + nb - 2
    pooled = ((na - 1) * xa.var(ddof=1) + (nb - 1) * xb.var(ddof=1)) / df
    if pooled == 0.0 or (_is_constant(xa) and _is_constant(xb)):
        raise ZeroPooledVarianceError()
    mean_a, mean_b = float(xa.mean()), float(xb.mean())
    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    p = student_t_two_sided_p(t, df)
    r2 = t * t / (t * t + df)
    means = (math.ldexp(mean_a, e), math.ldexp(mean_b, e))
    return GroupComparison(t=t, df=df, p=p, r_squared=r2, group_means=means)
