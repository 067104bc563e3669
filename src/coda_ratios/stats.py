"""Descriptive moments, Tukey box summaries, and two-group comparisons.

Estimator conventions (the ones mainstream statistical packages print):

* skewness: adjusted Fisher-Pearson G1 = sqrt(n(n-1))/(n-2) * m3/m2^(3/2)
* kurtosis: sample-adjusted *excess* kurtosis
  G2 = ((n+1)(m4/m2^2 - 3) + 6) * (n-1)/((n-2)(n-3))
* quantiles: sort, h = (n-1)q, linear interpolation (type 7)
* two-sample test: equal-variance pooled t with df = n_a + n_b - 2,
  two-sided p, and R^2 = t^2/(t^2 + df), the explained variance of the
  one-dummy regression.

Central moments m_k use the 1/n denominator; sd uses n-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataError,
    SingleGroupError,
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


@dataclass(frozen=True)
class BoxSummary:
    q1: float
    median: float
    q3: float
    iqr: float
    inner_fences: tuple[float, float]
    outer_fences: tuple[float, float]
    whiskers: tuple[float, float]
    outliers: tuple[float, ...]
    extreme_outliers: tuple[float, ...]

    @property
    def n_outliers(self) -> int:
        return len(self.outliers)

    @property
    def n_extreme_outliers(self) -> int:
        return len(self.extreme_outliers)


@dataclass(frozen=True)
class GroupComparison:
    t_value: float
    df: int
    p_value: float
    r_squared: float
    group_means: tuple[float, float]


def _as_array(data) -> np.ndarray:
    a = np.asarray(list(data) if not isinstance(data, np.ndarray) else data, dtype=float)
    return a.ravel()


def quantile_type7(data, q: float) -> float:
    """Linear-interpolation (type 7) quantile."""
    a = _as_array(data)
    if a.size == 0:
        raise EmptyDataError()
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return _sorted_quantile(np.sort(a), q)


def _sorted_quantile(xs: np.ndarray, q: float) -> float:
    # the symmetric two-product form (1-g)*lo + g*hi keeps
    # quantile(-data, q) == -quantile(data, 1-q) bit-exact for the dyadic q
    # used by box summaries; that exactness is what keeps outlier counts
    # identical under sign flips
    h = (xs.size - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return float(xs[lo])
    g = h - lo
    return float((1.0 - g) * xs[lo] + g * xs[hi])


def _is_constant(a: np.ndarray) -> bool:
    # a constant sample has zero variance by definition; testing the
    # computed m2 instead misses cases like six copies of 0.7, where the
    # unrepresentable mean leaves a spurious variance of ~1e-32
    return bool(np.all(a == a[0]))


def _moments(data, min_n: int, what: str, zero_what: str):
    """n, mean, sum of squared deviations and m2, m3, m4 in one pass.

    Raises TooFewObservationsError below ``min_n`` observations and
    ZeroVarianceError (naming ``zero_what``) for a constant sample, a
    vanishing m2, or an m2 whose square underflows to 0.
    """
    a = _as_array(data)
    n = a.size
    if n < min_n:
        raise TooFewObservationsError(min_n, n, what)
    if _is_constant(a):
        raise ZeroVarianceError(f"{zero_what} has zero variance")
    mean = a.mean()
    # explicit products, not dev**k: numpy's vectorized pow is not
    # sign-symmetric at the last ulp, and skewness must flip its sign
    # bit-exactly when the data are negated
    dev = a - mean
    dev2 = dev * dev
    ss = float(dev2.sum())
    m2 = ss / n
    if m2 == 0.0:
        raise ZeroVarianceError(f"{zero_what} has zero variance")
    if m2 * m2 == 0.0:  # G1 and G2 would divide by m2**1.5 and m2**2
        raise ZeroVarianceError(f"{zero_what} has a variance too small to compute higher moments")
    return n, float(mean), ss, m2, float((dev2 * dev).mean()), float((dev2 * dev2).mean())


# numpy powers: past the float range they give inf, where float ** raises OverflowError
def _g1(n: int, m2: float, m3: float) -> float:
    return float(math.sqrt(n * (n - 1)) / (n - 2) * m3 / np.float64(m2) ** 1.5)


def _g2(n: int, m2: float, m4: float) -> float:
    return float(((n + 1) * (m4 / np.float64(m2) ** 2 - 3.0) + 6.0) * (n - 1) / ((n - 2) * (n - 3)))


def skewness(data) -> float:
    """Adjusted Fisher-Pearson sample skewness G1."""
    n, _, _, m2, m3, _ = _moments(data, 3, "skewness", "skewness input")
    return _g1(n, m2, m3)


def excess_kurtosis(data) -> float:
    """Sample-adjusted excess kurtosis G2 (normal data -> 0)."""
    n, _, _, m2, _, m4 = _moments(data, 4, "kurtosis", "kurtosis input")
    return _g2(n, m2, m4)


def describe(data) -> DescriptiveStats:
    """n, mean, sample sd, G1 skewness and G2 excess kurtosis in one shot."""
    n, mean, ss, m2, m3, m4 = _moments(data, 4, "describe", "data")
    return DescriptiveStats(
        n=n,
        mean=mean,
        sd=math.sqrt(ss / (n - 1)),
        skewness=_g1(n, m2, m3),
        excess_kurtosis=_g2(n, m2, m4),
    )


def box_summary(data) -> BoxSummary:
    """Tukey box summary with inner (1.5 IQR) and outer (3 IQR) fences.

    Outliers lie strictly beyond the inner fences, extreme outliers strictly
    beyond the outer fences; whiskers sit at the most extreme data points
    within the inner fences.
    """
    xs = np.sort(_as_array(data))
    if xs.size == 0:
        raise EmptyDataError()
    q1 = _sorted_quantile(xs, 0.25)
    median = _sorted_quantile(xs, 0.5)
    q3 = _sorted_quantile(xs, 0.75)
    iqr = q3 - q1
    inner = (q1 - 1.5 * iqr, q3 + 1.5 * iqr)
    outer = (q1 - 3.0 * iqr, q3 + 3.0 * iqr)
    # xs[lo:hi] lies within the inner fences, xs[:lo_x] and xs[hi_x:]
    # beyond the outer ones; the slice inside is never empty: the order
    # statistic right above q1 is within [q1, q3] for n >= 3, and n <= 2
    # has no outliers
    lo, hi = np.searchsorted(xs, inner[0], "left"), np.searchsorted(xs, inner[1], "right")
    lo_x, hi_x = np.searchsorted(xs, outer[0], "left"), np.searchsorted(xs, outer[1], "right")
    return BoxSummary(
        q1=q1,
        median=median,
        q3=q3,
        iqr=iqr,
        inner_fences=inner,
        outer_fences=outer,
        whiskers=(float(xs[lo]), float(xs[hi - 1])),
        outliers=tuple(np.concatenate((xs[:lo], xs[hi:])).tolist()),
        extreme_outliers=tuple(np.concatenate((xs[:lo_x], xs[hi_x:])).tolist()),
    )


def two_sample_t_equal_var(a, b) -> GroupComparison:
    """Equal-variance two-sample t-test, two-sided.

    t > 0 means group ``a`` has the larger mean.  R^2 = t^2/(t^2 + df) is
    the share of variance a one-dummy regression on group membership
    explains.
    """
    xa = _as_array(a)
    xb = _as_array(b)
    na, nb = xa.size, xb.size
    if na < 2 or nb < 2:
        raise TooFewObservationsError(2, min(na, nb), "each group of the t-test")
    df = na + nb - 2
    pooled = ((na - 1) * xa.var(ddof=1) + (nb - 1) * xb.var(ddof=1)) / df
    if pooled == 0.0 or (_is_constant(xa) and _is_constant(xb)):
        raise ZeroPooledVarianceError()
    mean_a = float(xa.mean())
    mean_b = float(xb.mean())
    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    p = student_t_two_sided_p(t, df)
    r2 = t * t / (t * t + df)
    return GroupComparison(
        t_value=t, df=df, p_value=p, r_squared=r2, group_means=(mean_a, mean_b)
    )


def dummy_regression_r2(values, group) -> float:
    """Explained variance of a least-squares fit on one binary dummy.

    Computed from the sum-of-squares decomposition (fitted values are the
    group means), not from the t statistic; the identity with
    t^2/(t^2 + df) is a checked property, not the implementation.
    """
    v = _as_array(values)
    labels = list(group)
    if len(labels) != v.size:
        raise ValueError(f"got {v.size} values but {len(labels)} group labels")
    distinct = list(dict.fromkeys(labels))
    if len(distinct) != 2:
        raise SingleGroupError(len(distinct))
    mask = np.asarray([label == distinct[0] for label in labels])
    ss_total = float(((v - v.mean()) ** 2).sum())
    if ss_total == 0.0 or _is_constant(v):
        raise ZeroVarianceError("regression response has zero variance")
    ss_res = float(((v[mask] - v[mask].mean()) ** 2).sum()) + float(
        ((v[~mask] - v[~mask].mean()) ** 2).sum()
    )
    return 1.0 - ss_res / ss_total
