"""Student-t tail probabilities via the regularized incomplete beta function.

The two-sided p-value of a t statistic with df degrees of freedom is

    p = I_x(df/2, 1/2)   with   x = df / (df + t^2),

where I is the regularized incomplete beta function, evaluated here with the
classical continued-fraction expansion (modified Lentz iteration).  For
|t| in [0.01, 8] and df up to 1e6, the p-value's relative error against an
mpmath oracle stays below 1e-8 (at most 6.1e-9, near t = 1.73 at df = 1e6).
Above 1e6 it grows with df: 1.9e-8 at df = 3e6 and 5.3e-8 at df = 1e7 (near
t = 0.0104).  Smaller |t| at large df is less accurate (4.6e-6 at t = 1e-4,
df = 1e7); df above 1e7 is unverified.
"""

from __future__ import annotations

import math

from .errors import CodaError

_EPS = 1e-10
_MAX_ITER = 300
_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the continued fraction for I_x(a, b);
    # only called with x < (a+1)/(a+b+2), where it converges fastest
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise CodaError(
        f"incomplete beta continued fraction did not converge within {_MAX_ITER} iterations"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value 2*(1 - CDF(|t|)) of the Student-t distribution."""
    try:
        df_value = float(df)
    except (TypeError, ValueError):
        df_value = math.nan
    if not (math.isfinite(df_value) and df_value.is_integer() and df_value >= 1):
        raise CodaError(f"degrees of freedom must be a positive integer, got {df!r}")
    df = int(df_value)
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    p = regularized_incomplete_beta(df / 2.0, 0.5, x)
    return min(max(p, 0.0), 1.0)
