import csv
import io

import numpy as np
import pytest
from hypothesis import settings

from coda_ratios import parse_sbp

# every property test replays the same examples and writes no database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def liability_tree():
    # assets split from both liability classes, then the two liability classes
    return parse_sbp("(TA|(NCL|CL))")


def random_tree(rng: np.random.Generator, labels):
    """Random sequential binary partition over the given labels, as nested pairs."""
    labels = list(labels)
    rng.shuffle(labels)

    def build(group):
        if len(group) == 1:
            return group[0]
        cut = int(rng.integers(1, len(group)))
        return (build(group[:cut]), build(group[cut:]))

    return build(labels)


def tree_text(sub) -> str:
    """The DSL text of a nested-pairs tree."""
    return sub if isinstance(sub, str) else f"({tree_text(sub[0])}|{tree_text(sub[1])})"


def reference_splits(sub) -> list:
    """Pre-order (numerator leaves, denominator leaves) label tuples of a nested-pairs tree."""

    def leaves(s):
        return (s,) if isinstance(s, str) else leaves(s[0]) + leaves(s[1])

    if isinstance(sub, str):
        return []
    return [(leaves(sub[0]), leaves(sub[1]))] + reference_splits(sub[0]) + reference_splits(sub[1])


def random_tree_text(rng: np.random.Generator, labels) -> str:
    """Random sequential binary partition over the given labels."""
    return tree_text(random_tree(rng, labels))


def random_composition(rng: np.random.Generator, labels, n: int = 1) -> np.ndarray:
    """(n, D) strictly positive random compositions spanning several magnitudes."""
    return np.exp(rng.uniform(-4.0, 8.0, size=(n, len(labels))))


def csv_text(rows) -> str:
    """``rows`` as CSV lines ending in LF, each field quoted when it holds ',', '"', CR or LF.

    csv.writer quotes a field holding any character of its line terminator, so with
    CR LF as the terminator it quotes by this rule on every Python version.
    """
    lines = []
    for row in rows:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines)


def assert_stated_bound(values, stats=None, comparison=None, group=None) -> None:
    """Check README's accuracy bound against 60-digit mpmath.

    ``stats`` is ``describe(values)`` and ``comparison`` the t-test of
    ``values[group]`` against ``values[~group]``.  The mean, sd and group
    means must be within 1e-15 of the largest magnitude |x|max.  Skewness,
    excess kurtosis, t and R^2 must be within 1e-14 * max(|v|, 1) * |x|max / sd,
    using the pooled sd for t and R^2.  For |t| in [0.01, 8], where README
    states the p-value's bound, p must be within a relative 1e-8 of the exact
    p at the returned t.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        x = [mp.mpf(float(v)) for v in values]
        scale = max(abs(v) for v in x)

        def near(got, exact, sd=None):
            tolerance = 1e-15 * scale if sd is None else 1e-14 * max(abs(exact), 1) * scale / sd
            assert abs(mp.mpf(got) - exact) <= tolerance, (got, exact)

        def moments(xs):
            mean = mp.fsum(xs) / len(xs)
            return mean, [mp.fsum((v - mean) ** k for v in xs) for k in (2, 3, 4)]

        if stats is not None:
            n = len(x)
            mean, (s2, s3, s4) = moments(x)
            m2, m3, m4 = s2 / n, s3 / n, s4 / n
            sd = mp.sqrt(s2 / (n - 1))
            near(stats.mean, mean)
            near(stats.sd, sd)
            near(stats.skewness, mp.sqrt(n * (n - 1)) / (n - 2) * m3 / m2**1.5, sd)
            g2 = ((n + 1) * (m4 / m2**2 - 3) + 6) * (n - 1) / ((n - 2) * (n - 3))
            near(stats.excess_kurtosis, g2, sd)
        if comparison is not None:
            group = np.asarray(group, dtype=bool)
            a, b = [x[i] for i in np.flatnonzero(group)], [x[i] for i in np.flatnonzero(~group)]
            (mean_a, (ss_a, _, _)), (mean_b, (ss_b, _, _)) = moments(a), moments(b)
            df = len(x) - 2
            pooled_sd = mp.sqrt((ss_a + ss_b) / df)
            t = (mean_a - mean_b) / (pooled_sd * mp.sqrt(mp.mpf(1) / len(a) + mp.mpf(1) / len(b)))
            near(comparison.t, t, pooled_sd)
            near(comparison.r_squared, t * t / (t * t + df), pooled_sd)
            for got, exact in zip(comparison.group_means, (mean_a, mean_b)):
                near(got, exact)
            assert comparison.df == df
            t_got = mp.mpf(comparison.t)
            if 0.01 <= abs(t_got) <= 8:
                p = mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, df / (df + t_got**2), regularized=True)
                assert abs(comparison.p - p) <= 1e-8 * p, (comparison.p, p)
