import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coda_ratios import box_summary, describe, two_sample_t_equal_var
from coda_ratios.errors import (
    EmptyDataError,
    TooFewObservationsError,
    ZeroPooledVarianceError,
    ZeroVarianceError,
)

from conftest import assert_stated_bound


# ---------------------------------------------------------------------------
# quantiles: the type-7 quartiles of box_summary


def test_quantile_linear_interpolation():
    assert box_summary([1, 2, 3, 4]).median == 2.5
    assert box_summary([1, 2, 3, 4, 100]).q1 == 2.0
    assert box_summary([1, 2, 3, 4, 100]).q3 == 4.0
    box = box_summary([7])
    assert (box.q1, box.median, box.q3) == (7.0, 7.0, 7.0)


def test_quantile_order_independent():
    assert box_summary([4, 1, 3, 2]).median == 2.5


def test_quantile_extremes():
    # the quartiles interpolate inside the extremes, which the whiskers reach
    box = box_summary([5, 1, 9, 3])
    assert (box.q1, box.q3) == (2.5, 6.0)
    assert box.whiskers == (1.0, 9.0)


def test_quantile_errors():
    # no data has no quartiles, whatever holds it
    for empty in ([], (), np.array([])):
        with pytest.raises(EmptyDataError):
            box_summary(empty)


def test_quantile_matches_numpy_reference():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=int(rng.integers(1, 40)))
        box = box_summary(data)
        for got, q in ((box.q1, 0.25), (box.median, 0.5), (box.q3, 0.75)):
            assert got == pytest.approx(float(np.quantile(data, q)), rel=1e-12, abs=1e-12)


def test_quantile_sign_symmetry_is_exact():
    # quantile(-x, q) == -quantile(x, 1-q) bit-for-bit at the quartile
    # probabilities; this exactness keeps outlier counts stable under
    # sign flips
    for seed in range(200):
        rng = np.random.default_rng(seed)
        data = rng.normal(scale=10.0, size=int(rng.integers(1, 30)))
        box, neg = box_summary(data), box_summary(-data)
        assert (neg.q1, neg.median, neg.q3) == (-box.q3, -box.median, -box.q1)


# ---------------------------------------------------------------------------
# moments


def test_skewness_symmetric_data_is_zero():
    assert describe([1, 2, 3, 4]).skewness == 0.0


def test_skewness_frozen_value():
    # m2=10, m3=36; g1 = 36/10^1.5; G1 = g1 * sqrt(5*4)/3
    assert describe([1, 2, 3, 4, 10]).skewness == pytest.approx(
        1.6970562748477143, rel=1e-12
    )


def test_skewness_sign_flip_exact():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=int(rng.integers(4, 40)))
        assert describe(-data).skewness == -describe(data).skewness


def test_skewness_errors():
    with pytest.raises(TooFewObservationsError):
        describe([1, 2, 3])
    with pytest.raises(ZeroVarianceError):
        describe([5, 5, 5, 5])


def test_kurtosis_frozen_value():
    # m2=2, m4=6.8 for 1..5
    assert describe([1, 2, 3, 4, 5]).excess_kurtosis == pytest.approx(-1.2, abs=1e-12)


def test_kurtosis_negation_invariant_exact():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=int(rng.integers(4, 40)))
        assert describe(-data).excess_kurtosis == describe(data).excess_kurtosis


def test_kurtosis_affine_invariant():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=20)
        a, b = float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 9))
        assert describe(a + b * data).excess_kurtosis == pytest.approx(
            describe(data).excess_kurtosis, rel=1e-9
        )


def test_kurtosis_errors():
    with pytest.raises(TooFewObservationsError):
        describe([1, 2, 3])
    with pytest.raises(ZeroVarianceError):
        describe([3, 3, 3, 3])


def test_describe_bundles_all_moments():
    stats = describe([1.0, 2.0, 3.0, 4.0, 10.0])
    assert stats.n == 5
    assert stats.mean == 4.0
    assert stats.sd == pytest.approx(math.sqrt(50.0 / 4.0), rel=1e-14)
    assert stats.skewness == pytest.approx(1.6970562748477143, rel=1e-12)
    # G1 and G2 against the textbook formulas on numpy's central moments
    for seed in range(50):
        rng = np.random.default_rng(seed)
        data = rng.standard_t(df=3, size=int(rng.integers(4, 60)))
        for sample in (data, -data):
            stats = describe(sample)
            n = sample.size
            m2, m3, m4 = (float(np.mean((sample - sample.mean()) ** k)) for k in (2, 3, 4))
            g1 = math.sqrt(n * (n - 1)) / (n - 2) * m3 / m2**1.5
            g2 = ((n + 1) * (m4 / m2**2 - 3.0) + 6.0) * (n - 1) / ((n - 2) * (n - 3))
            assert stats.skewness == pytest.approx(g1, rel=1e-9, abs=1e-12)
            assert stats.excess_kurtosis == pytest.approx(g2, rel=1e-9, abs=1e-12)
            assert stats.mean == float(np.mean(sample))
            assert stats.sd == float(np.std(sample, ddof=1))


def test_describe_errors():
    with pytest.raises(TooFewObservationsError):
        describe([1, 2, 3])
    with pytest.raises(ZeroVarianceError):
        describe([2, 2, 2, 2])


def test_describe_sd_past_the_float_range_is_inf():
    # the scaled moments are all finite; only the sd, scaled back, is not
    with np.errstate(over="ignore"):
        stats = describe([-1.7e308, 1.7e308, -1.7e308, 1.7e308])
    assert (stats.mean, stats.sd, stats.skewness, stats.excess_kurtosis) == (0.0, math.inf, 0.0, -6.0)


@st.composite
def scaled_samples(draw):
    """4 to 12 values with ties and both signs, lognormal around a power of ten from 1e-300 to
    1e300, and where they are cut into two groups of 2 or more."""
    scale = 10.0 ** draw(st.integers(-300, 300))
    pool = draw(st.lists(st.tuples(st.booleans(), st.floats(-5.0, 5.0)), min_size=2, max_size=12))
    values = [(-1) ** negative * math.exp(z) * scale for negative, z in pool]
    x = draw(st.lists(st.sampled_from(values), min_size=4, max_size=12))
    return x, draw(st.integers(2, len(x) - 2))


@given(scaled_samples())
# unscaled, the squared deviations of the first, and m2**2 of the second, underflow to 0
@example(([1e-200, 2e-200, 3e-200, 4e-200], 2))
@example(([k * 1e-160 for k in (1, 2, 3, 5, 8, 13)], 3))
@example(([1e300, -1e300, 1e300, 2e300], 2))
@settings(max_examples=300)
def test_statistics_match_mpmath_over_the_float_range(sample):
    x, cut = np.array(sample[0]), sample[1]
    if np.all(x == x[0]):
        with pytest.raises(ZeroVarianceError, match="^data has zero variance$"):
            describe(x)
        return
    stats = describe(x)
    mirrored = describe(-x)
    assert (mirrored.mean, mirrored.skewness) == (-stats.mean, -stats.skewness)
    assert (mirrored.n, mirrored.sd, mirrored.excess_kurtosis) == (stats.n, stats.sd, stats.excess_kurtosis)
    group = np.arange(x.size) < cut
    a, b = x[group], x[~group]
    if np.all(a == a[0]) and np.all(b == b[0]):
        with pytest.raises(ZeroPooledVarianceError):
            two_sample_t_equal_var(a, b)
        comparison = None
    else:
        comparison = two_sample_t_equal_var(a, b)
    assert_stated_bound(x, stats, comparison, group)


# ---------------------------------------------------------------------------
# box summaries


def test_box_summary_no_outliers():
    box = box_summary([1, 2, 3, 4, 5])
    assert box.q1 == 2.0
    assert box.median == 3.0
    assert box.q3 == 4.0
    assert box.iqr == 2.0
    assert box.whiskers == (1.0, 5.0)
    assert box.outliers.tolist() == []
    assert box.extreme_outliers.tolist() == []


def test_box_summary_extreme_outlier():
    box = box_summary([1, 2, 3, 4, 100])
    assert box.q1 == 2.0
    assert box.q3 == 4.0
    assert box.inner_fences == (-1.0, 7.0)
    assert box.outer_fences == (-4.0, 10.0)
    assert box.whiskers == (1.0, 4.0)
    assert box.outliers.tolist() == [100.0]
    assert box.extreme_outliers.tolist() == [100.0]
    assert box.n_outliers == 1
    assert box.n_extreme_outliers == 1


def test_box_summary_mild_outlier_is_not_extreme():
    box = box_summary([1, 2, 3, 4, 8])
    assert box.outliers.tolist() == [8.0]
    assert box.extreme_outliers.tolist() == []


def test_box_summary_single_point():
    box = box_summary([3.5])
    assert box.q1 == box.median == box.q3 == 3.5
    assert box.whiskers == (3.5, 3.5)
    assert box.outliers.tolist() == []


def test_box_summary_invariants_random():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = rng.standard_t(df=2, size=int(rng.integers(1, 60)))
        box = box_summary(data)
        assert box.q1 <= box.median <= box.q3
        assert (box.q1, box.median, box.q3) == pytest.approx(
            np.quantile(data, (0.25, 0.5, 0.75)).tolist(), rel=1e-12, abs=1e-12
        )
        assert set(box.extreme_outliers) <= set(box.outliers)
        assert box.whiskers[0] >= box.inner_fences[0]
        assert box.whiskers[1] <= box.inner_fences[1]
        assert box.n_outliers + len(
            [v for v in data if box.inner_fences[0] <= v <= box.inner_fences[1]]
        ) == len(data)


def test_box_summary_outliers_are_read_only_ascending_float64_arrays():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        data = rng.standard_t(df=2, size=int(rng.integers(1, 60))).tolist()
        box = box_summary(data)
        (lo, hi), (lo_x, hi_x) = box.inner_fences, box.outer_fences
        expected = (
            (box.outliers, sorted(v for v in data if v < lo or v > hi)),
            (box.extreme_outliers, sorted(v for v in data if v < lo_x or v > hi_x)),
        )
        for got, values in expected:
            assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.ndim == 1
            assert got.tolist() == values  # the values, in ascending order
            assert not got.flags.writeable
            if got.size:
                with pytest.raises(ValueError, match="read-only"):
                    got[0] = 0.0


def test_box_summary_negation_mirrors_exactly():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = rng.standard_t(df=2, size=int(rng.integers(1, 60)))
        box = box_summary(data)
        neg = box_summary(-data)
        assert neg.n_outliers == box.n_outliers
        assert neg.n_extreme_outliers == box.n_extreme_outliers
        assert neg.q1 == -box.q3
        assert neg.q3 == -box.q1
        assert neg.median == -box.median
        assert neg.whiskers == (-box.whiskers[1], -box.whiskers[0])
        # bit for bit, as arrays
        assert neg.outliers.tobytes() == (-box.outliers[::-1]).tobytes()
        assert neg.extreme_outliers.tobytes() == (-box.extreme_outliers[::-1]).tobytes()


def test_box_summary_empty():
    with pytest.raises(EmptyDataError):
        box_summary([])


# ---------------------------------------------------------------------------
# two-sample comparison


def test_t_test_identical_groups():
    cmp_ = two_sample_t_equal_var([1, 2, 3], [1, 2, 3])
    assert cmp_.t == 0.0
    assert cmp_.p == 1.0
    assert cmp_.r_squared == 0.0
    assert cmp_.df == 4


def test_t_test_frozen_example():
    cmp_ = two_sample_t_equal_var([1, 2, 3], [2, 3, 4])
    assert cmp_.t == pytest.approx(-1.224744871391589, rel=1e-12)
    assert cmp_.df == 4
    assert cmp_.p == pytest.approx(0.28786413472669068, abs=1e-8)
    assert cmp_.r_squared == pytest.approx(0.2727272727272727, rel=1e-12)
    assert cmp_.group_means == (2.0, 3.0)


def test_t_test_positive_when_first_group_larger():
    cmp_ = two_sample_t_equal_var([2, 3, 4], [1, 2, 3])
    assert cmp_.t > 0


def test_t_test_sign_flip_exact():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=int(rng.integers(2, 25)))
        b = rng.normal(loc=0.5, size=int(rng.integers(2, 25)))
        c1 = two_sample_t_equal_var(a, b)
        c2 = two_sample_t_equal_var(-a, -b)
        assert c2.t == -c1.t
        assert c2.p == c1.p
        assert c2.r_squared == c1.r_squared


def test_t_test_r_squared_identity():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=int(rng.integers(2, 25)))
        b = rng.normal(loc=1.0, size=int(rng.integers(2, 25)))
        cmp_ = two_sample_t_equal_var(a, b)
        t, df = cmp_.t, cmp_.df
        assert abs(cmp_.r_squared - t * t / (t * t + df)) < 1e-12
        assert 0.0 <= cmp_.r_squared <= 1.0
        assert 0.0 < cmp_.p <= 1.0


def test_t_test_errors():
    with pytest.raises(TooFewObservationsError):
        two_sample_t_equal_var([1], [1, 2])
    with pytest.raises(ZeroPooledVarianceError):
        two_sample_t_equal_var([2, 2], [3, 3])


# ---------------------------------------------------------------------------
# dummy regression: R^2 by sums of squares, an oracle independent of the t statistic


def _dummy_regression_r2(values, labels) -> float:
    """Explained variance of a least-squares fit on one binary dummy.

    The fitted values are the group means, so R^2 = 1 - SS_within / SS_total.
    """
    v = np.asarray(values, dtype=float)
    mask = np.asarray(labels) == labels[0]
    ss_total = float(((v - v.mean()) ** 2).sum())
    ss_res = float(((v[mask] - v[mask].mean()) ** 2).sum()) + float(
        ((v[~mask] - v[~mask].mean()) ** 2).sum()
    )
    return 1.0 - ss_res / ss_total


def test_dummy_regression_equal_means_gives_zero():
    assert _dummy_regression_r2([1, 2, 3, 1, 2, 3], list("AAABBB")) == pytest.approx(
        0.0, abs=1e-15
    )


def test_dummy_regression_frozen_example():
    r2 = _dummy_regression_r2([1, 2, 3, 2, 3, 4], list("AAABBB"))
    assert r2 == pytest.approx(0.2727272727272727, rel=1e-12)


def test_dummy_regression_matches_t_identity():
    # independent route vs the t-statistic identity
    for seed in range(100):
        rng = np.random.default_rng(seed)
        na, nb = int(rng.integers(2, 20)), int(rng.integers(2, 20))
        a = rng.normal(size=na)
        b = rng.normal(loc=0.7, size=nb)
        values = np.concatenate([a, b])
        groups = ["yes"] * na + ["no"] * nb
        r2 = _dummy_regression_r2(values, groups)
        cmp_ = two_sample_t_equal_var(a, b)
        t, df = cmp_.t, cmp_.df
        assert abs(r2 - t * t / (t * t + df)) < 1e-12
