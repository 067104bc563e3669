import math

import numpy as np
import pytest

from coda_ratios import (
    box_summary,
    describe,
    dummy_regression_r2,
    excess_kurtosis,
    quantile_type7,
    skewness,
    two_sample_t_equal_var,
)
from coda_ratios.errors import (
    EmptyDataError,
    SingleGroupError,
    TooFewObservationsError,
    ZeroPooledVarianceError,
    ZeroVarianceError,
)


# ---------------------------------------------------------------------------
# quantiles


def test_quantile_linear_interpolation():
    assert quantile_type7([1, 2, 3, 4], 0.5) == 2.5
    assert quantile_type7([1, 2, 3, 4, 100], 0.25) == 2.0
    assert quantile_type7([1, 2, 3, 4, 100], 0.75) == 4.0
    assert quantile_type7([7], 0.0) == 7.0
    assert quantile_type7([7], 0.33) == 7.0
    assert quantile_type7([7], 1.0) == 7.0


def test_quantile_order_independent():
    assert quantile_type7([4, 1, 3, 2], 0.5) == 2.5


def test_quantile_extremes():
    data = [5, 1, 9, 3]
    assert quantile_type7(data, 0.0) == 1.0
    assert quantile_type7(data, 1.0) == 9.0


def test_quantile_errors():
    with pytest.raises(EmptyDataError):
        quantile_type7([], 0.5)
    with pytest.raises(ValueError):
        quantile_type7([1, 2], 1.5)
    with pytest.raises(ValueError):
        quantile_type7([1, 2], -0.1)


def test_quantile_matches_numpy_reference():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=int(rng.integers(1, 40)))
        q = float(rng.uniform(0, 1))
        assert quantile_type7(data, q) == pytest.approx(
            float(np.quantile(data, q)), rel=1e-12, abs=1e-12
        )


def test_quantile_sign_symmetry_is_exact():
    # quantile(-x, q) == -quantile(x, 1-q) bit-for-bit at the quartile
    # probabilities; this exactness keeps outlier counts stable under
    # sign flips
    for seed in range(200):
        rng = np.random.default_rng(seed)
        data = rng.normal(scale=10.0, size=int(rng.integers(1, 30)))
        for q in (0.25, 0.5, 0.75):
            assert quantile_type7(-data, q) == -quantile_type7(data, 1.0 - q)


# ---------------------------------------------------------------------------
# moments


def test_skewness_symmetric_data_is_zero():
    assert skewness([1, 2, 3]) == 0.0


def test_skewness_frozen_value():
    # m2=10, m3=36; g1 = 36/10^1.5; G1 = g1 * sqrt(5*4)/3
    assert skewness([1, 2, 3, 4, 10]) == pytest.approx(
        1.6970562748477143, rel=1e-12
    )


def test_skewness_sign_flip_exact():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=int(rng.integers(3, 40)))
        assert skewness(-data) == -skewness(data)


def test_skewness_errors():
    with pytest.raises(TooFewObservationsError):
        skewness([1, 2])
    with pytest.raises(ZeroVarianceError):
        skewness([5, 5, 5, 5])


def test_kurtosis_frozen_value():
    # m2=2, m4=6.8 for 1..5
    assert excess_kurtosis([1, 2, 3, 4, 5]) == pytest.approx(-1.2, abs=1e-12)


def test_kurtosis_negation_invariant_exact():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=int(rng.integers(4, 40)))
        assert excess_kurtosis(-data) == excess_kurtosis(data)


def test_kurtosis_affine_invariant():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=20)
        a, b = float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 9))
        assert excess_kurtosis(a + b * data) == pytest.approx(
            excess_kurtosis(data), rel=1e-9
        )


def test_kurtosis_errors():
    with pytest.raises(TooFewObservationsError):
        excess_kurtosis([1, 2, 3])
    with pytest.raises(ZeroVarianceError):
        excess_kurtosis([3, 3, 3, 3])


def test_describe_bundles_all_moments():
    stats = describe([1.0, 2.0, 3.0, 4.0, 10.0])
    assert stats.n == 5
    assert stats.mean == 4.0
    assert stats.sd == pytest.approx(math.sqrt(50.0 / 4.0), rel=1e-14)
    assert stats.skewness == pytest.approx(1.6970562748477143, rel=1e-12)
    # describe shares one moment pass with skewness and excess_kurtosis
    for seed in range(50):
        rng = np.random.default_rng(seed)
        data = rng.standard_t(df=3, size=int(rng.integers(4, 60)))
        for sample in (data, -data):
            stats = describe(sample)
            assert stats.skewness == skewness(sample)
            assert stats.excess_kurtosis == excess_kurtosis(sample)
            assert stats.mean == float(np.mean(sample))
            assert stats.sd == float(np.std(sample, ddof=1))


def test_describe_errors():
    with pytest.raises(TooFewObservationsError):
        describe([1, 2, 3])
    with pytest.raises(ZeroVarianceError):
        describe([2, 2, 2, 2])


@pytest.mark.parametrize("moment", [describe, skewness, excess_kurtosis])
def test_underflowing_variance_raises(moment):
    # m2 is about 2e-320, so m2**1.5 and m2**2 underflow to 0.0
    with pytest.raises(ZeroVarianceError, match="too small to compute higher moments"):
        moment([k * 1e-160 for k in (1, 2, 3, 5, 8, 13)])


# ---------------------------------------------------------------------------
# box summaries


def test_box_summary_no_outliers():
    box = box_summary([1, 2, 3, 4, 5])
    assert box.q1 == 2.0
    assert box.median == 3.0
    assert box.q3 == 4.0
    assert box.iqr == 2.0
    assert box.whiskers == (1.0, 5.0)
    assert box.outliers == ()
    assert box.extreme_outliers == ()


def test_box_summary_extreme_outlier():
    box = box_summary([1, 2, 3, 4, 100])
    assert box.q1 == 2.0
    assert box.q3 == 4.0
    assert box.inner_fences == (-1.0, 7.0)
    assert box.outer_fences == (-4.0, 10.0)
    assert box.whiskers == (1.0, 4.0)
    assert box.outliers == (100.0,)
    assert box.extreme_outliers == (100.0,)
    assert box.n_outliers == 1
    assert box.n_extreme_outliers == 1


def test_box_summary_mild_outlier_is_not_extreme():
    box = box_summary([1, 2, 3, 4, 8])
    assert box.outliers == (8.0,)
    assert box.extreme_outliers == ()


def test_box_summary_single_point():
    box = box_summary([3.5])
    assert box.q1 == box.median == box.q3 == 3.5
    assert box.whiskers == (3.5, 3.5)
    assert box.outliers == ()


def test_box_summary_invariants_random():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = rng.standard_t(df=2, size=int(rng.integers(1, 60)))
        box = box_summary(data)
        assert box.q1 <= box.median <= box.q3
        assert (box.q1, box.median, box.q3) == tuple(
            quantile_type7(data, q) for q in (0.25, 0.5, 0.75)
        )
        assert set(box.extreme_outliers) <= set(box.outliers)
        assert box.whiskers[0] >= box.inner_fences[0]
        assert box.whiskers[1] <= box.inner_fences[1]
        assert box.n_outliers + len(
            [v for v in data if box.inner_fences[0] <= v <= box.inner_fences[1]]
        ) == len(data)


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
        assert neg.outliers == tuple(-v for v in reversed(box.outliers))


def test_box_summary_empty():
    with pytest.raises(EmptyDataError):
        box_summary([])


# ---------------------------------------------------------------------------
# two-sample comparison


def test_t_test_identical_groups():
    cmp_ = two_sample_t_equal_var([1, 2, 3], [1, 2, 3])
    assert cmp_.t_value == 0.0
    assert cmp_.p_value == 1.0
    assert cmp_.r_squared == 0.0
    assert cmp_.df == 4


def test_t_test_frozen_example():
    cmp_ = two_sample_t_equal_var([1, 2, 3], [2, 3, 4])
    assert cmp_.t_value == pytest.approx(-1.224744871391589, rel=1e-12)
    assert cmp_.df == 4
    assert cmp_.p_value == pytest.approx(0.28786413472669068, abs=1e-8)
    assert cmp_.r_squared == pytest.approx(0.2727272727272727, rel=1e-12)
    assert cmp_.group_means == (2.0, 3.0)


def test_t_test_positive_when_first_group_larger():
    cmp_ = two_sample_t_equal_var([2, 3, 4], [1, 2, 3])
    assert cmp_.t_value > 0


def test_t_test_sign_flip_exact():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=int(rng.integers(2, 25)))
        b = rng.normal(loc=0.5, size=int(rng.integers(2, 25)))
        c1 = two_sample_t_equal_var(a, b)
        c2 = two_sample_t_equal_var(-a, -b)
        assert c2.t_value == -c1.t_value
        assert c2.p_value == c1.p_value
        assert c2.r_squared == c1.r_squared


def test_t_test_r_squared_identity():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=int(rng.integers(2, 25)))
        b = rng.normal(loc=1.0, size=int(rng.integers(2, 25)))
        cmp_ = two_sample_t_equal_var(a, b)
        t, df = cmp_.t_value, cmp_.df
        assert abs(cmp_.r_squared - t * t / (t * t + df)) < 1e-12
        assert 0.0 <= cmp_.r_squared <= 1.0
        assert 0.0 < cmp_.p_value <= 1.0


def test_t_test_errors():
    with pytest.raises(TooFewObservationsError):
        two_sample_t_equal_var([1], [1, 2])
    with pytest.raises(ZeroPooledVarianceError):
        two_sample_t_equal_var([2, 2], [3, 3])


# ---------------------------------------------------------------------------
# dummy regression


def test_dummy_regression_equal_means_gives_zero():
    assert dummy_regression_r2([1, 2, 3, 1, 2, 3], list("AAABBB")) == pytest.approx(
        0.0, abs=1e-15
    )


def test_dummy_regression_frozen_example():
    r2 = dummy_regression_r2([1, 2, 3, 2, 3, 4], list("AAABBB"))
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
        r2 = dummy_regression_r2(values, groups)
        cmp_ = two_sample_t_equal_var(a, b)
        t, df = cmp_.t_value, cmp_.df
        assert abs(r2 - t * t / (t * t + df)) < 1e-12


def test_dummy_regression_errors():
    with pytest.raises(SingleGroupError):
        dummy_regression_r2([1, 2, 3], ["A", "A", "A"])
    with pytest.raises(SingleGroupError):
        dummy_regression_r2([1, 2, 3], ["A", "B", "C"])
    with pytest.raises(ZeroVarianceError):
        dummy_regression_r2([4, 4, 4, 4], ["A", "A", "B", "B"])
    with pytest.raises(ValueError):
        dummy_regression_r2([1, 2, 3], ["A", "B"])
