import numpy as np
import pytest

from coda_ratios import two_sample_t_equal_var
from coda_ratios.errors import CodaError
from coda_ratios.tdist import regularized_incomplete_beta, student_t_two_sided_p

# two-sided p-values computed with 50-digit mpmath quadrature of the
# Student-t density, rounded to double precision
P_ORACLE = [
    (0.5, 1, 0.70483276469913345),
    (1.0, 1, 0.5),
    (2.0, 1, 0.29516723530086655),
    (1.0, 2, 0.42264973081037424),
    (2.776, 4, 0.050022778319976402),
    (1.224744871391589, 4, 0.28786413472669068),
    (2.0, 10, 0.073388034770740366),
    (3.0, 30, 0.0053899640656519466),
    (10.0, 5, 0.00017094757574296359),
    (25.0, 2, 0.0015961702114103339),
    (0.001, 50, 0.99920609477550166),
    (0.25, 108, 0.80306226938920931),
    (0.53, 108, 0.5971998734592041),
    (0.78, 108, 0.43709695660202753),
    (1.88, 108, 0.062802747223761395),
    (2.14, 108, 0.0346058137836212),
    (2.23, 108, 0.027815986067357491),
    (40.0, 100, 2.4619550346877437e-63),
    (0.1, 7, 0.92314805960479239),
    (5.5, 17, 3.903740485792287e-5),
]


@pytest.mark.parametrize("t,df,expected", P_ORACLE)
def test_p_value_against_frozen_oracle(t, df, expected):
    p = student_t_two_sided_p(t, df)
    assert p == pytest.approx(expected, abs=1e-8)
    # tiny tails need relative accuracy too
    assert p == pytest.approx(expected, rel=1e-7)


def _oracle(t, df):
    """Two-sided p-value I_x(df/2, 1/2), x = df/(df + t^2), from 30-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        x = mp.mpf(df) / (df + mp.mpf(t) ** 2)
        return float(mp.betainc(mp.mpf(df) / 2, mp.mpf("0.5"), 0, x, regularized=True))


def test_p_value_against_live_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        df = int(rng.integers(1, 200))
        t = float(rng.uniform(-8, 8))
        if t == 0.0:
            continue
        assert student_t_two_sided_p(t, df) == pytest.approx(
            _oracle(t, df), rel=1e-8, abs=1e-12
        )


@pytest.mark.parametrize("df", [10**6, 10**7])
def test_p_value_at_large_df_against_live_oracle(df):
    # within 1e-8 for |t| in [0.01, 8] up to df = 1e6, where a fine scan of t peaks at
    # 6.1e-9 near t = 1.73; at df = 1e7 only these points hold, see the xfails below
    ts = (0.01, 0.3, 1.0, 1.96, 3.0, 5.0, 8.0) + ((0.014, 0.02, 1.725) if df == 10**6 else ())
    for t in ts:
        assert student_t_two_sided_p(t, df) == pytest.approx(_oracle(t, df), rel=1e-8)


@pytest.mark.xfail(reason="1 - x keeps few digits at small t^2/df; ROADMAP item 4")
def test_p_value_at_small_t_and_large_df_against_live_oracle():
    t, df = 1e-4, 10**7
    assert student_t_two_sided_p(t, df) == pytest.approx(_oracle(t, df), rel=1e-8)


# relative errors 2.86e-8, 2.18e-8 and 2.09e-8: the bound tdist states is 5.3e-8 at df = 1e7
@pytest.mark.xfail(reason="1e-8 holds only up to df = 1e6; ROADMAP item 4")
@pytest.mark.parametrize("t", [0.014, 0.02, 1.725])
def test_p_value_at_df_1e7_within_1e8_against_live_oracle(t):
    assert student_t_two_sided_p(t, 10**7) == pytest.approx(_oracle(t, 10**7), rel=1e-8)


def test_p_at_zero_is_exactly_one():
    for df in (1, 2, 30, 108):
        assert student_t_two_sided_p(0.0, df) == 1.0


def test_p_is_even_in_t():
    for t, df, _ in P_ORACLE:
        assert student_t_two_sided_p(-t, df) == student_t_two_sided_p(t, df)


def test_p_in_unit_interval():
    # heavy-tailed draws include |t| large enough that p underflows to
    # exactly 0.0; that is correct, so positivity is only asserted for
    # moderate statistics
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = float(rng.standard_cauchy())
        df = int(rng.integers(1, 500))
        p = student_t_two_sided_p(t, df)
        assert 0.0 <= p <= 1.0
        if abs(t) < 10.0 and df <= 200:
            assert p > 0.0


@pytest.mark.parametrize("df", [1, 5, 108])
def test_p_decreases_as_t_grows(df):
    ts = [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0]
    ps = [student_t_two_sided_p(t, df) for t in ts]
    assert all(p1 > p2 for p1, p2 in zip(ps, ps[1:]))


@pytest.mark.parametrize("df", [0, -3, 2.5, float("nan"), float("inf"), "x", None])
def test_invalid_df_rejected(df):
    with pytest.raises(CodaError, match="^degrees of freedom must be a positive integer, got "):
        student_t_two_sided_p(1.0, df)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the variance
def test_nan_t_rejected():
    with pytest.raises(CodaError, match="^t must be a number, got nan$"):
        student_t_two_sided_p(float("nan"), 5)
    with pytest.raises(CodaError, match="^t must be a number, got nan$"):
        two_sample_t_equal_var([1, 2, np.inf], [1, 2, 3])


def test_integer_like_df_accepted():
    assert student_t_two_sided_p(1.0, np.int64(4)) == pytest.approx(
        student_t_two_sided_p(1.0, 4), rel=0, abs=0
    )
    assert student_t_two_sided_p(1.0, 108.0) == student_t_two_sided_p(1.0, 108)


# ---------------------------------------------------------------------------
# regularized incomplete beta


def test_beta_edge_cases():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


def test_beta_uniform_case_is_identity():
    # I_x(1, 1) = x
    for x in (0.1, 0.25, 0.5, 0.9):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
            x, rel=1e-12
        )


def test_beta_complement_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = float(rng.uniform(0.2, 50))
        b = float(rng.uniform(0.2, 50))
        x = float(rng.uniform(0, 1))
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_beta_against_live_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(5)
    for _ in range(60):
        a = float(rng.uniform(0.3, 80))
        b = float(rng.uniform(0.3, 80))
        x = float(rng.uniform(0, 1))
        expected = float(mp.betainc(a, b, 0, x, regularized=True))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            expected, rel=1e-8, abs=1e-12
        )


def test_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)
