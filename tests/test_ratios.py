import math

import numpy as np
import pytest

from coda_ratios import (
    Composition,
    DemoFirm,
    RatioSpec,
    eval_ratio,
    ilr_transform,
    invert_spec,
    parse_sbp,
    ray_angle_degrees,
    table1_demo,
)
from coda_ratios.errors import (
    DuplicateLabelError,
    EmptyGroupError,
    NonPositivePartError,
    UnknownLabelError,
)
from coda_ratios.ratios import ratio_column


def test_ratio_spec_validation():
    RatioSpec(name="r1", numerator=("TA",), denominator=("NCL", "CL"))
    with pytest.raises(EmptyGroupError):
        RatioSpec(name="r", numerator=(), denominator=("CL",))
    with pytest.raises(EmptyGroupError):
        RatioSpec(name="r", numerator=("TA",), denominator=())
    with pytest.raises(DuplicateLabelError) as err:
        RatioSpec(name="r", numerator=("TA", "CL"), denominator=("CL",))
    assert err.value.labels == ("CL",)
    # summing a part twice would make "A + A / B" report 2*A/B
    with pytest.raises(DuplicateLabelError) as err:
        RatioSpec("r", ("A", "A"), ("B",))
    assert err.value.labels == ("A",)


def test_eval_ratio_sums_groups():
    x = Composition(labels=("TA", "NCL", "CL"), values=(100, 20, 30))
    spec = RatioSpec(name="r1", numerator=("TA",), denominator=("NCL", "CL"))
    assert eval_ratio(x, spec) == 2.0


def test_eval_ratio_unknown_label():
    x = Composition(labels=("TA", "NCL"), values=(100, 20))
    spec = RatioSpec(name="r", numerator=("TA",), denominator=("INV",))
    with pytest.raises(UnknownLabelError):
        eval_ratio(x, spec)


def test_ratio_column_rejects_unknown_label():
    spec = RatioSpec(name="r", numerator=("TA",), denominator=("INV",))
    with pytest.raises(UnknownLabelError) as err:
        ratio_column(np.array([[100.0, 20.0]]), ("TA", "NCL"), spec)
    assert err.value.labels == ("INV",)


def test_ratio_column_rejects_repeated_labels():
    # without the check the second "A" column would silently be the one read
    spec = RatioSpec(name="r", numerator=("A",), denominator=("B",))
    with pytest.raises(DuplicateLabelError) as err:
        ratio_column(np.array([[1.0, 5.0, 2.0]]), ("A", "A", "B"), spec)
    assert err.value.labels == ("A",)


def test_invert_spec_swaps_groups():
    spec = RatioSpec(name="r1", numerator=("TA",), denominator=("NCL", "CL"))
    assert invert_spec(spec) == RatioSpec(name="r1", numerator=("NCL", "CL"), denominator=("TA",))


def test_invert_spec_is_an_involution():
    spec = RatioSpec(name="r", numerator=("a", "b"), denominator=("c",))
    assert invert_spec(invert_spec(spec)) == spec


def test_ratio_product_is_one_up_to_rounding():
    # mathematically r * r_inverted = 1; floating division leaves ~1 ulp
    for seed in range(100):
        rng = np.random.default_rng(seed)
        vals = np.exp(rng.uniform(-4, 8, size=4))
        x = Composition(labels=tuple("abcd"), values=vals)
        spec = RatioSpec(name="r", numerator=("a", "b"), denominator=("c", "d"))
        product = eval_ratio(x, spec) * eval_ratio(x, invert_spec(spec))
        assert product == pytest.approx(1.0, rel=1e-15)


def test_demo_firm_rejects_non_positive_magnitudes():
    with pytest.raises(NonPositivePartError):
        DemoFirm("bad", 0.0, 1.0)
    with pytest.raises(NonPositivePartError):
        DemoFirm("bad", 1.0, -2.0)


def test_ray_angles_match_printed_table():
    printed = [82.875, 63.435, 59.035, 59.035, 45.0, 45.0, 30.965, 30.965, 26.565, 7.125]
    rows = table1_demo()
    assert len(rows) == 10
    for row, alpha in zip(rows, printed):
        assert abs(row.alpha_deg - alpha) < 0.01


def test_ray_angle_tangent_identity():
    for row in table1_demo():
        assert math.tan(math.radians(row.alpha_deg)) == pytest.approx(
            row.firm.mg2 / row.firm.mg1, rel=1e-12
        )


def test_ray_angle_degrees_of_diagonal_firm():
    assert ray_angle_degrees(DemoFirm("d", 1.5, 1.5)) == 45.0


def test_table1_ratio_columns_exact():
    rows = table1_demo()
    ratio21 = [8, 2, 5 / 3, 5 / 3, 1, 1, 0.6, 0.6, 0.5, 0.125]
    for row, expected in zip(rows, ratio21):
        assert row.ratio21 == pytest.approx(expected, abs=1e-9)
        assert row.ratio12 == pytest.approx(1.0 / expected, abs=1e-9)


def test_table1_proportional_firms_share_ratios():
    # proportional magnitudes: equal up to one rounding of the division
    rows = table1_demo()
    assert rows[2].ratio21 == pytest.approx(rows[3].ratio21, rel=1e-15)
    assert rows[6].ratio21 == pytest.approx(rows[7].ratio21, rel=1e-15)


def test_table1_ilr_column_antisymmetric():
    # the construction mirrors firms about the 45-degree ray, so the ilr
    # column is the reversed, sign-flipped version of itself
    rows = table1_demo()
    for i in range(10):
        assert rows[i].ilr == pytest.approx(-rows[9 - i].ilr, rel=1e-12, abs=1e-15)
    assert rows[0].ilr == pytest.approx(1.4703872152028208, rel=1e-12)
    assert rows[2].ilr == pytest.approx(0.3612082625687801, rel=1e-12)
    assert rows[4].ilr == 0.0


def test_table1_ilr_is_the_balance_of_mg2_against_mg1():
    # one balance formula: the demo column equals ilr_transform bit for bit,
    # so firms on the same ray (firm03 and firm04) share their ilr exactly
    tree = parse_sbp("(mg2|mg1)")
    rows = table1_demo()
    for row in rows:
        x = Composition(labels=("mg1", "mg2"), values=(row.firm.mg1, row.firm.mg2))
        assert row.ilr == ilr_transform(x, tree).values[0], row.firm.id
    assert rows[2].ilr == rows[3].ilr


def test_table1_angles_mirror_about_45_degrees():
    rows = table1_demo()
    for i in range(10):
        assert rows[i].alpha_deg + rows[9 - i].alpha_deg == pytest.approx(
            90.0, abs=1e-9
        )


def test_ratio_distance_distorts_point_distance():
    # firms 1 and 2 are close in the plane but far apart in ratio terms;
    # firms 2 and 10 are the other way around
    rows = table1_demo()
    f1, f2, f10 = rows[0], rows[1], rows[9]
    ratio_gap_12 = abs(f1.ratio21 - f2.ratio21)
    ratio_gap_2_10 = abs(f2.ratio21 - f10.ratio21)
    assert ratio_gap_12 == pytest.approx(6.0, abs=1e-12)
    assert ratio_gap_2_10 == pytest.approx(1.875, abs=1e-12)

    def euclid(a, b):
        return math.hypot(a.firm.mg1 - b.firm.mg1, a.firm.mg2 - b.firm.mg2)

    assert euclid(f1, f2) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert euclid(f2, f10) == pytest.approx(2.5 * math.sqrt(2.0), rel=1e-12)
    assert ratio_gap_12 > ratio_gap_2_10
    assert euclid(f1, f2) < euclid(f2, f10)


def test_table1_ratio_columns_skew_right_but_ilr_does_not():
    from coda_ratios import skewness

    rows = table1_demo()
    assert skewness([r.ratio21 for r in rows]) > 0
    assert skewness([r.ratio12 for r in rows]) > 0
    assert abs(skewness([r.ilr for r in rows])) < 1e-12


def test_table1_swapped_magnitudes_swap_ratios():
    rows = table1_demo()
    assert (rows[0].firm.mg1, rows[0].firm.mg2) == (rows[9].firm.mg2, rows[9].firm.mg1)
    assert rows[0].ratio21 == rows[9].ratio12
    assert rows[0].ratio12 == rows[9].ratio21
