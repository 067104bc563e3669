import math
import tracemalloc

import numpy as np
import pytest

from coda_ratios import (
    RatioSpec,
    ilr_matrix,
    invert_spec,
    parse_sbp,
    ratio_column,
    table1_demo,
)
from coda_ratios.errors import CodaError, DuplicateLabelError, UnknownLabelError


def test_ratio_spec_validation():
    RatioSpec(name="r1", numerator=("TA",), denominator=("NCL", "CL"))
    with pytest.raises(CodaError, match=r"^numerator group is empty$"):
        RatioSpec(name="r", numerator=(), denominator=("CL",))
    with pytest.raises(CodaError, match=r"^denominator group is empty$"):
        RatioSpec(name="r", numerator=("TA",), denominator=())
    with pytest.raises(DuplicateLabelError) as err:
        RatioSpec(name="r", numerator=("TA", "CL"), denominator=("CL",))
    assert err.value.labels == ("CL",)
    # summing a part twice would make "A + A / B" report 2*A/B
    with pytest.raises(DuplicateLabelError) as err:
        RatioSpec("r", ("A", "A"), ("B",))
    assert err.value.labels == ("A",)


def test_ratio_column_sums_groups():
    spec = RatioSpec(name="r1", numerator=("TA",), denominator=("NCL", "CL"))
    values = np.array([[100.0, 20.0, 30.0], [90.0, 5.0, 40.0]])
    assert ratio_column(values, ("TA", "NCL", "CL"), spec).tolist() == [2.0, 2.0]


def test_ratio_column_holds_two_columns_of_its_own():
    # each sum is one new column, added to and then divided in place; the caller's array is
    # left as it was, and an integer one still gives the float quotient
    values = np.random.default_rng(4).uniform(1.0, 2.0, size=(50_000, 4))
    before = values.copy()
    spec = RatioSpec(name="r", numerator=("a", "b"), denominator=("c", "d"))
    ratio_column(values, tuple("abcd"), spec)  # first-call costs are not the call's
    tracemalloc.start()
    try:
        ratio_column(values, tuple("abcd"), spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(values) * 8
    assert np.array_equal(values, before)
    assert ratio_column(np.array([[3, 1, 2, 2]]), tuple("abcd"), spec).tolist() == [1.0]


def test_ratio_column_sums_in_float_whatever_the_dtype():
    # summed in int64, 2**62 + 2**62 would wrap to -2**63
    spec = RatioSpec("r", ("A", "B"), ("C",))
    got = ratio_column(np.array([[2**62, 2**62, 1]]), ("A", "B", "C"), spec)
    assert got.dtype == np.float64 and got.tolist() == [2.0**63]
    got = ratio_column(np.array([[1.0, 2.0, 4.0]], dtype=np.float32), ("A", "B", "C"), spec)
    assert got.dtype == np.float32 and got.tolist() == [0.75]


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
        vals = np.exp(rng.uniform(-4, 8, size=(1, 4)))
        spec = RatioSpec(name="r", numerator=("a", "b"), denominator=("c", "d"))
        labels = tuple("abcd")
        product = ratio_column(vals, labels, spec) * ratio_column(vals, labels, invert_spec(spec))
        assert product[0] == pytest.approx(1.0, rel=1e-15)


def test_ray_angles_match_printed_table():
    printed = [82.875, 63.435, 59.035, 59.035, 45.0, 45.0, 30.965, 30.965, 26.565, 7.125]
    firm_ids, table = table1_demo()
    assert firm_ids == tuple(f"firm{i:02d}" for i in range(1, 11))
    assert all(len(column) == 10 for column in table.values())
    assert table["alpha_deg"] == pytest.approx(printed, abs=0.01)


def test_ray_angle_tangent_identity():
    _, table = table1_demo()
    tangents = np.tan(np.radians(table["alpha_deg"]))
    assert tangents == pytest.approx(table["mg2"] / table["mg1"], rel=1e-12)


def test_ray_angle_degrees_of_diagonal_firm():
    _, table = table1_demo()
    assert table["mg1"][4] == table["mg2"][4] == 1.5
    assert table["alpha_deg"][4] == 45.0


def test_table1_ratio_columns_exact():
    _, table = table1_demo()
    ratio21 = np.array([8, 2, 5 / 3, 5 / 3, 1, 1, 0.6, 0.6, 0.5, 0.125])
    assert table["ratio21"] == pytest.approx(ratio21, abs=1e-9)
    assert table["ratio12"] == pytest.approx(1.0 / ratio21, abs=1e-9)


def test_table1_proportional_firms_share_ratios():
    # proportional magnitudes: equal up to one rounding of the division
    ratio21 = table1_demo()[1]["ratio21"]
    assert ratio21[2] == pytest.approx(ratio21[3], rel=1e-15)
    assert ratio21[6] == pytest.approx(ratio21[7], rel=1e-15)


def test_table1_ilr_column_antisymmetric():
    # the construction mirrors firms about the 45-degree ray, so the ilr
    # column is the reversed, sign-flipped version of itself
    ilr = table1_demo()[1]["ilr"]
    assert ilr == pytest.approx(-ilr[::-1], rel=1e-12, abs=1e-15)
    assert ilr[0] == pytest.approx(1.4703872152028208, rel=1e-12)
    assert ilr[2] == pytest.approx(0.3612082625687801, rel=1e-12)
    assert ilr[4] == 0.0


def test_table1_ilr_is_the_balance_of_mg2_against_mg1():
    # one balance formula: the demo column equals each firm's own ilr_matrix
    # row bit for bit, so firms on the same ray (firm03 and firm04) share
    # their ilr exactly
    tree = parse_sbp("(mg2|mg1)")
    firm_ids, table = table1_demo()
    for i, firm_id in enumerate(firm_ids):
        x = [[table["mg1"][i], table["mg2"][i]]]
        assert table["ilr"][i] == ilr_matrix(x, ("mg1", "mg2"), tree)[0, 0], firm_id
    assert table["ilr"][2] == table["ilr"][3]


def test_table1_angles_mirror_about_45_degrees():
    alpha = table1_demo()[1]["alpha_deg"]
    assert alpha + alpha[::-1] == pytest.approx(np.full(10, 90.0), abs=1e-9)


def test_ratio_distance_distorts_point_distance():
    # firms 1 and 2 are close in the plane but far apart in ratio terms;
    # firms 2 and 10 are the other way around
    _, table = table1_demo()
    ratio21 = table["ratio21"]
    points = np.column_stack([table["mg1"], table["mg2"]])
    ratio_gap_12 = abs(ratio21[0] - ratio21[1])
    ratio_gap_2_10 = abs(ratio21[1] - ratio21[9])
    assert ratio_gap_12 == pytest.approx(6.0, abs=1e-12)
    assert ratio_gap_2_10 == pytest.approx(1.875, abs=1e-12)

    def euclid(i, j):
        return math.hypot(*(points[i] - points[j]))

    assert euclid(0, 1) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert euclid(1, 9) == pytest.approx(2.5 * math.sqrt(2.0), rel=1e-12)
    assert ratio_gap_12 > ratio_gap_2_10
    assert euclid(0, 1) < euclid(1, 9)


def test_table1_ratio_columns_skew_right_but_ilr_does_not():
    from coda_ratios import describe

    _, table = table1_demo()
    assert describe(table["ratio21"]).skewness > 0
    assert describe(table["ratio12"]).skewness > 0
    assert abs(describe(table["ilr"]).skewness) < 1e-12


def test_table1_swapped_magnitudes_swap_ratios():
    _, table = table1_demo()
    assert (table["mg1"][0], table["mg2"][0]) == (table["mg2"][9], table["mg1"][9])
    assert table["ratio21"][0] == table["ratio12"][9]
    assert table["ratio12"][0] == table["ratio21"][9]
