import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from coda_ratios import (
    AnalysisConfig,
    AnalysisReport,
    FirmDataset,
    RatioSpec,
    VariableReport,
    box_summary,
    describe,
    emit_report,
    ilr_matrix,
    invert_spec,
    ratio_column,
    run_analysis,
)
from coda_ratios.errors import SingleGroupError
from coda_ratios.report import CSV_COLUMNS

from conftest import csv_text

PARTS = ("TA", "NCL", "CL")
SBP = "(TA|(NCL|CL))"


def make_dataset(rows, brands=None, parts=PARTS):
    return FirmDataset(
        firm_ids=tuple(f"f{i + 1}" for i in range(len(rows))),
        part_labels=parts,
        values=np.array(rows, dtype=float),
        group=None if brands is None else tuple(brands),
    )


def random_dataset(seed, n=None, with_groups=True):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(6, 20))
    rows = np.exp(rng.uniform(-2, 6, size=(n, 3)))
    brands = None
    if with_groups:
        brands = ["yes" if rng.uniform() < 0.5 else "no" for _ in range(n)]
        brands[0], brands[1] = "yes", "yes"  # both groups at least twice
        brands[2], brands[3] = "no", "no"
    return make_dataset(rows, brands)


def make_config(**overrides):
    kwargs = dict(
        parts=PARTS,
        sbp=SBP,
        standard_ratios=(
            RatioSpec("r1", ("TA",), ("NCL", "CL")),
            RatioSpec("r2", ("NCL",), ("CL",)),
        ),
    )
    kwargs.update(overrides)
    return AnalysisConfig(**kwargs)


DATASET = make_dataset(
    [
        (100, 20, 30),
        (80, 35, 25),
        (120, 50, 10),
        (90, 15, 45),
        (60, 22, 18),
        (150, 40, 35),
    ],
    brands=["yes", "no", "yes", "no", "yes", "no"],
)


def test_variable_structure_and_order():
    report = run_analysis(DATASET, make_config())
    assert report.n == 6
    assert [v.name for v in report.variables] == [
        "y1", "y1p", "y2", "y2p", "r1", "r1p", "r2", "r2p",
    ]
    assert [v.kind for v in report.variables] == [
        "balance", "balance_permuted",
        "balance", "balance_permuted",
        "ratio", "ratio_permuted",
        "ratio", "ratio_permuted",
    ]


def _bits(record):
    """Every field of a stats, box or comparison record, each number as its float64 bytes."""
    return {k: np.asarray(v, dtype=float).tobytes() for k, v in vars(record).items()}


def _assert_statistics_of(variable, column):
    # the report's statistics are describe and box_summary of the column, bit for bit
    assert _bits(variable.stats) == _bits(describe(column))
    assert _bits(variable.box) == _bits(box_summary(column))


def test_balance_columns_match_single_firm_transform():
    # column order in the dataset differs from the partition's leaf order
    parts = ("CL", "TA", "NCL")
    rows = [(30, 100, 20), (25, 80, 35), (10, 120, 50), (45, 90, 15), (18, 60, 22)]
    ds = make_dataset(rows, parts=parts)
    config = AnalysisConfig(parts=parts, sbp=SBP)
    report = run_analysis(ds, config)
    Y = ilr_matrix(ds.values, ds.part_labels, config.tree)
    # an independent per-firm route through math.log, so only near-equality
    # is promised, not bit equality
    for i, (cl, ta, ncl) in enumerate(ds.values.tolist()):
        y1 = math.sqrt(2.0 / 3.0) * (math.log(ta) - (math.log(ncl) + math.log(cl)) / 2.0)
        y2 = math.sqrt(0.5) * (math.log(ncl) - math.log(cl))
        assert Y[i, 0] == pytest.approx(y1, rel=1e-12, abs=1e-12)
        assert Y[i, 1] == pytest.approx(y2, rel=1e-12, abs=1e-12)
    for j, name in enumerate(config.tree.coordinate_names):
        _assert_statistics_of(report.variable(name), Y[:, j])
        _assert_statistics_of(report.variable(name + "p"), -Y[:, j])


# heavy-tailed log parts, so the balances have outliers on both sides
HEAVY_TAILED = make_dataset(np.exp(np.random.default_rng(0).standard_t(2, size=(200, 3))))


def test_permuted_balance_is_exact_negation():
    for ds in (DATASET, HEAVY_TAILED):
        report = run_analysis(ds, make_config())
        for name in ("y1", "y2"):
            v, vp = report.variable(name), report.variable(name + "p")
            assert v.box.n_outliers > 0 or ds is DATASET
            assert vp.stats.mean == -v.stats.mean
            assert vp.box.q1 == -v.box.q3
            assert vp.box.outliers.tobytes() == (-v.box.outliers[::-1]).tobytes()


def _left_sum(terms):
    # plain left-to-right float additions; sum() compensates from Python 3.12 on
    total = 0.0
    for term in terms:
        total += term
    return total


def test_ratio_columns_equal_per_firm_python_sums_exactly():
    # the column sums add parts in spec order, starting from 0, so the
    # vectorized columns and a per-firm Python reference agree bit for bit
    ds = random_dataset(3, n=50)
    config = make_config()
    report = run_analysis(ds, config)
    for spec in config.standard_ratios:
        for s, name in ((spec, spec.name), (invert_spec(spec), spec.name + "p")):
            expected = []
            for row in ds.values.tolist():
                part = dict(zip(PARTS, row))
                num = _left_sum(part[label] for label in s.numerator)
                expected.append(num / _left_sum(part[label] for label in s.denominator))
            column = ratio_column(ds.values, ds.part_labels, s)
            assert column.tolist() == expected
            _assert_statistics_of(report.variable(name), column)


def test_group_metadata_and_t_orientation():
    config = make_config(group_variable="brand")
    report = run_analysis(DATASET, config, timestamp="2026-01-02T03:04:05Z")
    assert report.group_variable == "brand"
    assert report.groups == (("no", 3), ("yes", 3))
    assert report.timestamp == "2026-01-02T03:04:05Z"
    v = report.variable("y1")
    values = ilr_matrix(DATASET.values, DATASET.part_labels, config.tree)[:, 0]
    yes = values[[0, 2, 4]]
    no = values[[1, 3, 5]]
    # t > 0 iff the alphabetically higher group has the larger mean
    assert v.comparison.group_means == (
        pytest.approx(float(yes.mean())),
        pytest.approx(float(no.mean())),
    )
    assert (v.comparison.t_value > 0) == (yes.mean() > no.mean())


def test_no_group_variable_no_comparisons():
    report = run_analysis(DATASET, make_config())
    assert report.groups is None
    assert report.group_variable is None
    assert all(v.comparison is None for v in report.variables)
    assert all(v.comparison_note is None for v in report.variables)


def test_single_group_value_is_an_error():
    ds = make_dataset([(1, 2, 3), (4, 5, 6)], brands=["yes", "yes"])
    with pytest.raises(SingleGroupError):
        run_analysis(ds, make_config(group_variable="brand"))


def test_three_group_values_is_an_error():
    ds = make_dataset(
        [(1, 2, 3), (4, 5, 6), (7, 8, 9)], brands=["a", "b", "c"]
    )
    with pytest.raises(SingleGroupError):
        run_analysis(ds, make_config(group_variable="brand"))


def test_degenerate_data_yields_notes_not_crashes():
    ds = make_dataset(
        [(10, 2, 5)] * 6, brands=["yes", "no", "yes", "no", "yes", "no"]
    )
    report = run_analysis(ds, make_config(group_variable="brand"))
    for v in report.variables:
        assert v.stats is None
        assert "variance" in v.stats_note
        assert v.comparison is None
        assert v.comparison_note is not None
        assert v.box.iqr == 0.0
        assert v.box.outliers.tolist() == []


def test_too_few_firms_yields_notes():
    ds = make_dataset([(10, 2, 5), (8, 3, 4)])
    report = run_analysis(ds, make_config())
    v = report.variable("y1")
    assert v.stats is None
    assert "4" in v.stats_note
    assert report.n == 2


def test_permutation_invariants_end_to_end():
    # the balance twin mirrors every statistic; this is the property the
    # permuted columns exist to demonstrate
    for seed in range(20):
        ds = random_dataset(seed)
        report = run_analysis(ds, make_config(group_variable="brand"))
        for base in ("y1", "y2"):
            v = report.variable(base)
            vp = report.variable(base + "p")
            assert vp.stats.skewness == -v.stats.skewness
            assert vp.stats.excess_kurtosis == v.stats.excess_kurtosis
            assert vp.stats.sd == v.stats.sd
            assert vp.box.n_outliers == v.box.n_outliers
            assert vp.box.n_extreme_outliers == v.box.n_extreme_outliers
            assert vp.comparison.t_value == -v.comparison.t_value
            assert vp.comparison.p_value == v.comparison.p_value
            assert vp.comparison.r_squared == v.comparison.r_squared


def test_report_lookup():
    report = run_analysis(DATASET, make_config())
    assert report.variable("r1").kind == "ratio"
    with pytest.raises(KeyError):
        report.variable("nope")


# ---------------------------------------------------------------------------
# serialization


def test_json_report_shape():
    config = make_config(group_variable="brand")
    report = run_analysis(DATASET, config, timestamp="2026-01-02T03:04:05Z")
    doc = json.loads(emit_report(report, "json"))
    assert set(doc) == {"metadata", "variables"}
    meta = doc["metadata"]
    assert meta["n"] == 6
    assert meta["timestamp"] == "2026-01-02T03:04:05Z"
    assert meta["groups"] == [["no", 3], ["yes", 3]]
    assert meta["t_convention"] == "t compares mean(yes) - mean(no)"
    assert meta["config"]["parts"] == ["TA", "NCL", "CL"]
    assert meta["config"]["sbp"] == SBP
    assert [v["name"] for v in doc["variables"]] == [
        "y1", "y1p", "y2", "y2p", "r1", "r1p", "r2", "r2p",
    ]
    v = doc["variables"][0]
    assert set(v) == {
        "name", "kind", "stats", "stats_note", "box", "comparison",
        "comparison_note",
    }
    assert v["stats"]["n"] == 6
    assert v["box"]["n_outliers"] == v["box"]["n_outliers"]
    assert v["comparison"]["df"] == 4


def test_json_round_trips_floats_exactly():
    report = run_analysis(DATASET, make_config())
    doc = json.loads(emit_report(report, "json"))
    v = report.variable("y1")
    assert doc["variables"][0]["stats"]["skewness"] == v.stats.skewness
    assert doc["variables"][0]["box"]["q1"] == v.box.q1


def test_csv_report_shape():
    config = make_config(group_variable="brand")
    report = run_analysis(DATASET, config)
    text = emit_report(report, "csv").decode("utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "variable,n,mean,sd,skewness,kurtosis,n_outliers,n_extreme,t,df,p,r_squared"
    assert len(lines) == 1 + 8
    first = lines[1].split(",")
    assert first[0] == "y1"
    assert first[1] == "6"
    # repr floats parse back to the exact value
    assert float(first[2]) == report.variable("y1").stats.mean


def test_csv_degenerate_cells_are_empty():
    ds = make_dataset([(10, 2, 5)] * 4)
    report = run_analysis(ds, make_config())
    lines = emit_report(report, "csv").decode("utf-8").strip().split("\n")
    first = lines[1].split(",")
    assert first[2] == ""  # mean
    assert first[8] == ""  # t
    assert first[6] == "0"  # outlier count still present


def test_csv_report_quotes_a_name_holding_a_separator_a_quote_or_a_line_end():
    # a report built by hand may hold names that no config key can
    names = ("a,b", 'q"x', "a\rb", "c\nd", "e\r\nf", "Bilanz \u00fcber \u20ac", "plain")
    box = box_summary([1.0, 2.0, 3.0, 4.0, 5.0])
    variables = tuple(VariableReport(name, "ratio", None, "-", box, None, "-") for name in names)
    report = AnalysisReport(variables, 5, {}, None, None, None)
    text = emit_report(report, "csv").decode("utf-8")
    table = [list(CSV_COLUMNS), *([name, "5", "", "", "", "", "0", "0", "", "", "", ""] for name in names)]
    assert text == csv_text(table)
    assert list(csv.reader(io.StringIO(text, newline=""))) == table


def test_emit_report_unknown_format():
    report = run_analysis(DATASET, make_config())
    with pytest.raises(ValueError):
        emit_report(report, "xml")


def test_emitted_bytes_are_deterministic():
    config = make_config(group_variable="brand")
    for fmt in ("json", "csv"):
        a = emit_report(run_analysis(DATASET, config, timestamp="t0"), fmt)
        b = emit_report(run_analysis(DATASET, config, timestamp="t0"), fmt)
        assert a == b


def test_reports_compare_equal_across_runs():
    config = make_config(group_variable="brand")
    a, b = run_analysis(DATASET, config), run_analysis(DATASET, config)
    for fmt in ("json", "csv"):
        assert emit_report(a, fmt) == emit_report(b, fmt)
    assert [v.name for v in a.variables] == [v.name for v in b.variables]
    for va, vb in zip(a.variables, b.variables):
        for record in ("stats", "box", "comparison"):
            assert _bits(getattr(va, record)) == _bits(getattr(vb, record))


def _dumped_whole(report) -> bytes:
    """The JSON as json.dumps(indent=2) writes it with every outlier list in place."""
    doc = json.loads(emit_report(report, "json"))
    for entry, v in zip(doc["variables"], report.variables, strict=True):
        entry["box"]["outliers"] = v.box.outliers.tolist()
        entry["box"]["extreme_outliers"] = v.box.extreme_outliers.tolist()
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")


# strings that hold a splice point's text, quotes, backslashes and non-ASCII
_TRICKY = (
    '"outliers": "<outliers>"',
    'x\\"extreme_outliers": "<outliers>"\\',
    "<outliers>",
    "Bilanz \u00fcber \u20ac \U0001f4c8",
)


def test_spliced_json_equals_json_dumps_of_the_whole_document():
    samples = [
        [1.0, 2.0, 3.0, 4.0, 5.0],  # no outliers
        [1.0, 2.0, 3.0, 4.0, 8.0],  # one mild outlier, no extreme one
        [1.0, 2.0, 3.0, 4.0, 100.0],  # one outlier, which is extreme
        [-100.0, 1.0, 2.0, 3.0, 4.0, 100.0],  # every outlier extreme, both sides
        [-0.0, 10.0, 10.5, 11.0, 11.5, 12.0],  # -0.0 is an extreme outlier
        [5e-324, 1e-310, 10.0, 10.0, 10.5, 11.0, 11.5, 12.0, 12.0, 12.0],  # subnormals
        [7.0],  # one value
    ]
    variables = tuple(
        VariableReport(
            name=_TRICKY[i % 4] + str(i),
            kind="ratio",
            stats=None,
            stats_note=_TRICKY[(i + 1) % 4],
            box=box_summary(xs),
            comparison=None,
            comparison_note=_TRICKY[(i + 2) % 4],
        )
        for i, xs in enumerate(samples)
    )
    assert [v.box.n_outliers for v in variables] == [0, 1, 1, 2, 1, 2, 0]
    assert [v.box.n_extreme_outliers for v in variables] == [0, 0, 1, 2, 1, 2, 0]
    report = AnalysisReport(
        variables=variables,
        n=7,
        config_echo={"parts": list(_TRICKY), "sbp": _TRICKY[0]},
        timestamp=_TRICKY[1],
        group_variable=_TRICKY[2],
        groups=((_TRICKY[0], 3), (_TRICKY[3], 4)),
    )
    emitted = emit_report(report, "json")
    assert emitted == _dumped_whole(report)
    assert b"-0.0" in emitted and b"5e-324" in emitted and b"1e-310" in emitted


@pytest.mark.parametrize("seed", range(4))
def test_spliced_json_of_a_random_analysis(seed):
    ds = random_dataset(seed, n=200)
    report = run_analysis(ds, make_config(group_variable="brand"))
    assert sum(v.box.n_outliers for v in report.variables) > 0
    assert emit_report(report, "json") == _dumped_whole(report)


@pytest.mark.parametrize("outlier", [np.inf, -np.inf])
def test_json_rejects_an_outlier_that_is_not_finite(outlier):
    # run_analysis refuses such values; a report built by hand still meets allow_nan=False
    box = box_summary([1.0, 2.0, 2.0, 3.0, 3.0, 4.0, outlier])
    assert box.outliers.tolist() == [outlier]
    variable = VariableReport("v", "ratio", None, "", box, None, None)
    report = AnalysisReport((variable,), 7, {}, None, None, None)
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_report(report, "json")


def test_report_keeps_no_per_firm_column():
    # 20 000 firms; uniform parts give few outliers, so the statistics are small
    rng = np.random.default_rng(11)
    brands = rng.choice(["no", "yes"], 20_000).tolist()
    ds = make_dataset(rng.uniform(1.0, 2.0, size=(20_000, 3)), brands)
    config = make_config(group_variable="brand")
    run_analysis(ds, config)  # first-call caches are not the report's
    tracemalloc.start()
    try:
        report = run_analysis(ds, config)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.variables) == 8
    # one column alone is 20 000 * 8 bytes = 156 KiB
    assert retained < 256 * 1024


def test_run_analysis_holds_one_copy_of_the_coordinates():
    # 50 000 firms over 5 parts; ilr fills its (n, 4) result a block of rows at a time, so no
    # (n, 5) log matrix, per-split column or stacked copy of those columns is ever held
    n, parts = 50_000, ("CA", "NCA", "CL", "NCL", "SA")
    rng = np.random.default_rng(5)
    brands = rng.choice(["no", "yes"], n).tolist()
    ds = make_dataset(rng.uniform(1.0, 2.0, size=(n, 5)), brands, parts=parts)
    config = AnalysisConfig(
        parts=parts,
        sbp="((CA|NCA)|((CL|NCL)|SA))",
        standard_ratios=(RatioSpec("solvency", ("CA", "NCA"), ("CL", "NCL")),),
        group_variable="brand",
    )
    run_analysis(ds, config)  # first-call caches are not the run's
    tracemalloc.start()
    try:
        run_analysis(ds, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    column = n * 8  # bytes; the coordinates take 4 columns, and whole-table logs, splits and their stack 13
    assert peak < 11 * column
