import io
import math
import time
from unittest import mock

import numpy as np
import pytest

from coda_ratios import (
    AnalysisConfig,
    FirmDataset,
    ZeroPolicy,
    apply_zero_policy,
    dataset,
    load_config,
    load_dataset_csv,
    parse_config,
    read_dataset_csv,
    two_groups,
)
from coda_ratios.errors import (
    AllRowsDroppedError,
    CodaError,
    ConfigError,
    DuplicateFirmIdError,
    DuplicateLabelError,
    LengthMismatchError,
    MalformedNumberError,
    MissingColumnError,
    NonPositivePartError,
    SingleGroupError,
    UnknownLabelError,
    ZeroCellError,
)

CONFIG_TEXT = """\
[analysis]
parts = TA, NCL, CL
sbp = (TA|(NCL|CL))
group_variable = brand

[ratios]
r1 = TA / NCL + CL
r2 = NCL / CL

[zeros]
mode = replace
delta_fraction = 0.5
"""

CSV_TEXT = """\
firm_id,TA,NCL,CL,brand
f1,100,20,30,yes
f2,80,35,25,no
f3,120,50,10,yes
"""


def make_config(**overrides) -> AnalysisConfig:
    kwargs = dict(parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))")
    kwargs.update(overrides)
    return AnalysisConfig(**kwargs)


# ---------------------------------------------------------------------------
# configuration


def test_parse_config_full():
    config = parse_config(CONFIG_TEXT)
    assert config.parts == ("TA", "NCL", "CL")
    assert config.sbp == "(TA|(NCL|CL))"
    assert config.group_variable == "brand"
    assert [spec.name for spec in config.standard_ratios] == ["r1", "r2"]
    assert config.standard_ratios[0].numerator == ("TA",)
    assert config.standard_ratios[0].denominator == ("NCL", "CL")
    assert config.zero_policy.mode == "replace"
    assert config.zero_policy.delta_fraction == 0.5


def test_parse_config_minimal():
    config = parse_config("[analysis]\nparts = A, B\nsbp = (A|B)\n")
    assert config.standard_ratios == ()
    assert config.group_variable is None
    assert config.zero_policy == ZeroPolicy()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[other]\nx = 1\n[analysis]\nparts = A, B\nsbp = (A|B)\n", "unknown section"),
        ("[ratios]\nr = A / B\n", r"missing \[analysis\]"),
        ("[analysis]\nparts = A, B\nsbp = (A|B)\nbogus = 1\n", "unknown key"),
        ("[analysis]\nsbp = (A|B)\n", "parts"),
        ("[analysis]\nparts = A, B\n", "sbp"),
        ("[analysis]\nparts = A, B\nsbp = (A|B)\n[ratios]\nr = A B\n", "exactly one '/'"),
        (
            "[analysis]\nparts = A, B\nsbp = (A|B)\n[ratios]\nr = A / B / A\n",
            "exactly one '/'",
        ),
        (
            "[analysis]\nparts = A, B\nsbp = (A|B)\n[zeros]\nmode = zap\n",
            "zero policy mode",
        ),
        (
            "[analysis]\nparts = A, B\nsbp = (A|B)\n[zeros]\ndelta_fraction = big\n",
            "must be a number",
        ),
        (
            "[analysis]\nparts = A, B\nsbp = (A|B)\n[zeros]\ndelta_fraction = 1.5\n",
            "between 0 and 1",
        ),
        (
            "[analysis]\nparts = A, B\nsbp = (A|B)\n[zeros]\nfoo = 1\n",
            "unknown key",
        ),
        ("parts = A, B\n", "syntax"),
        # a ratio named like a balance or like another ratio's twin
        (
            "[analysis]\nparts = A, B\nsbp = (A|B)\n[ratios]\ny1 = A / B\n",
            "^duplicate variable name\\(s\\): y1, y1p$",
        ),
        (
            "[analysis]\nparts = A, B\nsbp = (A|B)\n[ratios]\nq = A / B\nqp = B / A\n",
            "^duplicate variable name\\(s\\): qp$",
        ),
    ],
)
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_config_validates_against_tree_and_labels():
    with pytest.raises(CodaError, match=r"^need at least 2 parts, got 1$"):
        make_config(parts=("TA",), sbp="(TA|CL)")
    with pytest.raises(DuplicateLabelError):
        make_config(parts=("TA", "TA", "CL"), sbp="(TA|CL)")
    # tree leaves must match the part set exactly
    with pytest.raises(Exception):
        make_config(parts=("TA", "NCL", "CL"), sbp="(TA|NCL)")
    from coda_ratios import RatioSpec

    with pytest.raises(UnknownLabelError):
        make_config(
            standard_ratios=(RatioSpec("r", ("TA",), ("Equity",)),)
        )


def test_config_names_each_variable_then_its_twin():
    names = parse_config(CONFIG_TEXT).variable_names
    assert names == ("y1", "y1p", "y2", "y2p", "r1", "r1p", "r2", "r2p")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "analysis.ini"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    assert load_config(path) == parse_config(CONFIG_TEXT)


def test_load_config_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "analysis.ini"
    path.write_text(CONFIG_TEXT, encoding="utf-8-sig")
    assert load_config(path) == parse_config(CONFIG_TEXT)


# ---------------------------------------------------------------------------
# CSV loading


def test_read_csv_happy_path():
    ds = read_dataset_csv(io.StringIO(CSV_TEXT), make_config(group_variable="brand"))
    assert ds.n == 3
    assert ds.part_labels == ("TA", "NCL", "CL")
    assert tuple(ds.firm_ids) == ("f1", "f2", "f3")
    assert tuple(ds.group) == ("yes", "no", "yes")
    np.testing.assert_array_equal(
        ds.values, [[100, 20, 30], [80, 35, 25], [120, 50, 10]]
    )


def test_load_csv_from_file(tmp_path):
    path = tmp_path / "firms.csv"
    path.write_text(CSV_TEXT, encoding="utf-8")
    ds = load_dataset_csv(path, make_config())
    assert ds.n == 3


def test_load_csv_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "firms.csv"
    path.write_text(CSV_TEXT, encoding="utf-8-sig")
    ds = load_dataset_csv(path, make_config(group_variable="brand"))
    assert tuple(ds.firm_ids) == ("f1", "f2", "f3")


def test_read_csv_column_order_and_quoting():
    text = 'brand,CL,firm_id,NCL,TA\nyes,30,"acme, inc",20,100\n'
    ds = read_dataset_csv(io.StringIO(text), make_config(group_variable="brand"))
    assert tuple(ds.firm_ids) == ("acme, inc",)
    np.testing.assert_array_equal(ds.values, [[100, 20, 30]])


def test_read_csv_keeps_only_the_group_column_of_the_extra_columns():
    for quote in ("", '"'):  # a quote sends the file to the csv.reader path
        text = f"firm_id,TA,NCL,CL,brand,country\n{quote}f1{quote},1,2,3, yes ,NL\n"
        ds = read_dataset_csv(io.StringIO(text), make_config(group_variable="brand"))
        assert tuple(ds.group) == ("yes",)
        ds = read_dataset_csv(io.StringIO(text), make_config())
        assert ds.group is None


def test_read_csv_skips_blank_lines():
    text = "firm_id,TA,NCL,CL\nf1,1,2,3\n\nf2,4,5,6\n"
    ds = read_dataset_csv(io.StringIO(text), make_config())
    assert ds.n == 2


@pytest.mark.parametrize(
    "header,missing",
    [
        ("id,TA,NCL,CL", "firm_id"),
        ("firm_id,TA,NCL", "CL"),
        ("firm_id,TA,NCL,CL", "brand"),
    ],
)
def test_read_csv_missing_column(header, missing):
    config = make_config(group_variable="brand" if missing == "brand" else None)
    with pytest.raises(MissingColumnError) as excinfo:
        read_dataset_csv(io.StringIO(header + "\n"), config)
    assert excinfo.value.name == missing


def test_read_csv_empty_stream():
    with pytest.raises(MissingColumnError):
        read_dataset_csv(io.StringIO(""), make_config())


def test_read_csv_collects_all_malformed_cells():
    text = "firm_id,TA,NCL,CL\nf1,abc,2,3\nf2,4,,6\nf3,7,8,inf\n"
    with pytest.raises(MalformedNumberError) as excinfo:
        read_dataset_csv(io.StringIO(text), make_config())
    assert excinfo.value.cells == (
        (2, "TA", "abc"),
        (3, "NCL", ""),
        (4, "CL", "inf"),
    )
    assert excinfo.value.line == 2
    assert excinfo.value.column == "TA"


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "firm_id,TA,NCL,CL,TA\nf1,1,2,3,4\n",
            "^CSV header repeats column name\\(s\\): 'TA'$",
        ),
        (
            "firm_id,TA,NCL,CL\nf1,1,2,3\nf2,4,5,6,7\n",
            "^line 3 has 5 fields but the header has 4$",
        ),
        ("firm_id,TA,NCL,CL\nf1,1,2,3\n ,4,5,6\n", "^empty firm_id at line 3$"),
        (
            "firm_id,TA,NCL,CL\nf1,1,2,3\nf2,\"" + "1" * 140_000 + "\",5,6\n",
            "^malformed CSV at line 3: field larger than field limit \\(131072\\)$",
        ),
        (
            "firm_id,TA,NCL,CL\n\"f1,1,2,3\n" + "f,1,2,3\n" * 20_000,
            "^malformed CSV at line 2: field larger than field limit",
        ),
        (
            "firm_id,TA,NCL,CL\n\"f1,1,2,3\nf2,4,5,6\nf3,7,8,9\n",
            "^malformed CSV at line 2: unexpected end of data$",
        ),
        (
            "firm_id,TA,NCL,CL\n\"f1\"x,1,2,3\n",
            "^malformed CSV at line 2: ',' expected after '\"'$",
        ),
        # float() reads these three, np.loadtxt does not; neither reader accepts them
        ("firm_id,TA,NCL,CL\nf1,1_000,2,3\n", "^malformed number\\(s\\): line 2, column 'TA': '1_000'$"),
        ("firm_id,TA,NCL,CL\nf1,1,\uff11\uff12,3\n", "^malformed number\\(s\\): line 2, column 'NCL': '１２'$"),
        ('firm_id,TA,NCL,CL\nf1,1,2,"\u0663"\n', "^malformed number\\(s\\): line 2, column 'CL': '٣'$"),
        # np.loadtxt strips ASCII separators around a number, float() does not
        ("firm_id,TA,NCL,CL\nf1,\x1c1,2,3\n", "^malformed number\\(s\\): line 2, column 'TA': '\\\\x1c1'$"),
    ],
    ids=[
        "duplicate_header",
        "long_row",
        "empty_firm_id",
        "huge_field",
        "unclosed_quote_long_file",
        "unclosed_quote",
        "text_after_closing_quote",
        "underscore_separator",
        "full_width_digits",
        "arabic_indic_digit_quoted",
        "ascii_separator_padding",
    ],
)
def test_read_csv_rejects_ambiguous_rows(text, message):
    with pytest.raises(CodaError, match=message):
        read_dataset_csv(io.StringIO(text), make_config())


@pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "csv_reader"])
def test_read_csv_accepts_whitespace_around_numbers(quote):
    # a quote anywhere in the file sends it to the csv.reader path
    text = f"firm_id,TA,NCL,CL\n{quote}f1{quote}, 1\t,\xa02\xa0,\u30003\u3000\n"
    ds = read_dataset_csv(io.StringIO(text), make_config())
    assert tuple(ds.firm_ids) == ("f1",)
    assert ds.values.tolist() == [[1.0, 2.0, 3.0]]


@pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "csv_reader"])
def test_a_loaded_group_column_holds_one_str_per_value(quote):
    # each cell is stripped as before; the cells of one value then share one str
    cells = [" yes", "yes", "no", "yes ", "\xa0no\u3000", "yes", "no"]
    rows = [f"{quote}f{i}{quote},1,2,3,{cell}" for i, cell in enumerate(cells)]
    text = "firm_id,TA,NCL,CL,brand\n" + "\n".join(rows) + "\n"
    ds = read_dataset_csv(io.StringIO(text), make_config(group_variable="brand"))
    assert ds.group.tolist() == ["yes", "yes", "no", "yes", "no", "yes", "no"]
    assert all(type(v) is str for v in ds.group)
    assert len({id(v) for v in ds.group}) == len(set(ds.group)) == 2


@pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "csv_reader"])
def test_read_csv_with_50000_external_columns_takes_linear_time(quote):
    # looking each header name up again in the whole header would take minutes here
    extra = [f"x{j}" for j in range(50_000)]
    text = ",".join(["firm_id", "TA", "NCL", "CL", *extra]) + "\n"
    text += f"{quote}f1{quote},1,2,3," + ",".join(["y"] * len(extra)) + "\n"
    start = time.perf_counter()
    ds = read_dataset_csv(io.StringIO(text), make_config(group_variable="x49999"))
    elapsed = time.perf_counter() - start
    assert tuple(ds.group) == ("y",)
    assert elapsed < 5.0


def test_read_csv_part_may_be_named_firm_id():
    config = AnalysisConfig(parts=("firm_id", "TA"), sbp="(firm_id|TA)")
    ds = read_dataset_csv(io.StringIO("firm_id,TA\n1,2\n3,4\n"), config)
    assert tuple(ds.firm_ids) == ("1", "3")
    assert ds.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_read_csv_duplicate_firm_id_reports_line():
    text = "firm_id,TA,NCL,CL\nf1,1,2,3\nf2,4,5,6\nf1,7,8,9\n"
    with pytest.raises(DuplicateFirmIdError) as excinfo:
        read_dataset_csv(io.StringIO(text), make_config())
    assert excinfo.value.firm_id == "f1"
    assert excinfo.value.line == 4


@pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "csv_reader"])
@pytest.mark.parametrize("zeros", ["7,0", "0,0"], ids=["second", "both"])
def test_read_csv_duplicate_firm_id_in_a_dropped_row_reports_line(quote, zeros):
    # drop_row would remove the repeat, yet a repeated id is an error all the same
    first, second = zeros.split(",")
    text = f"firm_id,TA,NCL,CL\n{quote}f1{quote},{first},2,3\nf2,4,5,6\nf1,{second},8,9\n"
    with pytest.raises(DuplicateFirmIdError) as excinfo:
        read_dataset_csv(io.StringIO(text), make_config(zero_policy=ZeroPolicy(mode="drop_row")))
    assert str(excinfo.value) == "duplicate firm_id 'f1' at line 4"


@pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "csv_reader"])
def test_a_load_checks_ids_and_signs_once(quote):
    text = f"firm_id,TA,NCL,CL\n{quote}f1{quote},1,2,3\nf2,4,5,6\n"
    positive = mock.Mock(wraps=dataset.check_positive)
    unique = mock.Mock(wraps=dataset.check_unique_ids)
    with mock.patch.object(dataset, "check_positive", positive), \
            mock.patch.object(dataset, "check_unique_ids", unique):
        ds = read_dataset_csv(io.StringIO(text), make_config())
    assert ds.firm_ids.tolist() == ["f1", "f2"]
    assert positive.call_count == 1  # apply_zero_policy's
    assert unique.call_count == (1 if quote else 0)  # the loadtxt path tests its own id set


@pytest.mark.parametrize("mode", ["reject", "drop_row", "replace"])
def test_read_csv_negative_is_fatal_under_every_zero_policy(mode):
    text = "firm_id,TA,NCL,CL\nf1,1,-2,3\n"
    config = make_config(zero_policy=ZeroPolicy(mode=mode))
    with pytest.raises(NonPositivePartError) as excinfo:
        read_dataset_csv(io.StringIO(text), config)
    assert ("f1:NCL", -2.0) in excinfo.value.parts


def test_read_csv_zero_rejected_by_default():
    text = "firm_id,TA,NCL,CL\nf1,1,0,3\nf2,4,5,0\n"
    with pytest.raises(ZeroCellError) as excinfo:
        read_dataset_csv(io.StringIO(text), make_config())
    assert excinfo.value.cells == (("f1", "NCL"), ("f2", "CL"))


# ---------------------------------------------------------------------------
# zero policies


def test_zero_policy_validation():
    with pytest.raises(ConfigError):
        ZeroPolicy(mode="zap")
    with pytest.raises(ConfigError):
        ZeroPolicy(delta_fraction=0.0)
    with pytest.raises(ConfigError):
        ZeroPolicy(delta_fraction=1.0)


def test_zero_policy_no_zeros_is_identity():
    ids, values = ("f1", "f2"), np.array([[1.0, 2.0], [3.0, 4.0]])
    for mode in ("reject", "drop_row", "replace"):
        keep, out = apply_zero_policy(ids, values, ("A", "B"), ZeroPolicy(mode=mode))
        assert keep.tolist() == [True, True]
        assert np.array_equal(out, values)


@pytest.mark.parametrize("mode", ["reject", "drop_row", "replace"])
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_zero_policy_rejects_a_negative_or_non_finite_cell_under_every_mode(mode, bad):
    # the zero beside the bad cell would be rejected, dropped or replaced; the bad cell comes first
    ids, values = ("a", "b"), np.array([[bad, 0.0], [2.0, 3.0]])
    with pytest.raises(NonPositivePartError) as excinfo:
        apply_zero_policy(ids, values, ("A", "B"), ZeroPolicy(mode=mode))
    ((label, value),) = excinfo.value.parts
    assert label == "a:A"
    assert value == bad or (math.isnan(value) and math.isnan(bad))


@pytest.mark.parametrize("mode", ["reject", "drop_row", "replace"])
@pytest.mark.parametrize(
    ("ids", "shape"), [(("f1", "f2"), (2, 3)), (("f1",), (2, 2))], ids=["columns", "rows"]
)
def test_zero_policy_rejects_values_of_the_wrong_shape_under_every_mode(mode, ids, shape):
    # the zero would be rejected, dropped or replaced; the shape is checked first
    values = np.ones(shape)
    values[0, 0] = 0.0
    with pytest.raises(LengthMismatchError) as excinfo:
        apply_zero_policy(ids, values, ("A", "B"), ZeroPolicy(mode=mode))
    assert (excinfo.value.expected, excinfo.value.got) == ((len(ids), 2), shape)


def test_zero_policy_drop_row():
    ids, values = ("f1", "f2", "f3"), np.array([[1.0, 0.0], [3.0, 4.0], [0.0, 5.0]])
    keep, kept = apply_zero_policy(ids, values, ("A", "B"), ZeroPolicy(mode="drop_row"))
    assert keep.tolist() == [False, True, False]
    assert np.array_equal(kept, [[3.0, 4.0]])


def test_zero_policy_drop_row_all_dropped():
    ids, values = ("f1", "f2"), np.array([[1.0, 0.0], [0.0, 4.0]])
    with pytest.raises(AllRowsDroppedError) as excinfo:
        apply_zero_policy(ids, values, ("A", "B"), ZeroPolicy(mode="drop_row"))
    assert excinfo.value.n == 2


def test_zero_policy_replace_uses_column_minimum():
    # column B: positives {2, 5, 10}, so 0 -> 0.65 * 2 = 1.3
    ids = ("f1", "f2", "f3", "f4")
    values = np.array([[1.0, 2.0], [1.0, 5.0], [1.0, 10.0], [1.0, 0.0]])
    keep, out = apply_zero_policy(ids, values, ("A", "B"), ZeroPolicy(mode="replace"))
    assert keep.all()
    assert out[3].tolist() == [1.0, pytest.approx(1.3, rel=1e-15)]
    # untouched cells are passed through unchanged
    assert np.array_equal(out[:3], values[:3])


def test_zero_policy_replace_is_per_column():
    ids, values = ("f1", "f2", "f3"), np.array([[0.0, 8.0], [4.0, 0.0], [6.0, 2.0]])
    _, out = apply_zero_policy(
        ids, values, ("A", "B"), ZeroPolicy(mode="replace", delta_fraction=0.5)
    )
    assert out[0].tolist() == [2.0, 8.0]
    assert out[1].tolist() == [4.0, 1.0]


def test_zero_policy_replace_without_positives():
    ids, values = ("f1", "f2"), np.array([[0.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ZeroCellError, match="no positive values"):
        apply_zero_policy(ids, values, ("A", "B"), ZeroPolicy(mode="replace"))


def test_zero_policy_replace_whose_fill_underflows():
    # 0.3 * 5e-324 rounds to 0.0, which would leave the zero in place; 0.65 * 5e-324 does not
    ids, values = ("f1", "f2", "f3"), np.array([[0.0, 1.0], [5e-324, 0.0], [1.0, 2.0]])
    with pytest.raises(ZeroCellError, match="replacement underflows to 0") as excinfo:
        apply_zero_policy(ids, values, ("A", "B"), ZeroPolicy("replace", delta_fraction=0.3))
    assert excinfo.value.cells == (("f1", "A"),)
    _, out = apply_zero_policy(ids, values, ("A", "B"), ZeroPolicy("replace", delta_fraction=0.65))
    assert out[0, 0] == 5e-324 and (out > 0.0).all()


def test_zero_policy_replace_idempotent():
    ids, values = ("f1", "f2"), np.array([[1.0, 0.0], [3.0, 4.0]])
    policy = ZeroPolicy(mode="replace")
    _, once = apply_zero_policy(ids, values, ("A", "B"), policy)
    _, twice = apply_zero_policy(ids, once, ("A", "B"), policy)
    assert np.array_equal(twice, once)


def test_read_csv_with_replace_policy_end_to_end():
    text = "firm_id,TA,NCL,CL\nf1,100,0,30\nf2,80,35,25\n"
    config = make_config(zero_policy=ZeroPolicy(mode="replace", delta_fraction=0.65))
    ds = read_dataset_csv(io.StringIO(text), config)
    assert ds.values[0, 1] == pytest.approx(0.65 * 35.0, rel=1e-15)


# ---------------------------------------------------------------------------
# datasets and group splits


def _dataset(rows, parts=("TA", "NCL", "CL"), group=None):
    return FirmDataset(
        firm_ids=tuple(firm_id for firm_id, _ in rows),
        part_labels=tuple(parts),
        values=np.array([values for _, values in rows], dtype=float).reshape(-1, len(parts)),
        group=group,
    )


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(DuplicateFirmIdError) as excinfo:
        _dataset([("f1", (1, 2, 3)), ("f1", (4, 5, 6))])
    assert excinfo.value.line is None
    assert "at line" not in str(excinfo.value)


def test_dataset_rejects_repeated_part_labels():
    # with a repeated label, a lookup by label would silently read the last such column
    with pytest.raises(DuplicateLabelError, match="^duplicate part label\\(s\\): A$"):
        FirmDataset(firm_ids=("f1",), part_labels=("A", "A", "B"), values=[[1.0, 5.0, 2.0]])


def test_dataset_with_one_part_says_what_is_too_small():
    # the count is a dataset's labels, so the message may not call them a composition
    with pytest.raises(CodaError) as err:
        FirmDataset(firm_ids=("f1",), part_labels=("A",), values=[[1.0]])
    assert str(err.value) == "need at least 2 parts, got 1"


def test_dataset_rejects_label_mismatch():
    # two value columns cannot be labelled by three parts
    message = r"^size mismatch: expected \(1, 3\), got \(1, 2\)$"
    with pytest.raises(LengthMismatchError, match=message):
        FirmDataset(firm_ids=("f1",), part_labels=("A", "B", "C"), values=[[1.0, 2.0]])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_dataset_rejects_non_positive_values(bad):
    with pytest.raises(NonPositivePartError) as excinfo:
        _dataset([("f1", (1, 2, 3)), ("f2", (4, bad, 6))])
    ((label, value),) = excinfo.value.parts
    assert label == "f2:NCL"
    assert value == bad or (math.isnan(bad) and math.isnan(value))


def test_replace_underflowing_to_zero_is_rejected():
    # 0.1 * 5e-324 rounds to 0.0, which no composition may hold: the zero policy says so
    text = "firm_id,TA,NCL,CL\nf1,5e-324,2,3\nf2,0,5,6\n"
    config = make_config(zero_policy=ZeroPolicy(mode="replace", delta_fraction=0.1))
    with pytest.raises(ZeroCellError, match="replacement underflows to 0: f2:TA$") as excinfo:
        read_dataset_csv(io.StringIO(text), config)
    assert excinfo.value.cells == (("f2", "TA"),)


def test_split_by_group():
    ds = _dataset(
        [("f1", (1, 2, 3)), ("f2", (4, 5, 6)), ("f3", (7, 8, 9))],
        group=("yes", "no", "yes"),
    )
    (no, no_mask), (yes, yes_mask) = two_groups(ds)  # low value first
    assert (no, yes) == ("no", "yes")
    assert yes_mask.tolist() == [True, False, True]
    assert no_mask.tolist() == [False, True, False]
    assert int(yes_mask.sum()) + int(no_mask.sum()) == ds.n


def test_split_by_group_empty_dataset():
    ds = FirmDataset(
        firm_ids=(), part_labels=("TA", "NCL", "CL"), values=np.empty((0, 3)),
        group=(),
    )
    with pytest.raises(SingleGroupError) as excinfo:
        two_groups(ds)
    assert excinfo.value.n_groups == 0
    assert excinfo.value.values == ()
    assert str(excinfo.value) == "need exactly two distinct groups, got 0"


def test_split_by_group_without_a_group_column():
    with pytest.raises(CodaError, match="^the dataset has no group column$"):
        two_groups(_dataset([("f1", (1, 2, 3))]))
    with pytest.raises(SingleGroupError) as excinfo:
        two_groups(_dataset([("f1", (1, 2, 3))], group=("yes",)))
    assert excinfo.value.n_groups == 1
    assert excinfo.value.values == ("yes",)


def test_split_by_group_names_at_most_five_of_the_values_it_found():
    # f4's short row leaves its group cell blank
    text = "firm_id,TA,NCL,CL,brand\nf1,1,2,3,yes\nf2,4,5,6,Yes\nf3,7,8,9,no\nf4,1,2,3\n"
    ds = read_dataset_csv(io.StringIO(text), make_config(group_variable="brand"))
    with pytest.raises(SingleGroupError) as excinfo:
        two_groups(ds)
    assert str(excinfo.value) == "need exactly two distinct groups, got 4: '', 'Yes', 'no', 'yes'"
    assert excinfo.value.values == ("", "Yes", "no", "yes")
    ds = _dataset([(f"f{i}", (1, 2, 3)) for i in range(7)], group=tuple("gfedcba"))
    with pytest.raises(SingleGroupError) as excinfo:
        two_groups(ds)
    assert str(excinfo.value) == "need exactly two distinct groups, got 7: 'a', 'b', 'c', 'd', 'e', ..."
    assert excinfo.value.n_groups == 7


def test_dataset_rejects_short_group_column():
    # every firm carries a group value
    with pytest.raises(LengthMismatchError) as excinfo:
        _dataset([("f1", (1, 2, 3)), ("f2", (4, 5, 6))], group=("yes",))
    assert (excinfo.value.expected, excinfo.value.got) == (2, 1)


def test_values_are_float_read_only_and_ordered():
    ds = _dataset([("f1", (1, 2, 3)), ("f2", (4, 5, 6))])
    m = ds.values
    assert m.dtype == np.float64
    assert m.shape == (2, 3)
    np.testing.assert_array_equal(m[1], [4.0, 5.0, 6.0])
    with pytest.raises(ValueError):
        m[0, 0] = 9.0


def test_dataset_copies_callers_arrays_and_holds_read_only_columns():
    values = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    id_list = ["f1", "f2"]
    id_arrays = [np.array(id_list, dtype=object), np.array(id_list)]  # object and "<U2"
    brand = np.array(["yes", "no"], dtype=object)
    for firm_ids in (id_list, *id_arrays):
        ds = FirmDataset(
            firm_ids=firm_ids, part_labels=("TA", "NCL", "CL"), values=values,
            group=brand,
        )
        columns = (ds.firm_ids, ds.values, ds.group)
        assert not any(column.flags.writeable for column in columns)
        assert not any(np.shares_memory(column, given) for column in columns
                       for given in (values, brand, *id_arrays))
        assert ds.firm_ids.dtype == object
        assert [type(firm_id) for firm_id in ds.firm_ids] == [str, str]
    assert id_list == ["f1", "f2"]
    assert all(array.flags.writeable for array in (values, brand, *id_arrays))
    assert values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert brand.tolist() == ["yes", "no"]
    assert [array.tolist() for array in id_arrays] == [id_list, id_list]


def test_dataset_copies_read_only_arrays_that_own_their_data():
    firm_ids = np.array(["f1", "f2"], dtype=object)
    values = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    brand = np.array(["yes", "no"], dtype=object)
    for array in (firm_ids, values, brand):
        array.setflags(write=False)
    ds = FirmDataset(
        firm_ids=firm_ids, part_labels=("TA", "NCL", "CL"), values=values,
        group=brand,
    )
    for column, given in ((ds.firm_ids, firm_ids), (ds.values, values), (ds.group, brand)):
        assert column.flags.owndata and not column.flags.writeable
        assert not np.shares_memory(column, given)
        np.testing.assert_array_equal(column, given)
    # a read-only view is copied too
    ds = FirmDataset(firm_ids=firm_ids, part_labels=("A", "B"), values=values[:, :2])
    assert ds.values.flags.owndata and not np.shares_memory(ds.values, values)


def test_a_caller_cannot_change_a_dataset_through_the_arrays_it_gave():
    firm_ids = np.array(["f1", "f2"], dtype=object)
    values = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    for array in (firm_ids, values):
        array.setflags(write=False)
    ds = FirmDataset(firm_ids=firm_ids, part_labels=("TA", "NCL", "CL"), values=values)
    # an array that owns its data may be made writeable again, after the positivity check
    values.setflags(write=True)
    values[0, 0] = -1.0
    assert ds.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert not ds.values.flags.writeable


@pytest.mark.parametrize("mode", ["reject", "drop_row", "replace"])
@pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "csv_reader"])
def test_both_readers_hand_their_columns_to_the_dataset_without_a_copy(quote, mode):
    zero = "0" if mode != "reject" else "7"
    text = f"firm_id,TA,NCL,CL,brand\n{quote}f1{quote},1,2,3,yes\nf2,4,5,6,no\nf3,{zero},8,9,no\n"
    # the loader's columns go in as they are: the public constructor, which copies, never runs
    with mock.patch.object(FirmDataset, "__post_init__", side_effect=AssertionError("a column was copied")):
        ds = read_dataset_csv(
            io.StringIO(text), make_config(group_variable="brand", zero_policy=ZeroPolicy(mode=mode))
        )
    columns = (ds.firm_ids, ds.values, ds.group)
    assert all(column.flags.owndata and not column.flags.writeable for column in columns)
    # while the public constructor copies them
    again = FirmDataset(firm_ids=ds.firm_ids, part_labels=ds.part_labels, values=ds.values, group=ds.group)
    assert not any(np.shares_memory(copy, column) for copy, column in zip(
        (again.firm_ids, again.values, again.group), columns))
    assert ds.n == (2 if mode == "drop_row" else 3)
