"""Properties of the two CSV readers and of the transform writer.

``read_dataset_csv`` reads a file with one ``np.loadtxt`` pass and falls
back to the cell-by-cell ``csv.reader`` path for anything that pass cannot
read or check.  On any text the result must be the one the ``csv.reader``
path gives alone: the same dataset, bit for bit, or the same error.
``transform`` formats a chunk of rows at a time and must write the bytes of
the one quoting rule, which any CSV reader reads back one row per firm.
"""

import contextlib
import csv
import io
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coda_ratios import (
    AnalysisConfig,
    ZeroPolicy,
    _floattext,
    cli,
    dataset,
    load_config,
    load_dataset_csv,
    read_dataset_csv,
)
from coda_ratios.composition import ilr_matrix
from coda_ratios.errors import (
    CodaError,
    DuplicateFirmIdError,
    MalformedNumberError,
    NonPositivePartError,
)

from conftest import csv_text

HEADER = ("firm_id", "TA", "NCL", "CL", "brand")
UNUSED = ("town", "nace")  # columns no config names: counted as fields, never kept
LONG = 131_073  # one past the csv module's default field limit

numbers = st.one_of(
    st.floats(min_value=0.0, max_value=1e6).map(repr),
    st.sampled_from(["0", "-0", "1", "2.5", ".5", "5.", "1e3", "+7", "1E-2", "1e-320"]),
)
odd_cells = st.sampled_from(
    [
        "", " ", "abc", "-1", "nan", "inf", "-inf", "1e400", "0x10", "1 2",
        "1_000", "\u0661\u0662", "\uff11\uff12", "\u0663",  # float() reads these, np.loadtxt does not
        "\xa01\xa0", "\u30002\u3000", " 3 ", "\t4", "5\x0c",  # whitespace around a number
        "\x1c6",  # whitespace to np.loadtxt and str.strip(), not to float()
        '"5"', '"a,b"', '"x"y', '"', '"unclosed', "\x00", "\ufeff1",
        "0" * LONG + "1", "f" * LONG,
    ]
)
# str.strip() removes the non-ASCII and the '\x0b' and '\x0c' paddings too
PADS = ["", " ", "\t", "\xa0", "\u3000", "\x0b", "\x0c"]
brands = st.sampled_from(["yes", "no", " yes ", "", "\xa0no\xa0", "\u3000yes", "no\x0b", "\x0cyes"])
unused_cells = st.sampled_from(["", "Gent", " Sint-Niklaas ", "\xa0Liège", "64.19", "x" * 300])
line_ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
EXTRA_LINES = ["", " ", "\t", ",,,,", "\ufeff"]  # blank lines are skipped, the others are rows


@st.composite
def csv_texts(draw):
    """CSV text: a plain file, one odd cell in a plain file, or odd throughout.

    Any of them may have columns the config does not name and rows of the
    wrong length, which the np.loadtxt pass leaves to the csv.reader path.
    """
    kind = draw(st.sampled_from(["plain", "one_odd_cell", "odd"]))
    odd = kind == "odd"
    unused = draw(st.lists(st.sampled_from(UNUSED), unique=True, max_size=2))
    header = list(draw(st.permutations(HEADER + tuple(unused))))
    if odd and draw(st.integers(0, 3)) == 3:
        header = draw(st.lists(st.sampled_from([*HEADER, " TA ", "x", ""]), max_size=6))
    ends = line_ends if odd else st.just("\n")

    def cell(usual):
        return draw(st.one_of(usual, usual, usual, odd_cells) if odd else usual)

    rows = []
    for i in range(draw(st.integers(0 if odd else 1, 6))):
        cells = []
        for name in header:
            if name == "firm_id":
                pad = draw(st.sampled_from(PADS))
                cells.append(cell(st.sampled_from([f"{pad}f{i}{pad}"] * 4 + ["f0"])))
            elif name.strip() in ("TA", "NCL", "CL"):
                cells.append(cell(numbers))
            elif name in UNUSED:
                cells.append(cell(unused_cells))
            else:
                cells.append(cell(brands))
        if draw(st.integers(0, 3 if odd else 9)) == 0:  # a short or long row
            if draw(st.booleans()):  # one_odd_cell needs a cell to replace
                cells = cells[: draw(st.integers(0 if odd else 1, len(cells)))]
            else:
                cells += draw(st.lists(st.one_of(brands, unused_cells), min_size=1, max_size=2))
        rows.append(cells)
    if kind == "one_odd_cell":
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(odd_cells)

    lines = [",".join(header) + draw(ends)]
    for cells in rows:
        lines.append(",".join(cells) + draw(ends))
        if draw(st.integers(0, 4)) == 4:
            lines.append((draw(st.sampled_from(EXTRA_LINES)) if odd else "") + draw(ends))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.integers(0, 9)) == 9:
        text = "\ufeff" + text
    return text


def _outcome(text, newline, config):
    try:
        ds = read_dataset_csv(io.StringIO(text, newline=newline), config)
    except CodaError as exc:
        return type(exc), str(exc)
    group = None if ds.group is None else ds.group.tolist()
    return ds.firm_ids.tolist(), ds.values.shape, ds.values.tobytes(), group


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    text=csv_texts(),
    newline=st.sampled_from(["", "\n"]),
    mode=st.sampled_from(["reject", "drop_row", "replace"]),
    group=st.booleans(),
)
# a negative part is reported before the zero policy sees the zero
@example(text="firm_id,TA,NCL,CL\nf1,-1,0,3\n", newline="", mode="reject", group=False)
# an id padded with a non-ASCII space, in a file with "\r\n" line ends
@example(
    text="firm_id,TA,NCL,CL,brand\r\n\xa0f1\xa0,1,2,3,yes\r\nf2,4,5,6,no\r\n",
    newline="",
    mode="reject",
    group=True,
)
# ASCII cells whose only padding is '\x0b' or '\x0c', which str.strip() removes
@example(
    text="firm_id,TA,NCL,CL,brand\n\x0bf1\x0b,1,2,3,no\x0c\nf2,4,5,6,\x0cyes\n",
    newline="",
    mode="reject",
    group=True,
)
# a short row that lacks only unused columns is read with empty cells
@example(
    text="firm_id,TA,NCL,CL,brand,town,nace\nf1,1,2,3,yes\nf2,4,5,6,no,Gent,64.19\n",
    newline="",
    mode="reject",
    group=True,
)
# a row one field too long, past an unused last column, is an error citing its line
@example(
    text="firm_id,TA,NCL,CL,brand,town\nf1,1,2,3,yes,Gent\nf2,4,5,6,no,Gent,x\n",
    newline="",
    mode="reject",
    group=False,
)
def test_loadtxt_path_agrees_with_csv_reader_path(text, newline, mode, group):
    config = AnalysisConfig(
        parts=("TA", "NCL", "CL"),
        sbp="(TA|(NCL|CL))",
        group_variable="brand" if group else None,
        zero_policy=ZeroPolicy(mode=mode),
    )
    both = _outcome(text, newline, config)
    with mock.patch.object(dataset, "_loadtxt_columns", return_value=None):
        csv_reader_only = _outcome(text, newline, config)
    assert both == csv_reader_only


NEGATIVE_ONLY = "firm_id,TA,NCL,CL\nf1,1,2,3\nf2,4,-5,6\n"


@pytest.mark.parametrize(
    ("text", "mode", "error"),
    [
        (NEGATIVE_ONLY, "reject", NonPositivePartError),
        ("firm_id,TA,NCL,CL\nf1,1,x,3\nf2,4,-5,6\n", "reject", MalformedNumberError),
        ("firm_id,TA,NCL,CL\n,1,2,3\nf2,4,-5,6\n", "reject", CodaError),
        ("firm_id,TA,NCL,CL\nf1,1,2,3\nf1,4,-5,6\n", "reject", DuplicateFirmIdError),
        ("firm_id,TA,NCL,CL\nf1,1,2,3\nf2,0,-5,6\n", "drop_row", NonPositivePartError),
    ],
    ids=["negative", "malformed", "empty_id", "duplicate_id", "negative_and_zero"],
)
def test_a_negative_part_gives_the_csv_reader_paths_first_error(text, mode, error):
    config = AnalysisConfig(
        parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))", zero_policy=ZeroPolicy(mode=mode)
    )
    both = _outcome(text, "", config)
    with mock.patch.object(dataset, "_loadtxt_columns", return_value=None):
        csv_reader_only = _outcome(text, "", config)
    assert both == csv_reader_only
    assert both[0] is error


def test_a_plain_file_whose_only_fault_is_a_negative_part_is_read_once():
    config = AnalysisConfig(parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))")
    with mock.patch.object(dataset, "_csv_reader_columns", side_effect=AssertionError):
        with pytest.raises(NonPositivePartError, match=r"f2:NCL=-5\.0"):
            read_dataset_csv(io.StringIO(NEGATIVE_ONLY, newline=""), config)


def test_loadtxt_path_reads_only_files_without_quotes():
    config = AnalysisConfig(parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))")
    text = "firm_id,TA,NCL,CL,brand\nf1, 1 ,2,3,yes\n"
    assert dataset._loadtxt_columns(io.StringIO(text), config) is not None
    quoted = text.replace("yes", '"yes"')
    assert dataset._loadtxt_columns(io.StringIO(quoted), config) is None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # module scope: one directory for all examples, rewritten by each
    path = tmp_path_factory.mktemp("transform")
    (path / "analysis.ini").write_text(
        "[analysis]\nparts = TA, NCL, CL\nsbp = (TA|(NCL|CL))\n", encoding="utf-8"
    )
    return path


magnitudes = st.floats(min_value=1e-3, max_value=1e6)
# the csv module of Python 3.10 can neither write nor read a NUL
ID_ALPHABET = 'ab1 ,"\r\n\té' + ("\x00" if sys.version_info >= (3, 11) else "")


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    rows=st.lists(
        st.tuples(
            st.text(alphabet=ID_ALPHABET, min_size=1, max_size=6).filter(str.strip),
            magnitudes,
            magnitudes,
            magnitudes,
        ),
        min_size=1,
        max_size=7,
        unique_by=lambda row: row[0].strip(),
    ),
    # values per formatter block, for rows of 2: under one row, odd, or the whole table
    block=st.integers(1, 16),
)
def test_transform_bytes_equal_csv_writer(workdir, rows, block):
    data = workdir / "firms.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("firm_id", "TA", "NCL", "CL"), *rows])
    argv = ["transform", "--data", str(data), "--config", str(workdir / "analysis.ini")]
    out = io.StringIO()
    with mock.patch.object(_floattext, "_BLOCK", block), contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0

    config = load_config(workdir / "analysis.ini")
    ds = load_dataset_csv(data, config)
    coords = ilr_matrix(ds.values, ds.part_labels, config.tree)
    table = [["firm_id", *config.tree.coordinate_names]]
    table += ([firm_id, *map(repr, row)] for firm_id, row in zip(ds.firm_ids, coords.tolist()))
    assert out.getvalue() == csv_text(table)
    # a CSV reader reads back the header and one row per firm, the ids as given
    assert list(csv.reader(io.StringIO(out.getvalue(), newline=""))) == table
    assert [row[0] for row in table[1:]] == [firm_id.strip() for firm_id, *_ in rows]


def test_transform_id_holding_a_bare_cr_reads_back_as_one_firm_row(workdir):
    data = workdir / "firms.csv"
    data.write_bytes(b'firm_id,TA,NCL,CL\n"a\rb",1,2,3\nc,3,4,5\n')
    argv = ["transform", "--data", str(data), "--config", str(workdir / "analysis.ini")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue().startswith('firm_id,y1,y2\n"a\rb",')
    assert [row[0] for row in csv.reader(io.StringIO(out.getvalue(), newline=""))] == ["firm_id", "a\rb", "c"]
