"""Properties of the two CSV readers and of the transform writer.

``load_dataset_csv`` and ``read_dataset_csv`` read a file with one
``np.loadtxt`` pass, a regular file from its path and a stream by lines,
and fall back to the cell-by-cell ``csv.reader`` path for anything that
pass cannot read or check.  On any text, in a file or a stream, the result
must be the one the ``csv.reader`` path gives alone: the same dataset, bit
for bit, or the same error.
``transform`` formats a chunk of rows at a time and must write the bytes of
the one quoting rule, which any CSV reader reads back one row per firm.
"""

import contextlib
import csv
import gzip
import io
import os
import sys
import threading
from unittest import mock

import numpy as np
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


def _outcome(text, newline, config, path=None):
    """The dataset of ``text`` read from a stream, or from ``path`` when given, or its error."""
    try:
        if path is None:
            ds = read_dataset_csv(io.StringIO(text, newline=newline), config)
        else:
            ds = load_dataset_csv(path, config)
    except CodaError as exc:
        return type(exc), str(exc)
    group = None if ds.group is None else ds.group.tolist()
    return ds.firm_ids.tolist(), ds.values.shape, ds.values.tobytes(), group


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    # module scope: one file for all examples, rewritten by each
    return tmp_path_factory.mktemp("agree") / "firms.csv"


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
# a byte-order mark, which a file drops and a stream keeps in the first column name
@example(text="\ufefffirm_id,TA,NCL,CL\nf1,1,2,3\n", newline="", mode="reject", group=False)
# lone CR line ends, which a file read by np.loadtxt turns into LF
@example(
    text="firm_id,TA,NCL,CL,brand\rf1,1,2,3,yes\r\rf2,4,5,6,no\r",
    newline="",
    mode="reject",
    group=True,
)
# a cell starting with '\x1c', which np.loadtxt strips as whitespace and float() does not
@example(text="firm_id,TA,NCL,CL\nf1,\x1c1,2,3\nf2,4,5,6\n", newline="", mode="reject", group=False)
# a cell past the csv field limit, which no np.loadtxt pass may read
@example(
    text="firm_id,TA,NCL,CL,brand\nf1,1,2,3," + "y" * LONG + "\nf2,4,5,6,no\n",
    newline="",
    mode="reject",
    group=True,
)
def test_loadtxt_path_agrees_with_csv_reader_path(data_file, text, newline, mode, group):
    config = AnalysisConfig(
        parts=("TA", "NCL", "CL"),
        sbp="(TA|(NCL|CL))",
        group_variable="brand" if group else None,
        zero_policy=ZeroPolicy(mode=mode),
    )
    # a file is compared with a file: a stream and a file read a lone CR differently
    data_file.write_text(text, encoding="utf-8", newline=newline)
    both = _outcome(text, newline, config), _outcome(text, newline, config, data_file)
    with mock.patch.object(dataset, "_loadtxt_columns", return_value=None):
        csv_reader_only = _outcome(text, newline, config), _outcome(text, newline, config, data_file)
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


PLAIN = "firm_id,TA,NCL,CL,brand\nf1,1,2,3,yes\nf2,4,5,6,no\n"
PLAIN_CONFIG = AnalysisConfig(parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))", group_variable="brand")


def _loadtxt_sources(path):
    """What ``load_dataset_csv(path)`` hands np.loadtxt, and the ids it reads."""
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        ds = load_dataset_csv(path, PLAIN_CONFIG)
    return [call.args[0] for call in loadtxt.call_args_list], ds.firm_ids.tolist()


# given as it is, numpy would take the second name for a URL to fetch
@pytest.mark.parametrize("name", ["firms.csv", "http://h/firms.csv"])
def test_a_regular_file_reaches_np_loadtxt_as_its_absolute_path(tmp_path, monkeypatch, name):
    path = tmp_path / os.path.normpath(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(PLAIN, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert _loadtxt_sources(name) == ([str(path)], ["f1", "f2"])


def test_a_name_np_loadtxt_would_decompress_is_read_as_a_stream(tmp_path):
    plain = tmp_path / "firms.csv.gz"
    plain.write_text(PLAIN, encoding="utf-8")
    sources, ids = _loadtxt_sources(plain)
    assert ids == ["f1", "f2"] and not any(isinstance(source, str) for source in sources)
    packed = tmp_path / "packed" / "firms.csv.gz"
    packed.parent.mkdir()
    packed.write_bytes(gzip.compress(PLAIN.encode("utf-8")))
    with pytest.raises(CodaError) as exc:
        load_dataset_csv(packed, PLAIN_CONFIG)
    assert str(exc.value) == f"{packed} is not valid UTF-8: byte 0x8b at byte offset 1"


def test_bytes_paths_and_file_descriptors_are_read_as_streams(tmp_path):
    path = tmp_path / "firms.csv"
    path.write_text(PLAIN, encoding="utf-8")
    for name in (os.fsencode(path), os.open(path, os.O_RDONLY)):  # the load closes the descriptor
        sources, ids = _loadtxt_sources(name)
        assert ids == ["f1", "f2"] and not any(isinstance(source, str) for source in sources)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_is_opened_once(tmp_path):
    # a second open would wait for a writer that never comes
    fifo = tmp_path / "firms.csv"
    os.mkfifo(fifo)
    loaded = []
    reader = threading.Thread(target=lambda: loaded.append(_loadtxt_sources(fifo)), daemon=True)
    reader.start()
    with open(fifo, "w", encoding="utf-8") as fh:
        fh.write(PLAIN)
    reader.join(timeout=60)
    assert loaded and loaded[0][1] == ["f1", "f2"]
    assert not any(isinstance(source, str) for source in loaded[0][0])


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
