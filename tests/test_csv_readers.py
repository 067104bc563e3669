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
from types import SimpleNamespace
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
# an ASCII file's ids are read as 16-byte fields: one of 16 bytes or more may have been cut
ID_FORMS = ["f{}"] * 4 + ["{:w>15}", "{:w>16}", "{:w>17}", "\xe9{}", "\u015b{}", "\u20ac{}"]
# an ASCII file's group values are read as 16-byte fields too, and split by comparing their words
brands = st.sampled_from(
    ["yes", "no", " yes ", "", "\xa0no\xa0", "\u3000yes", "no\x0b", "\x0cyes"] * 2
    + ["y" * 15, "n" * 16, "n" * 17, "maybe"]
)
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

    rows, ids = [], []
    for i in range(draw(st.integers(0 if odd else 1, 6))):
        cells = []
        for name in header:
            if name == "firm_id":
                pad = draw(st.sampled_from(PADS))
                firm_id = f"{pad}{draw(st.sampled_from(ID_FORMS)).format(i)}{pad}"
                # some repeat the first row's id or an earlier row's
                firm_id = draw(st.sampled_from([firm_id] * 4 + ["f0", *ids]))
                ids.append(firm_id)
                cells.append(cell(st.just(firm_id)))
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
    """The dataset of ``text`` read from a stream, or from ``path`` when given, or its error;
    with ``path``, also the command-line tool's group split of it."""
    try:
        if path is None:
            ds = read_dataset_csv(io.StringIO(text, newline=newline), config)
        else:
            ds = load_dataset_csv(path, config)
    except CodaError as exc:
        outcome = type(exc), str(exc)
    else:
        group = None if ds.group is None else ds.group.tolist()
        outcome = ds.firm_ids.tolist(), ds.values.shape, ds.values.tobytes(), group
    return outcome if path is None else (outcome, _cli_split(config, path))


def _cli_split(config, path):
    """``cli._load`` of ``path``, then ``dataset._two_groups``: each value and its rows, or the error."""
    try:
        with mock.patch.object(cli, "load_config", return_value=config):
            _, _, _, group = cli._load(SimpleNamespace(config=None, data=path))
        return None if group is None else [(value, rows.tolist()) for value, rows in dataset._two_groups(group)]
    except CodaError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    # module scope: one file for all examples, rewritten by each
    return tmp_path_factory.mktemp("agree") / "firms.csv"


@settings(max_examples=300)
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
# an ASCII file with a repeated id, which the bytes check finds and the csv.reader path words
@example(text="firm_id,TA,NCL,CL\nf1,1,2,3\nf2,4,5,6\nf1,7,8,9\n", newline="", mode="reject", group=False)
# ids of 15, 16 and 17 bytes: a 16-byte field may cut the last two
@example(
    text="firm_id,TA,NCL,CL\n" + "a" * 15 + ",1,2,3\n" + "b" * 16 + ",4,5,6\n" + "c" * 17 + ",7,8,9\n",
    newline="",
    mode="reject",
    group=False,
)
# ASCII ids padded with ' ', '\x0b' or '\x0c', which bytes.strip removes as str.strip does
@example(
    text="firm_id,TA,NCL,CL,brand\n f1 ,1,2,3,yes\n\x0bf2\x0b,4,5,6,no\n\x0cf3 ,7,8,9,no\n",
    newline="",
    mode="drop_row",
    group=True,
)
# ids that are not ASCII, read as str
@example(
    text="firm_id,TA,NCL,CL\n\xe91,1,2,3\n\u015b2,4,5,6\n\u20ac3,7,8,9\n", newline="", mode="reject", group=False
)
# a file whose only non-ASCII byte is in a column no config names
@example(
    text="firm_id,TA,NCL,CL,brand,town\nf1,1,2,3,yes,Li\xe8ge\nf2,4,5,6,no,Gent\n",
    newline="",
    mode="reject",
    group=True,
)
# a cell past the csv field limit, which no np.loadtxt pass may read
@example(
    text="firm_id,TA,NCL,CL,brand\nf1,1,2,3," + "y" * LONG + "\nf2,4,5,6,no\n",
    newline="",
    mode="reject",
    group=True,
)
# an ASCII group column of two values, one padded, which the command-line tool splits by words
@example(
    text="firm_id,TA,NCL,CL,brand\nf1,1,2,3,yes\nf2,4,5,6, no\nf3,7,8,9,yes\n", newline="", mode="reject", group=True
)
# group values of 15, 16 and 17 bytes: a 16-byte field would cut the last two to one value
@example(
    text="firm_id,TA,NCL,CL,brand\nf1,1,2,3," + "y" * 15 + "\nf2,4,5,6," + "n" * 16 + "\nf3,7,8,9," + "n" * 17 + "\n",
    newline="",
    mode="reject",
    group=True,
)
# one group value, and three, which no split takes
@example(text="firm_id,TA,NCL,CL,brand\nf1,1,2,3,yes\nf2,4,5,6,yes\n", newline="", mode="reject", group=True)
@example(
    text="firm_id,TA,NCL,CL,brand\nf1,1,2,3,yes\nf2,4,5,6,no\nf3,7,8,9,maybe\n", newline="", mode="reject", group=True
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


def _field_kinds(monkeypatch, field="c0"):
    """The kind of ``field`` (the id's, by default) of each np.loadtxt call from now on, in a list
    that grows."""
    loadtxt, kinds = np.loadtxt, []

    def reading(*args, **kwargs):
        kinds.append(np.dtype(kwargs["dtype"])[field].kind)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", reading)
    return kinds


def test_an_ascii_files_ids_are_read_as_bytes_and_loaded_as_str(tmp_path, monkeypatch):
    config = AnalysisConfig(parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))")
    text = "firm_id,TA,NCL,CL\n f1 ,1,2,3\n" + "w" * 15 + ",4,5,6\n"
    firm_ids, _, _ = dataset._loadtxt_columns(io.StringIO(text), config)
    assert firm_ids.dtype == "S16" and firm_ids.tolist() == [b"f1", b"w" * 15]
    path = tmp_path / "firms.csv"
    kinds = _field_kinds(monkeypatch)
    # a byte-order mark is dropped as the file is opened, by path or as a utf-8-sig stream
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text(text, encoding=encoding)
        with open(path, encoding="utf-8-sig", newline="") as fh:
            for source in (path, fh, io.StringIO(text)):
                kinds.clear()
                ds = load_dataset_csv(source, config) if source is path else read_dataset_csv(source, config)
                assert kinds == ["S"]
                assert ds.firm_ids.dtype == object and ds.firm_ids.tolist() == ["f1", "w" * 15]
                assert all(type(firm_id) is str for firm_id in ds.firm_ids)


@pytest.mark.parametrize(("first_id", "id_kinds"), [("a" * 17, ["O"]), ("f0", ["S", "O"])], ids=["first", "later"])
def test_an_ascii_file_with_ids_of_16_bytes_or_more_is_read_by_loadtxt_as_str(
    tmp_path, monkeypatch, first_id, id_kinds
):
    # ids that fill the bytes field may have been cut: a long first id has the one pass read
    # them as str, a later one a second np.loadtxt call; the text is scanned once either way,
    # and neither is read by the csv.reader path
    config = AnalysisConfig(parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))")
    text = f"firm_id,TA,NCL,CL\n{first_id},1,2,3\n" + "b" * 16 + ",4,5,6\n " + "c" * 17 + " ,7,8,9\n"
    path = tmp_path / "firms.csv"
    path.write_text(text, encoding="utf-8")
    kinds = _field_kinds(monkeypatch)
    scans = mock.Mock(wraps=dataset._is_plain)
    monkeypatch.setattr(dataset, "_is_plain", scans)
    monkeypatch.setattr(dataset, "_csv_reader_columns", mock.Mock(side_effect=AssertionError))
    for read in (lambda: load_dataset_csv(path, config), lambda: read_dataset_csv(io.StringIO(text), config)):
        kinds.clear()
        scans.reset_mock()
        assert read().firm_ids.tolist() == [first_id, "b" * 16, "c" * 17]
        assert kinds == id_kinds
        assert scans.call_count == 1


GROUP_CONFIG = AnalysisConfig(parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))", group_variable="brand")


@pytest.mark.parametrize(("brand", "kind"), [("yes", "S"), ("y\xe9s", "O")], ids=["ascii", "non_ascii"])
def test_an_ascii_files_group_is_read_as_bytes_and_loaded_as_shared_str(tmp_path, monkeypatch, brand, kind):
    # no converter runs on an ASCII file's group cells; a padded one is stripped after the read
    text = f"firm_id,TA,NCL,CL,brand\nf1,1,2,3,{brand}\nf2,4,5,6, no \nf3,7,8,9,{brand}\n"
    path = tmp_path / "firms.csv"
    path.write_text(text, encoding="utf-8")
    kinds = _field_kinds(monkeypatch, "c4")
    strips = mock.Mock(wraps=dataset._shared_strip)
    monkeypatch.setattr(dataset, "_shared_strip", strips)
    monkeypatch.setattr(dataset, "_csv_reader_columns", mock.Mock(side_effect=AssertionError))
    for read in (
        lambda: load_dataset_csv(path, GROUP_CONFIG),
        lambda: read_dataset_csv(io.StringIO(text), GROUP_CONFIG),
    ):
        kinds.clear()
        strips.reset_mock()
        group = read().group
        assert kinds == [kind]
        assert strips.called == (kind == "O")
        # one str object per distinct value, as the library promises
        assert group.dtype == object and group.tolist() == [brand, "no", brand]
        assert type(group[0]) is str and group[0] is group[2]


@pytest.mark.parametrize(
    ("first_brand", "group_kinds"), [("a" * 17, ["O"]), ("no", ["S", "O"])], ids=["first", "later"]
)
def test_an_ascii_file_with_group_values_of_16_bytes_or_more_is_read_by_loadtxt_as_str(
    tmp_path, monkeypatch, first_brand, group_kinds
):
    # group values that fill the bytes field may have been cut, as ids may: both are read as str,
    # in the one pass for a long first value, in a second np.loadtxt call for a later one
    text = f"firm_id,TA,NCL,CL,brand\nf1,1,2,3,{first_brand}\nf2,4,5,6," + "b" * 16 + "\nf3,7,8,9, " + "b" * 17 + " \n"
    path = tmp_path / "firms.csv"
    path.write_text(text, encoding="utf-8")
    kinds = _field_kinds(monkeypatch, "c4")
    monkeypatch.setattr(dataset, "_csv_reader_columns", mock.Mock(side_effect=AssertionError))
    for read in (
        lambda: load_dataset_csv(path, GROUP_CONFIG),
        lambda: read_dataset_csv(io.StringIO(text), GROUP_CONFIG),
    ):
        kinds.clear()
        ds = read()
        assert ds.group.tolist() == [first_brand, "b" * 16, "b" * 17]
        assert ds.firm_ids.tolist() == ["f1", "f2", "f3"]
        assert kinds == group_kinds


@pytest.mark.parametrize(
    ("text", "ids"),
    [
        ("firm_id,TA,NCL,CL\nf1\x00,1,2,3\nf1,4,5,6\n", ["f1\x00", "f1"]),  # S items end in NUL padding
        ("firm_id,TA,NCL,CL,town\nf1,1,2,3,Li\xe8ge\n", ["f1"]),
    ],
    ids=["nul", "non_ascii_unused_cell"],
)
def test_a_file_not_ascii_or_holding_a_nul_has_its_ids_read_as_str(text, ids):
    config = AnalysisConfig(parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))")
    firm_ids, _, _ = dataset._loadtxt_columns(io.StringIO(text), config)
    assert firm_ids.dtype == object and firm_ids.tolist() == ids


def test_ids_whose_hashes_all_collide_are_still_compared_exactly(monkeypatch):
    monkeypatch.setattr(dataset, "_word_hash", lambda words: np.zeros(len(words), np.uint64))
    config = AnalysisConfig(parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))")
    rows = "".join(f"f{i},1,2,3\n" for i in range(50))
    with mock.patch.object(dataset, "_csv_reader_columns", side_effect=AssertionError):
        ds = read_dataset_csv(io.StringIO("firm_id,TA,NCL,CL\n" + rows, newline=""), config)
    assert ds.firm_ids.tolist() == [f"f{i}" for i in range(50)]
    repeated = "firm_id,TA,NCL,CL\n" + rows + "f7 ,4,5,6\n"
    with pytest.raises(DuplicateFirmIdError, match=r"^duplicate firm_id 'f7' at line 52$"):
        read_dataset_csv(io.StringIO(repeated, newline=""), config)


def test_errors_name_an_ascii_files_ids_as_text(tmp_path, capsys):
    (tmp_path / "analysis.ini").write_text("[analysis]\nparts = TA, NCL, CL\nsbp = (TA|(NCL|CL))\n", encoding="utf-8")
    argv = ["--data", str(tmp_path / "firms.csv"), "--config", str(tmp_path / "analysis.ini")]
    for text, message in [
        ("firm_id,TA,NCL,CL\nf1,1,2,3\nf2,4,-5,6\n", "non-positive part value(s): f2:NCL=-5.0"),
        ("firm_id,TA,NCL,CL\nf1,1,2,3\nf2,4,0,6\n", "zero values are not allowed under the 'reject' policy: f2:NCL"),
    ]:
        (tmp_path / "firms.csv").write_text(text, encoding="utf-8")
        for command in ("analyze", "transform", "validate"):
            assert cli.main([command, *argv]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"


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


@settings(max_examples=100)
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
