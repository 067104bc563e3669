"""Firm-level CSV loading, zero handling, configuration, and group splits.

The CSV dialect is deliberately plain: comma-separated, UTF-8 (a leading
byte-order mark is dropped), first row is the header, '.' as decimal
separator, optional quoted fields.  The header must contain ``firm_id``
plus every configured part and may not repeat a name.  Any other column
counts only towards a row's fields: of those, just the configured group
variable (e.g. a yes/no brand flag) is kept, as the dataset's group
column.  A row may be shorter than the header (missing cells are empty)
but not longer, and every firm_id must be non-empty.  A CSV written by
the program quotes a field holding ',', '"', CR or LF, doubling its '"'.
Every source is opened once and its text scanned once.  A file without
quotes or long lines is read by ``np.loadtxt``, a regular file from its
path in numpy's C chunks; any other by ``csv.reader``, from the same handle.

A loaded dataset holds each column once: the firm ids and the group
column as read-only 1-D object arrays of ``str``, built from the reader's
cells, and the parts as one read-only (n, D) float64 array.  The group
column holds one ``str`` object per distinct value, shared by every firm
that has it, so a few values cost a few strings however many firms there
are; compare its values with ``==``, not ``is``.

The command-line tool runs the load stages without a dataset.  It holds the
ids and the group column of a plain, all-ASCII file without NUL whose first
id and first group cell are shorter than 16 bytes as ``S16`` bytes arrays, no
``str`` per firm, stripped only where the text holds a blank (' ', '\t',
'\v' or '\f').  The ids are checked for empty and repeated ids by a hash of
each id's 8-byte words, exactly, written as they are and decoded only where
an error names an id; the group column is split by comparing each row's
words with two rows', and only its values are decoded.  Other files' ids and
group cells are read as ``str``; where a later cell fills the 16 bytes, by a
second ``np.loadtxt`` call alone.

Zeros are a policy decision, negatives are not: a negative magnitude is a
hard error under every policy, because repairing it means restructuring
the accounts upstream (splitting profit into income and expenses, say),
not tweaking a number here.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os
import re
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    AllRowsDroppedError,
    CodaError,
    ConfigError,
    DuplicateFirmIdError,
    EmptyDataError,
    LengthMismatchError,
    MalformedNumberError,
    MissingColumnError,
    NonPositivePartError,
    SingleGroupError,
    ZeroCellError,
)
from .ratios import RatioSpec
from .sbp import PartitionTree, check_known, check_part_labels, parse_sbp, repeats, validate_tree

_ZERO_MODES = ("reject", "drop_row", "replace")

# A quote needs the csv.reader path.  np.loadtxt strips these ASCII
# separators from around a number as whitespace, and float() does not.
_NOT_PLAIN = '"\x1c\x1d\x1e\x1f'
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # np.loadtxt decompresses a path by these suffixes

_NEEDS_QUOTES = re.compile('[,"\r\n]')

_TEXT_WIDTH = 16  # bytes of an ASCII file's id and group fields; a cell that fills one may have been cut
_BLANKS = " \t\v\f"  # all that can pad a cell of a plain ASCII file: CR and LF end its lines


def _csv_fields(texts):
    """``texts`` as CSV fields: each holding ',', '"', CR or LF quoted, its '"' doubled."""
    joined = "".join(texts)  # four substring scans beat one regex search of it
    if "," not in joined and '"' not in joined and "\r" not in joined and "\n" not in joined:
        return texts  # plain fields come back as they are
    return ['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES.search(t) else t for t in texts]


def check_positive(values, firm_ids, part_labels, zero_ok=False) -> None:
    """Raise NonPositivePartError listing every magnitude that is not finite and positive.

    A cell of the (n, D) array ``values`` is named ``firm:part`` from ``firm_ids``
    and ``part_labels``.  With ``zero_ok`` zeros pass, for a zero policy to resolve later.
    """
    bad = ~(((values >= 0.0) if zero_ok else (values > 0.0)) & np.isfinite(values))
    if bad.any():
        raise NonPositivePartError(
            (f"{_text(firm_ids[i])}:{part_labels[j]}", float(values[i, j]))
            for i, j in zip(*np.nonzero(bad))
        )


def _text(firm_id) -> str:
    """A firm id as an error names it: the ASCII bytes of an ``S`` id array decoded."""
    return firm_id.decode("ascii") if isinstance(firm_id, bytes) else firm_id


def _shared_strip():
    """A fresh function mapping a cell to its stripped text, one ``str`` object per distinct text.

    Called as each cell is read, so the cell is freed at once and a column of
    a few values holds a few strings; a repeated cell is a hit of the C-level
    cache.  Sharing after the read would leave the freed cells' memory
    resident, between the strings a load keeps.
    """
    shared = {}

    def strip(cell):
        text = cell.strip()
        return shared.setdefault(text, text)

    return lru_cache(maxsize=None)(strip)


def check_unique_ids(firm_ids, lines=None) -> None:
    """Raise DuplicateFirmIdError at the first repeated firm id, citing its line from ``lines``."""
    if len(set(firm_ids)) == len(firm_ids):
        return
    seen = set()
    for i, firm_id in enumerate(firm_ids):
        if firm_id in seen:
            raise DuplicateFirmIdError(None if lines is None else lines[i], firm_id)
        seen.add(firm_id)


@dataclass(frozen=True)
class ZeroPolicy:
    """How to treat exact zeros in part columns.

    ``reject`` errors out listing every zero cell; ``drop_row`` removes any
    firm with a zero part; ``replace`` substitutes each zero in a column
    with delta_fraction times the smallest positive value seen in that
    column (the usual detection-limit heuristic), leaving nonzero parts
    untouched since magnitudes are unclosed.
    """

    mode: str = "reject"
    delta_fraction: float = 0.65

    def __post_init__(self):
        if self.mode not in _ZERO_MODES:
            raise ConfigError(
                f"zero policy mode must be one of {', '.join(_ZERO_MODES)}; got {self.mode!r}"
            )
        if not (
            isinstance(self.delta_fraction, (int, float))
            and 0.0 < self.delta_fraction < 1.0
        ):
            raise ConfigError(
                f"delta_fraction must lie strictly between 0 and 1, got {self.delta_fraction!r}"
            )


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything an analysis run needs besides the data itself.

    ``variable_names`` are the reported variables in report order: each tree
    coordinate, then each ratio, each followed by its permuted twin, named
    with a trailing 'p'.  A name that repeats is a ConfigError.
    """

    parts: tuple[str, ...]
    sbp: str
    standard_ratios: tuple[RatioSpec, ...] = ()
    group_variable: str | None = None
    zero_policy: ZeroPolicy = ZeroPolicy()
    tree: PartitionTree = field(init=False, repr=False, compare=False)
    variable_names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        tree = parse_sbp(self.sbp)
        validate_tree(tree, parts)
        if self.group_variable in ("firm_id", *parts):
            raise ConfigError(
                "the group variable must be a column other than firm_id and the parts, "
                f"got {self.group_variable!r}"
            )
        for spec in self.standard_ratios:
            check_known(spec.numerator + spec.denominator, parts)
        object.__setattr__(self, "standard_ratios", tuple(self.standard_ratios))
        object.__setattr__(self, "tree", tree)
        bases = tree.coordinate_names + tuple(spec.name for spec in self.standard_ratios)
        names = tuple(n for base in bases for n in (base, base + "p"))
        dupes = repeats(names)
        if dupes:
            raise ConfigError(f"duplicate variable name(s): {', '.join(dupes)}")
        object.__setattr__(self, "variable_names", names)


@dataclass(frozen=True, eq=False)
class FirmDataset:
    """An immutable sector sample in columns: row i of every field is firm i.

    ``firm_ids`` is a read-only 1-D object array of one stripped, non-empty ``str`` per firm;
    ``values`` is a read-only (n, D) float64 array whose columns follow
    ``part_labels``; ``group`` is None or a read-only 1-D object array of one
    stripped ``str`` per firm, which :func:`two_groups` splits; the loader fills it
    with the configured group variable, one shared ``str`` per distinct
    value, and leaves it None when none is.
    The dataset holds read-only copies of what it is given, so a caller's
    list or array is never changed or made read-only, and a caller can
    never change the dataset.
    """

    firm_ids: np.ndarray
    part_labels: tuple[str, ...]
    values: np.ndarray
    group: np.ndarray | None = None

    def __post_init__(self):
        firm_ids = np.array(self.firm_ids, dtype=object)
        part_labels = tuple(self.part_labels)
        n = len(firm_ids)
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (n, len(part_labels)):
            raise LengthMismatchError((n, len(part_labels)), values.shape)
        check_part_labels(part_labels)
        group = None if self.group is None else np.array(self.group, dtype=object)
        if group is not None and len(group) != n:
            raise LengthMismatchError(n, len(group))
        for firm_id in firm_ids:  # as a reader gives them: a stripped, non-empty str each
            if not (isinstance(firm_id, str) and firm_id and firm_id == firm_id.strip()):
                raise CodaError(f"firm_id {firm_id!r} is not a non-empty str without surrounding whitespace")
        for value in () if group is None else group:  # a stripped str each, empty for a short row
            if not (isinstance(value, str) and value == value.strip()):
                raise CodaError(f"group value {value!r} is not a str without surrounding whitespace")
        check_unique_ids(firm_ids)
        check_positive(values, firm_ids, part_labels)
        self._hold(firm_ids, part_labels, values, group)

    @classmethod
    def _checked(cls, firm_ids, part_labels, values, group):
        """A dataset of the loader's own columns, held without a copy: arrays of one length,
        with unique ids and positive parts, which the loader has checked as ``__init__`` would."""
        ds = object.__new__(cls)
        ds._hold(firm_ids, part_labels, values, group)
        return ds

    def _hold(self, firm_ids, part_labels, values, group):
        """Hold these columns as they are, each array made read-only."""
        for column in (firm_ids, values, group):
            if column is not None:
                column.setflags(write=False)
        self.__dict__.update(firm_ids=firm_ids, part_labels=part_labels, values=values, group=group)

    @property
    def n(self) -> int:
        return len(self.firm_ids)


def apply_zero_policy(firm_ids, values, part_labels, policy: ZeroPolicy):
    """Resolve zero cells per the policy.

    ``values`` is an (n, D) array, a row per firm id and a column per part
    label, or a LengthMismatchError; under every mode a negative or non-finite
    cell is a NonPositivePartError.  Returns ``(keep, values)``: a boolean mask
    of the input rows that are kept, and those rows with zeros resolved.
    """
    part_labels = tuple(part_labels)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(firm_ids), len(part_labels)):
        raise LengthMismatchError((len(firm_ids), len(part_labels)), values.shape)
    check_positive(values, firm_ids, part_labels, zero_ok=True)
    zero = values == 0.0
    keep = np.ones(len(firm_ids), dtype=bool)
    if not zero.any():
        return keep, values
    if policy.mode == "reject":
        raise ZeroCellError(
            (_text(firm_ids[i]), part_labels[j]) for i, j in zip(*np.nonzero(zero))
        )
    if policy.mode == "drop_row":
        keep = ~zero.any(axis=1)
        if not keep.any():
            raise AllRowsDroppedError(len(firm_ids))
        return keep, values[keep]
    # replace: 0 -> delta_fraction * (column's smallest positive value)
    fill = np.zeros(len(part_labels))
    for j in np.nonzero(zero.any(axis=0))[0]:
        column = values[:, j]
        positives = column[column > 0.0]
        fill[j] = policy.delta_fraction * positives.min() if positives.size else 0.0
        if fill[j] == 0.0:  # a 0 would stay 0: no positive value, or the product underflows
            why = "the replacement underflows to 0" if positives.size else "column has no positive values"
            cells = [(_text(firm_ids[i]), part_labels[j]) for i in np.nonzero(zero[:, j])[0]]
            raise ZeroCellError(cells, detail=f"cannot replace zeros: {why}")
    return keep, np.where(zero, fill, values)


@contextmanager
def _open_utf8(path, newline=None):
    """``path`` opened as UTF-8 text, without the byte-order mark spreadsheet exports put first.

    A byte that is not UTF-8 (a Latin-1 export, say) is a CodaError naming
    the file and the byte's offset.
    """
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # exc.object is the decoded chunk, ending where reading stopped; a pipe has no tell()
            offset = fh.buffer.tell() - len(exc.object) + exc.start if fh.seekable() else "unknown"
            raise CodaError(
                f"{path} is not valid UTF-8: byte {exc.object[exc.start]:#04x} at byte offset {offset}"
            ) from None


def load_dataset_csv(path, config: AnalysisConfig) -> FirmDataset:
    """Load a firm-per-row CSV and return a validated dataset.

    The file is opened once and read as :func:`read_dataset_csv` reads a stream, except that
    ``np.loadtxt`` reads a regular file from its absolute path, never taken for a URL.  A regular
    file is found by stat before the open (opening a FIFO waits for a writer); a pipe, a bytes path
    or a name np.loadtxt would decompress is read from the handle alone."""
    return _dataset(_read_csv(path, config), config)


def _read_csv(path, config: AnalysisConfig):
    """The ``(firm_ids, values, group)`` :func:`load_dataset_csv` reads, as a reader gives them."""
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    regular = isinstance(name, str) and os.path.isfile(name) and not name.endswith(_COMPRESSED)
    with _open_utf8(path, newline="") as fh:
        return _read_stream(fh, config, os.path.abspath(name) if regular else None)


def _records(reader):
    """The records of ``reader``, with a csv.Error as a CodaError citing the record's first line."""
    while True:
        start = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise CodaError(f"malformed CSV at line {start}: {exc}") from None
        yield row


def read_dataset_csv(fh, config: AnalysisConfig) -> FirmDataset:
    """Like load_dataset_csv but from an open text stream, read from where it stands.

    The text is scanned once; one ``np.loadtxt`` pass reads a plain file by lines, and a file it
    cannot read, or with an empty or repeated id or a number that is not finite, is read again
    by the ``csv.reader`` path, which words every error with its line.  A pipe is read into
    memory first.
    """
    return _dataset(_read_stream(fh, config), config)


def _read_stream(fh, config: AnalysisConfig, path=None):
    """The ``(firm_ids, values, group)`` of the text stream ``fh``, as a reader gives them: where
    ``path``, the regular file ``fh`` reads, is given, ``np.loadtxt`` reads that instead."""
    if not fh.seekable():
        fh = io.StringIO(fh.read(), newline="")
    start = fh.tell()
    columns = _loadtxt_columns(fh, config, path)
    if columns is None:
        fh.seek(start)
    return columns or _csv_reader_columns(fh, config)


def _past_zero_policy(firm_ids, values, group, config: AnalysisConfig):
    """A read's columns for the rows the zero policy keeps, zeros resolved: no rows is an EmptyDataError."""
    if not len(firm_ids):
        raise EmptyDataError()
    keep, values = apply_zero_policy(firm_ids, values, config.parts, config.zero_policy)
    if not keep.all():
        firm_ids = firm_ids[keep]
        group = None if group is None else group[keep]
    return firm_ids, values, group


def _dataset(columns, config: AnalysisConfig) -> FirmDataset:
    """The dataset of a read's columns past the zero policy: a ``str`` per firm id, and one shared
    ``str`` per distinct group value."""
    firm_ids, values, group = _past_zero_policy(*columns, config)
    if firm_ids.dtype.kind == "S":
        firm_ids = firm_ids.astype(str).astype(object)
    if group is not None and group.dtype.kind == "S":
        distinct, rows = np.unique(group, return_inverse=True)
        group = np.array([value.decode("ascii") for value in distinct.tolist()], dtype=object)[rows]
    # the ids are unique and, past the zero policy, every part positive: no check runs twice
    return FirmDataset._checked(firm_ids, config.parts, values, group)


def _is_plain(read) -> tuple[bool, bool, bool]:
    """Whether the text ``read(size)`` gives is plain: no ``_NOT_PLAIN`` character, and a line end
    in every full chunk; whether it is ASCII without NUL, which ends an ``S`` item; and whether
    it holds a ``_BLANKS`` character, without which no cell of a plain ASCII file has padding.
    A line past the csv field limit covers a whole chunk of half that limit, so it never passes
    (nor do some shorter ones)."""
    size = max(1, min(1 << 16, csv.field_size_limit() // 2))
    data = read(size)
    ascii_, blank = True, False
    while data and not any(c in data for c in _NOT_PLAIN) and (len(data) < size or any(c in data for c in "\r\n")):
        ascii_ = ascii_ and data.isascii() and "\0" not in data
        blank = blank or any(c in data for c in _BLANKS)
        data = read(size)
    return not data, ascii_, blank


def _header_columns(header, config: AnalysisConfig) -> list[str]:
    """A header record's stripped column names, checked against ``config``."""
    if header is None:
        raise MissingColumnError("firm_id")
    header = [name.strip() for name in header]
    dupes = repeats(header)
    if dupes:
        raise CodaError(f"CSV header repeats column name(s): {', '.join(map(repr, dupes))}")
    for name in ("firm_id", *config.parts, config.group_variable):
        if name is not None and name not in header:
            raise MissingColumnError(name)
    return header


def _loadtxt_columns(fh, config: AnalysisConfig, path=None):
    """``(firm_ids, values, group)`` of the seekable text stream ``fh`` from ``np.loadtxt``, or None.

    ``fh`` is scanned, and its header and first row peeked, from where it stands.  ``np.loadtxt``
    then reads ``path``, the absolute path of the regular file ``fh`` reads, in numpy's C chunks,
    or else ``fh`` by lines.  The ids and the group column of an ASCII file without NUL whose
    first id and first group cell are shorter than 16 bytes are ``S16`` bytes, read with no
    converter and stripped after the read, unless the text holds no blank to strip; a later
    cell that fills either field (and may have been cut) has ``np.loadtxt`` read the file once
    more, both as ``str``.  Otherwise the ids and the group column are 1-D object arrays, each
    cell stripped by a converter as it is read, the group column with one ``str`` per distinct
    value.  Other columns are ``"U1"``: no ``str``, but counted, unlike with ``usecols``.

    None means the csv.reader path must read the file: it is not plain; the header or a row
    is one that path rejects or reads differently (a short row, say); an id is empty or
    repeated or a part not finite (a negative part is apply_zero_policy's to find); or a part
    is named firm_id.  A failed read may have consumed any part of ``fh``.
    """
    if "firm_id" in config.parts:  # one column, read as both text and number
        return None
    try:
        start = fh.tell()
        plain, ascii_, blank = _is_plain(fh.read)
        if not plain:
            return None
        fh.seek(start)
        # a plain file's header is its first line, which np.loadtxt skips
        header = _header_columns(next(csv.reader([fh.readline()], strict=True)), config)
        first_row = fh.readline().rstrip("\r\n").split(",")  # as np.loadtxt splits a plain line
        field = {name: f"c{j}" for j, name in enumerate(header)}
        names = [name for name in ("firm_id", config.group_variable) if name is not None]
        kinds = {**dict.fromkeys(names, f"S{_TEXT_WIDTH}"), **dict.fromkeys(config.parts, np.float64)}
        # a first id or group cell as long as its field has both read as str, in one pass
        first = dict(zip(header, first_row))
        as_bytes = ascii_ and all(len(first.get(name, "")) < _TEXT_WIDTH for name in names)
        while True:
            fh.seek(start)
            # text columns read as str are stripped as they are read, the group's cells shared too;
            # an encoding hands a converter str, where older numpy's default, "bytes", hands it bytes
            converters = {}
            if not as_bytes:
                converters = {header.index(name): f for name, f in zip(names, (str.strip, _shared_strip()))}
            dtype = [
                (f"c{j}", object if j in converters else kinds.get(name, "U1")) for j, name in enumerate(header)
            ]
            with warnings.catch_warnings():
                # a header-only file is an EmptyDataError, and stderr carries only the error line
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(
                    path or fh, dtype=dtype, delimiter=",", quotechar=None, comments=None, ndmin=1,
                    converters=converters, encoding="utf-8-sig", skiprows=1,
                )
            texts = [table[field[name]].copy() for name in names]  # a field of the table has no byte view
            if not (as_bytes and any(t.view(np.uint8)[_TEXT_WIDTH - 1 :: _TEXT_WIDTH].any() for t in texts)):
                break
            del table, texts  # a cell may have been cut: both columns are read again, as str
            as_bytes = False
    except (CodaError, csv.Error, ValueError, OSError):  # the csv.reader path words each, by the name given
        return None
    values = np.empty((len(table), len(config.parts)))
    for j, part in enumerate(config.parts):
        values[:, j] = table[field[part]]
    del table  # before the ids are checked: the columns taken out are all that is kept
    if as_bytes and blank:  # on a plain (no '\x1c'-'\x1f') ASCII file, str.strip
        texts = [np.char.strip(t) for t in texts]
    firm_ids, group = (*texts, None)[:2]  # no group variable: None
    if not _distinct(firm_ids) or not np.isfinite(values).all():
        return None
    return firm_ids, values, group


def _distinct(firm_ids) -> bool:
    """Whether the ids are non-empty and pairwise different, exactly: ``str`` ids by a set, ``S``
    ids by a sorted hash of each id's uint64 words, then a set of those whose hash repeats."""
    if firm_ids.dtype == object:
        return "" not in (ids := set(firm_ids)) and len(ids) == len(firm_ids)
    words = firm_ids.view(np.uint64).reshape(-1, _TEXT_WIDTH // 8)
    if not words[:, 0].all():  # an empty id: its first word is NUL padding; no id holds a NUL
        return False
    hashes = _word_hash(words)
    ordered = np.sort(hashes)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    if not shared.size:
        return True
    suspects = firm_ids[np.isin(hashes, shared)]
    return len(set(suspects.tolist())) == len(suspects)


def _word_hash(words):
    """One uint64 per row of the (n, k) uint64 array ``words``, from its k words in turn."""
    hashes = np.zeros(len(words), np.uint64)
    for column in words.T:
        hashes = (hashes ^ column) * np.uint64(0x9E3779B97F4A7C15)  # odd: the product permutes
    return hashes


def _csv_reader_columns(fh, config: AnalysisConfig):
    """``(firm_ids, values, group)`` of ``fh`` read by ``csv.reader``, cell by cell.

    Ids and the group column are returned as 1-D object arrays of stripped cells,
    the group column with one ``str`` per distinct value.

    Raises a CodaError for the first problem found, citing its line: a
    malformed record, a bad header, a row longer than the header, an empty
    or repeated firm_id, and every malformed number.
    """
    reader = csv.reader(fh, strict=True)
    records = _records(reader)
    header = _header_columns(next(records, None), config)
    col = {name: j for j, name in enumerate(header)}
    g = col.get(config.group_variable)
    strip_group = _shared_strip()

    width = len(header)
    firm_ids, group, lines, flat = [], [], array("q"), array("d")
    malformed = []  # (line, column_name, raw)
    for row in records:
        if not row:
            continue
        line = reader.line_num
        if len(row) > width:
            raise CodaError(f"line {line} has {len(row)} fields but the header has {width}")
        cells = row + [""] * (width - len(row))
        firm_id = cells[col["firm_id"]].strip()
        if not firm_id:
            raise CodaError(f"empty firm_id at line {line}")
        firm_ids.append(firm_id)
        lines.append(line)
        for part in config.parts:
            raw = cells[col[part]]
            try:
                v = float(raw)
            except ValueError:
                v = math.nan
            # the grammar np.loadtxt reads too: no '_' separators, ASCII digits only
            if not math.isfinite(v) or "_" in raw or not raw.strip().isascii():
                malformed.append((line, part, raw))
                v = math.nan
            flat.append(v)
        if g is not None:
            group.append(strip_group(cells[g]))

    if malformed:
        raise MalformedNumberError(malformed)

    check_unique_ids(firm_ids, lines)
    values = np.empty((len(firm_ids), len(config.parts)))
    values.reshape(-1)[:] = flat  # an array that owns its data, which the dataset keeps
    return np.array(firm_ids, dtype=object), values, None if g is None else np.array(group, dtype=object)


def two_groups(ds: FirmDataset) -> tuple[tuple[str, np.ndarray], ...]:
    """The ``(value, row indices)`` pairs of the dataset's group column, low value first.

    The indices ascend, so ``ds.values[rows]`` holds a group's firms in file order.

    Raises a CodaError when the dataset has no group column, and a
    SingleGroupError unless the column takes exactly two values.
    """
    if ds.group is None:
        raise CodaError("the dataset has no group column")
    return _two_groups(ds.group)


def _two_groups(group) -> tuple[tuple[str, np.ndarray], ...]:
    """:func:`two_groups` of the group column ``group``: an ``S`` column of ASCII bytes by comparing
    each row's uint64 words with row 0's and with those of the first row that differs."""
    if group.dtype.kind == "S":
        low, high = group.view(np.uint64).reshape(-1, _TEXT_WIDTH // 8).T  # an item's two words
        first = (low == low[0]) & (high == high[0])
        other = int(first.argmin())  # the first row that differs, or 0 where none does
        second = (low == low[other]) & (high == high[other])
        if other and (first | second).all():
            pairs = sorted(zip(group[[0, other]].astype(str).tolist(), (first, second)))
            return tuple((value, np.flatnonzero(mask)) for value, mask in pairs)
        group = group.astype(str).astype(object)  # not two values: the error names them as str
    values = sorted(set(group))
    if len(values) != 2:
        raise SingleGroupError(values)
    return tuple((value, np.flatnonzero(group == value)) for value in values)


# ---------------------------------------------------------------------------
# configuration file format


def parse_config(text: str) -> AnalysisConfig:
    """Parse the INI-style analysis configuration.

    ::

        [analysis]
        parts = TA, NCL, CL
        sbp = (TA|(NCL|CL))
        group_variable = brand

        [ratios]
        r1 = TA / NCL + CL
        r2 = NCL / CL

        [zeros]
        mode = replace
        delta_fraction = 0.65

    [ratios] and [zeros] are optional; a ratio value reads
    "<numerator parts> / <denominator parts>" with '+' separating parts.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # ratio names and part labels are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad configuration syntax: {exc}") from exc

    _check_names(cp.sections(), {"analysis", "ratios", "zeros"}, "section(s)")
    if not cp.has_section("analysis"):
        raise ConfigError("missing [analysis] section")

    analysis = dict(cp.items("analysis"))
    _check_names(analysis, {"parts", "sbp", "group_variable"}, "key(s) in [analysis]")
    for key in ("parts", "sbp"):
        if key not in analysis:
            raise ConfigError(f"[analysis] is missing required key {key!r}")
    parts = tuple(p.strip() for p in analysis["parts"].split(",") if p.strip())
    group_variable = analysis.get("group_variable", "").strip() or None

    ratios = []
    if cp.has_section("ratios"):
        for name, expr in cp.items("ratios"):
            sides = expr.split("/")
            if len(sides) != 2:
                raise ConfigError(
                    f"ratio {name!r} must be '<num> / <den>' with exactly one '/', got {expr!r}"
                )
            num, den = (tuple(p.strip() for p in side.split("+") if p.strip()) for side in sides)
            ratios.append(RatioSpec(name=name, numerator=num, denominator=den))

    zeros = dict(cp.items("zeros")) if cp.has_section("zeros") else {}
    _check_names(zeros, {"mode", "delta_fraction"}, "key(s) in [zeros]")
    delta_fraction = zeros.get("delta_fraction", ZeroPolicy.delta_fraction)
    try:
        delta_fraction = float(delta_fraction)
    except ValueError:
        raise ConfigError(f"delta_fraction must be a number, got {delta_fraction!r}") from None
    zero_policy = ZeroPolicy(zeros.get("mode", ZeroPolicy.mode).strip(), delta_fraction)

    return AnalysisConfig(
        parts=parts,
        sbp=analysis["sbp"].strip(),
        standard_ratios=tuple(ratios),
        group_variable=group_variable,
        zero_policy=zero_policy,
    )


def _check_names(names, allowed: set[str], what: str) -> None:
    """Raise ConfigError listing each of ``names`` not in ``allowed`` as an unknown ``what``."""
    unknown = set(names) - allowed
    if unknown:
        raise ConfigError(f"unknown {what}: {', '.join(sorted(unknown))}")


def load_config(path) -> AnalysisConfig:
    with _open_utf8(path) as fh:
        return parse_config(fh.read())
