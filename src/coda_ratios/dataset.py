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

A loaded dataset holds each column once: the firm ids and the group
column as read-only 1-D object arrays of ``str``, built from the reader's
cells, and the parts as one read-only (n, D) float64 array.  The group
column holds one ``str`` object per distinct value, shared by every firm
that has it, so a few values cost a few strings however many firms there
are; compare its values with ``==``, not ``is``.

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
import re
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain

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

_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as a CSV field: quoted, its '"' doubled, when it holds ',', '"', CR or LF."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def check_positive(values, firm_ids, part_labels, zero_ok=False) -> None:
    """Raise NonPositivePartError listing every magnitude that is not finite and positive.

    A cell of the (n, D) array ``values`` is named ``firm:part`` from ``firm_ids``
    and ``part_labels``.  With ``zero_ok`` zeros pass, for a zero policy to resolve later.
    """
    bad = ~(((values >= 0.0) if zero_ok else (values > 0.0)) & np.isfinite(values))
    if bad.any():
        raise NonPositivePartError(
            (f"{firm_ids[i]}:{part_labels[j]}", float(values[i, j]))
            for i, j in zip(*np.nonzero(bad))
        )


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

    ``firm_ids`` is a read-only 1-D object array of one ``str`` per firm;
    ``values`` is a read-only (n, D) float64 array whose columns follow
    ``part_labels``; ``group`` is None or a read-only 1-D object array of one
    ``str`` per firm, which :func:`two_groups` splits; the loader fills it
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
            (firm_ids[i], part_labels[j]) for i, j in zip(*np.nonzero(zero))
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
            cells = [(firm_ids[i], part_labels[j]) for i in np.nonzero(zero[:, j])[0]]
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
    """Load a firm-per-row CSV and return a validated dataset."""
    with _open_utf8(path, newline="") as fh:
        return read_dataset_csv(fh, config)


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
    """Like load_dataset_csv but from an open text stream.

    One ``np.loadtxt`` pass reads a plain file, one without quotes; a file it
    cannot read, or with an empty or repeated id or a number that is not finite, is
    read again by the ``csv.reader`` path, which words every error with its line.
    A stream that cannot seek (a pipe) is read into memory first.  A file with no
    firm rows is an :class:`EmptyDataError`; apply_zero_policy checks the signs.
    """
    if not fh.seekable():
        fh = io.StringIO(fh.read(), newline="")
    start = fh.tell()
    columns = _loadtxt_columns(fh, config)
    if columns is None:
        fh.seek(start)
    firm_ids, values, group = columns or _csv_reader_columns(fh, config)
    if not len(firm_ids):
        raise EmptyDataError()
    keep, values = apply_zero_policy(firm_ids, values, config.parts, config.zero_policy)
    if not keep.all():
        firm_ids = firm_ids[keep]
        group = None if group is None else group[keep]
    # the ids are unique and, past the zero policy, every part positive: no check runs twice
    return FirmDataset._checked(firm_ids, config.parts, values, group)


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


def _loadtxt_columns(fh, config: AnalysisConfig):
    """``(firm_ids, values, group)`` of ``fh`` from one ``np.loadtxt`` pass, or None.

    Ids and the group column are read as 1-D object arrays, each cell stripped
    by a converter as it is read, the group column with one ``str`` per distinct
    value.  Every other column is read as ``"U1"``, so it is counted as a field
    but makes no ``str``; ``usecols`` would let a row of the wrong length through.

    None means the csv.reader path must read the file: a line holds a
    character of ``_NOT_PLAIN`` or is longer than the csv field limit; the
    header or a row is one that path rejects or reads differently (a short
    row, say); an id is empty or repeated or a part not finite (a negative
    part is apply_zero_policy's to find); or a part is named firm_id.  A
    failed read may have consumed any part of ``fh``.
    """
    if "firm_id" in config.parts:  # one column, read as both text and number
        return None
    limit = csv.field_size_limit()

    def checked(batch):
        text = "".join(batch)
        if any(c in text for c in _NOT_PLAIN) or max(map(len, batch)) > limit:
            raise ValueError("not a plain file")  # np.loadtxt passes it on
        return batch

    # a batch of lines at a time keeps the checks in C, and no Python frame runs per line
    rows = chain.from_iterable(map(checked, iter(partial(fh.readlines, 1 << 16), [])))
    try:
        header = _header_columns(next(csv.reader(rows, strict=True), None), config)
        # the text columns are stripped as they are read, the group's cells shared too; encoding=None
        # hands a converter str, where older numpy's default, "bytes", hands it latin-1 bytes
        converters = {header.index("firm_id"): str.strip}
        if config.group_variable is not None:
            converters[header.index(config.group_variable)] = _shared_strip()
        dtype = [
            (f"c{j}", object if j in converters else np.float64 if name in config.parts else "U1")
            for j, name in enumerate(header)
        ]
        with warnings.catch_warnings():
            # a header-only file is an EmptyDataError, and stderr carries only the error line
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                rows, dtype=dtype, delimiter=",", quotechar=None, comments=None, ndmin=1,
                converters=converters, encoding=None,
            )
    except (CodaError, csv.Error, ValueError):  # a UnicodeDecodeError too: the csv.reader path words it
        return None
    field = {name: f"c{j}" for j, name in enumerate(header)}

    firm_ids = table[field["firm_id"]].copy()
    group = None if config.group_variable is None else table[field[config.group_variable]].copy()
    values = np.empty((len(firm_ids), len(config.parts)))
    for j, part in enumerate(config.parts):
        values[:, j] = table[field[part]]
    del table  # before the id set is built: the columns taken out are all that is kept
    if not all(firm_ids) or len(set(firm_ids)) != len(firm_ids) or not np.isfinite(values).all():
        return None
    return firm_ids, values, group


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
    """The ``(value, row mask)`` pairs of the dataset's group column, low value first.

    Raises a CodaError when the dataset has no group column, and a
    SingleGroupError unless the column takes exactly two values.
    """
    if ds.group is None:
        raise CodaError("the dataset has no group column")
    values = sorted(set(ds.group))
    if len(values) != 2:
        raise SingleGroupError(values)
    return tuple((value, ds.group == value) for value in values)


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
