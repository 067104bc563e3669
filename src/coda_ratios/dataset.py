"""Firm-level CSV loading, zero handling, configuration, and group splits.

The CSV dialect is deliberately plain: comma-separated, UTF-8 (a leading
byte-order mark is dropped), first row is the header, '.' as decimal
separator, optional quoted fields.  The header must contain ``firm_id``
plus every configured part and may not repeat a name; any other column is
kept verbatim as a categorical external variable (e.g. a yes/no brand
flag).  A row may be shorter than the header (missing cells are empty) but
not longer, and every firm_id must be non-empty.

Zeros are a policy decision, negatives are not: a negative magnitude is a
hard error under every policy, because repairing it means restructuring
the accounts upstream (splitting profit into income and expenses, say),
not tweaking a number here.
"""

from __future__ import annotations

import configparser
import csv
import io
import logging
import math
from dataclasses import dataclass, field
from itertools import compress
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .composition import ilr_matrix
from .errors import (
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
    TooFewPartsError,
    UnknownLabelError,
    ZeroCellError,
)
from .ratios import RatioSpec
from .sbp import PartitionTree, parse_sbp, validate_tree

logger = logging.getLogger(__name__)

_ZERO_MODES = ("reject", "drop_row", "replace")


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
    """Everything an analysis run needs besides the data itself."""

    parts: tuple[str, ...]
    sbp: str
    standard_ratios: tuple[RatioSpec, ...] = ()
    group_variable: str | None = None
    zero_policy: ZeroPolicy = ZeroPolicy()
    tree: PartitionTree = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) < 2:
            raise TooFewPartsError(len(parts))
        dupes = sorted({p for p in parts if parts.count(p) > 1})
        if dupes:
            raise DuplicateLabelError(dupes)
        tree = parse_sbp(self.sbp)
        validate_tree(tree, parts)
        for spec in self.standard_ratios:
            unknown = sorted(set(spec.numerator + spec.denominator) - set(parts))
            if unknown:
                raise UnknownLabelError(unknown)
        object.__setattr__(self, "standard_ratios", tuple(self.standard_ratios))
        object.__setattr__(self, "tree", tree)


@dataclass(frozen=True, eq=False)
class FirmDataset:
    """An immutable sector sample in columns: row i of every field is firm i.

    ``values`` is a read-only (n, D) float64 array whose columns follow
    ``part_labels``; ``externals`` maps each categorical column name to one
    string per firm.
    """

    firm_ids: tuple[str, ...]
    part_labels: tuple[str, ...]
    values: np.ndarray
    externals: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        firm_ids = tuple(self.firm_ids)
        part_labels = tuple(self.part_labels)
        n = len(firm_ids)
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (n, len(part_labels)):
            raise LengthMismatchError((n, len(part_labels)), values.shape)
        externals = {name: tuple(column) for name, column in self.externals.items()}
        for column in externals.values():
            if len(column) != n:
                raise LengthMismatchError(n, len(column))
        seen = set()
        for firm_id in firm_ids:
            if firm_id in seen:
                raise DuplicateFirmIdError(None, firm_id)
            seen.add(firm_id)
        _raise_non_positive(firm_ids, part_labels, values, ~((values > 0.0) & np.isfinite(values)))
        values.setflags(write=False)
        object.__setattr__(self, "firm_ids", firm_ids)
        object.__setattr__(self, "part_labels", part_labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "externals", MappingProxyType(externals))

    @property
    def n(self) -> int:
        return len(self.firm_ids)


def _raise_non_positive(firm_ids, part_labels, values, bad) -> None:
    """Raise NonPositivePartError listing the ``bad`` cells row by row, if any."""
    if bad.any():
        raise NonPositivePartError(
            (f"{firm_ids[i]}:{part_labels[j]}", float(values[i, j]))
            for i, j in zip(*np.nonzero(bad))
        )


def ilr_coordinates(ds: FirmDataset, tree: PartitionTree) -> np.ndarray:
    """(n, D-1) ilr coordinates of every firm, one column per balance.

    The columns are reordered to the tree's leaf order by fancy indexing,
    which yields an F-ordered array; the row means inside ilr_matrix round
    differently on a C-ordered copy once D >= 8, and the report bytes pin
    this layout.
    """
    validate_tree(tree, ds.part_labels)
    order = [ds.part_labels.index(label) for label in tree.leaf_labels]
    return ilr_matrix(ds.values[:, order], tree)


def apply_zero_policy(firm_ids, values, part_labels, policy: ZeroPolicy):
    """Resolve zero cells per the policy.

    ``values`` is a non-negative (n, D) array with one row per firm id and
    one column per part label.  Returns ``(keep, values)``: a boolean mask
    of the input rows that are kept, and those rows with zeros resolved.
    drop_row logs how many firms were removed.
    """
    part_labels = tuple(part_labels)
    values = np.asarray(values, dtype=np.float64)
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
        logger.info("zero policy drop_row removed %d firm(s)", int((~keep).sum()))
        return keep, values[keep]
    # replace: 0 -> delta_fraction * (column's smallest positive value)
    fill = np.zeros(len(part_labels))
    for j in np.nonzero(zero.any(axis=0))[0]:
        column = values[:, j]
        positives = column[column > 0.0]
        if not positives.size:
            raise ZeroCellError(
                [(firm_ids[i], part_labels[j]) for i in np.nonzero(zero[:, j])[0]],
                detail="cannot replace zeros: column has no positive values",
            )
        fill[j] = policy.delta_fraction * positives.min()
    return keep, np.where(zero, fill, values)


def load_dataset_csv(path, config: AnalysisConfig) -> FirmDataset:
    """Load a firm-per-row CSV and return a validated dataset."""
    # utf-8-sig drops the byte-order mark spreadsheet exports put first
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return read_dataset_csv(fh, config)


def read_dataset_csv(fh, config: AnalysisConfig) -> FirmDataset:
    """Like load_dataset_csv but from an open text stream."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise MissingColumnError("firm_id")
    header = [name.strip() for name in header]
    dupes = sorted({name for name in header if header.count(name) > 1})
    if dupes:
        raise CodaError(f"CSV header repeats column name(s): {', '.join(map(repr, dupes))}")
    required = ["firm_id", *config.parts]
    if config.group_variable is not None:
        required.append(config.group_variable)
    for name in required:
        if name not in header:
            raise MissingColumnError(name)
    col = {name: header.index(name) for name in header}
    externals = {
        name: [] for name in header if name != "firm_id" and name not in config.parts
    }

    width = len(header)
    firm_ids, lines, flat = [], [], []
    malformed = []  # (line, column_name, raw)
    for row in reader:
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
            if not math.isfinite(v):
                malformed.append((line, part, raw))
                v = math.nan
            flat.append(v)
        for name, column in externals.items():
            column.append(cells[col[name]].strip())

    if malformed:
        raise MalformedNumberError(malformed)

    seen = set()
    for line, firm_id in zip(lines, firm_ids):
        if firm_id in seen:
            raise DuplicateFirmIdError(line, firm_id)
        seen.add(firm_id)

    values = np.array(flat, dtype=np.float64).reshape(len(firm_ids), len(config.parts))
    _raise_non_positive(firm_ids, config.parts, values, values < 0.0)

    keep, values = apply_zero_policy(firm_ids, values, config.parts, config.zero_policy)
    return FirmDataset(
        firm_ids=tuple(compress(firm_ids, keep)),
        part_labels=config.parts,
        values=values,
        externals={name: tuple(compress(column, keep)) for name, column in externals.items()},
    )


def split_by_group(ds: FirmDataset, variable: str) -> dict[str, np.ndarray]:
    """Boolean row masks of ``ds``, one per value of a categorical external variable.

    Groups appear in order of first appearance; the masks are disjoint and
    together cover every firm.
    """
    if ds.n == 0:
        return {}
    if variable not in ds.externals:
        raise CodaError(f"unknown external variable {variable!r}")
    labels = np.array(ds.externals[variable], dtype=object)
    return {value: labels == value for value in dict.fromkeys(ds.externals[variable])}


def two_groups(ds: FirmDataset, variable: str) -> tuple[tuple[str, np.ndarray], ...]:
    """The ``(value, mask)`` pairs of a two-valued variable, low value first.

    Raises SingleGroupError unless ``variable`` takes exactly two values.
    """
    split = split_by_group(ds, variable)
    if len(split) != 2:
        raise SingleGroupError(len(split))
    return tuple(sorted(split.items()))


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

    unknown_sections = set(cp.sections()) - {"analysis", "ratios", "zeros"}
    if unknown_sections:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown_sections))}")
    if not cp.has_section("analysis"):
        raise ConfigError("missing [analysis] section")

    analysis = dict(cp.items("analysis"))
    unknown_keys = set(analysis) - {"parts", "sbp", "group_variable"}
    if unknown_keys:
        raise ConfigError(
            f"unknown key(s) in [analysis]: {', '.join(sorted(unknown_keys))}"
        )
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
            num = tuple(p.strip() for p in sides[0].split("+") if p.strip())
            den = tuple(p.strip() for p in sides[1].split("+") if p.strip())
            ratios.append(RatioSpec(name=name, numerator=num, denominator=den))

    zero_policy = ZeroPolicy()
    if cp.has_section("zeros"):
        zeros = dict(cp.items("zeros"))
        unknown_keys = set(zeros) - {"mode", "delta_fraction"}
        if unknown_keys:
            raise ConfigError(
                f"unknown key(s) in [zeros]: {', '.join(sorted(unknown_keys))}"
            )
        kwargs = {}
        if "mode" in zeros:
            kwargs["mode"] = zeros["mode"].strip()
        if "delta_fraction" in zeros:
            try:
                kwargs["delta_fraction"] = float(zeros["delta_fraction"])
            except ValueError:
                raise ConfigError(
                    f"delta_fraction must be a number, got {zeros['delta_fraction']!r}"
                ) from None
        zero_policy = ZeroPolicy(**kwargs)

    return AnalysisConfig(
        parts=parts,
        sbp=analysis["sbp"].strip(),
        standard_ratios=tuple(ratios),
        group_variable=group_variable,
        zero_policy=zero_policy,
    )


def load_config(path) -> AnalysisConfig:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_config(fh.read())


def format_config(config: AnalysisConfig) -> str:
    """Serialize a configuration back to the INI format parse_config reads."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp["analysis"] = {"parts": ", ".join(config.parts), "sbp": config.sbp}
    if config.group_variable is not None:
        cp["analysis"]["group_variable"] = config.group_variable
    if config.standard_ratios:
        cp["ratios"] = {
            spec.name: f"{' + '.join(spec.numerator)} / {' + '.join(spec.denominator)}"
            for spec in config.standard_ratios
        }
    cp["zeros"] = {
        "mode": config.zero_policy.mode,
        "delta_fraction": repr(config.zero_policy.delta_fraction),
    }
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()
