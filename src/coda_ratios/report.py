"""Full-pipeline analysis report: balances, ratios, their permuted twins.

For every firm the analysis computes the ilr coordinates of the configured
partition, their sign-flipped permutations (swapping a node's numerator
and denominator group exactly negates that balance, so the permuted
column is the negated column), every configured standard ratio, and every
ratio with numerator and denominator swapped.  Each resulting variable
gets descriptive moments, a Tukey box summary, and, when a two-valued
group variable is configured, an equal-variance t comparison.

Variables are reported in configuration order with each permuted variant
immediately after its original.  Degenerate statistics (too few firms,
zero variance) are recorded as null entries with a reason string instead
of aborting the run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from ._floattext import repr_rows
from .composition import ilr_matrix
from .dataset import AnalysisConfig, FirmDataset, _csv_fields, two_groups
from .errors import (
    CodaError,
    TooFewObservationsError,
    ZeroPooledVarianceError,
    ZeroVarianceError,
)
from .ratios import invert_spec, ratio_column
from .stats import (
    BoxSummary,
    DescriptiveStats,
    GroupComparison,
    box_summary,
    describe,
    two_sample_t_equal_var,
)


@dataclass(frozen=True, eq=False)
class VariableReport:
    """One analyzed variable: its statistics, not its per-firm values."""

    name: str
    kind: str  # balance | balance_permuted | ratio | ratio_permuted
    stats: DescriptiveStats | None
    stats_note: str | None
    box: BoxSummary
    comparison: GroupComparison | None
    comparison_note: str | None


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    variables: tuple[VariableReport, ...]
    n: int
    config_echo: dict
    timestamp: str | None
    group_variable: str | None
    groups: tuple[tuple[str, int], ...] | None  # ((low, n_low), (high, n_high))

    def variable(self, name: str) -> VariableReport:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)


def _config_echo(config: AnalysisConfig) -> dict:
    # a ratio's and the zero policy's JSON keys are their field names, in field order
    return {
        "parts": list(config.parts),
        "sbp": config.sbp,
        "ratios": [dict(vars(spec)) for spec in config.standard_ratios],
        "group_variable": config.group_variable,
        "zero_policy": dict(vars(config.zero_policy)),
    }


def _numbers(result) -> list:
    """Every number a describe, box or comparison result holds, outliers aside; [] for None."""
    fields = () if result is None else (v for k, v in vars(result).items() if "outliers" not in k)
    return [x for v in fields for x in (v if isinstance(v, tuple) else (v,))]


def _require_finite(name: str, numbers) -> None:
    # a ratio sum or a moment can overflow the float range even though
    # every part is finite; JSON has no inf or nan to report it with
    if not np.isfinite(numbers).all():
        raise CodaError(
            f"variable {name!r} has a statistic that is not finite: "
            "its values or their moments exceed the float range"
        )


def run_analysis(
    ds: FirmDataset, config: AnalysisConfig, timestamp: str | None = None
) -> AnalysisReport:
    """Run the whole pipeline on a loaded dataset.

    ``timestamp`` is echoed into the report metadata verbatim; pass None
    for a timestamp-free (fully input-determined) report.
    """
    groups = None if config.group_variable is None else two_groups(ds)
    return _analyze(ds.values, ds.part_labels, groups, config, timestamp)


# overflow is reported by _require_finite as an error, not as a warning
@np.errstate(over="ignore", invalid="ignore")
def _analyze(values, part_labels, groups, config: AnalysisConfig, timestamp) -> AnalysisReport:
    """run_analysis on the dataset columns it reads, ``groups`` as two_groups gives them: no firm id."""
    Y = ilr_matrix(values, part_labels, config.tree)

    # one (kind, values) per name of config.variable_names, in the same order, each
    # made when its turn comes; the report keeps its statistics, not the column
    def columns():
        for y in Y.T:
            # the permuted balance is the exact negation: swapping the node's
            # numerator and denominator groups flips only the sign
            yield "balance", y
            yield "balance_permuted", -y
        for spec in config.standard_ratios:
            for s, kind in ((spec, "ratio"), (invert_spec(spec), "ratio_permuted")):
                yield kind, ratio_column(values, part_labels, s)

    variables = []
    for name, (kind, column) in zip(config.variable_names, columns(), strict=True):
        _require_finite(name, column)  # and so every outlier, an element of the column
        try:
            stats, stats_note = describe(column), None
        except (TooFewObservationsError, ZeroVarianceError) as exc:
            stats, stats_note = None, str(exc)
        box = box_summary(column)
        _require_finite(name, _numbers(stats) + _numbers(box))
        comparison = comparison_note = None
        if groups is not None:
            (_, low), (_, high) = groups
            try:
                comparison = two_sample_t_equal_var(column[high], column[low])
            except (TooFewObservationsError, ZeroPooledVarianceError) as exc:
                comparison_note = str(exc)
            _require_finite(name, _numbers(comparison))
        variables.append(VariableReport(name, kind, stats, stats_note, box, comparison, comparison_note))

    return AnalysisReport(
        variables=tuple(variables),
        n=len(values),
        config_echo=_config_echo(config),
        timestamp=timestamp,
        group_variable=config.group_variable,
        groups=None if groups is None else tuple((g, len(rows)) for g, rows in groups),
    )


# json.dumps(indent=2) formats floats one by one in Python before 3.13, so each outlier
# list is dumped as a hole and spliced in from repr_rows (float.__repr__, as json writes).
# A string escapes '"', so only a box's key writes the '"' after "outliers" in an anchor
_HOLE = "<outliers>"
_ANCHOR = 'outliers": ' + json.dumps(_HOLE)


def _fields(o):
    """json.dumps's ``default``: a report record is written as its fields, in field order,
    a box with its two outlier counts and a hole for each outlier list."""
    if isinstance(o, BoxSummary):
        d = {**vars(o), "n_outliers": o.n_outliers, "n_extreme_outliers": o.n_extreme_outliers}
        return d | {"outliers": _HOLE, "extreme_outliers": _HOLE}
    if isinstance(o, (VariableReport, DescriptiveStats, GroupComparison)):
        return vars(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_lists(boxes):
    """Each box's outliers, then its extreme outliers, as bytes pieces of the list json.dumps(indent=2,
    allow_nan=False) writes.  Every list is formatted in one repr_rows pass, a value a line, and each
    list's text is the slice of that pass from its first line's offset to its last."""
    lists = [a for box in boxes for a in (box.outliers, box.extreme_outliers)]
    values = np.concatenate([np.empty(0), *lists])
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    text = memoryview(repr_rows(values[:, None], b" " * 10, b",\n").encode())
    line = np.concatenate(([0], np.flatnonzero(np.frombuffer(text, np.uint8) == 10) + 1))
    for i, j in pairwise(np.cumsum([0, *map(len, lists)])):
        # the list's last line loses its ",\n"
        yield [b"[\n", text[line[i] : line[j] - 2], b"\n        ]"] if i < j else [b"[]"]


# each CSV statistic column -> the (record, field) of the VariableReport it is read from
_CSV_STATS = {
    "mean": ("stats", "mean"),
    "sd": ("stats", "sd"),
    "skewness": ("stats", "skewness"),
    "kurtosis": ("stats", "excess_kurtosis"),
    "n_outliers": ("box", "n_outliers"),
    "n_extreme": ("box", "n_extreme_outliers"),
    "t": ("comparison", "t"),
    "df": ("comparison", "df"),
    "p": ("comparison", "p"),
    "r_squared": ("comparison", "r_squared"),
}
CSV_COLUMNS = ("variable", "n", *_CSV_STATS)
_NOT_UTF8 = re.compile("[\ud800-\udfff]")  # a lone surrogate, the one character UTF-8 cannot encode


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def emit_report(report: AnalysisReport, format: str = "json") -> bytes:
    """Serialize a report; identical reports give byte-identical output."""
    if format == "json":
        doc = {
            "metadata": {
                "n": report.n,
                "timestamp": report.timestamp,
                "group_variable": report.group_variable,
                "groups": report.groups or None,
                "t_convention": (
                    f"t compares mean({report.groups[1][0]}) - mean({report.groups[0][0]})"
                    if report.groups
                    else None
                ),
                "config": report.config_echo,
            },
            "variables": report.variables,
        }
        pieces = json.dumps(doc, indent=2, allow_nan=False, default=_fields).split(_ANCHOR)
        out = [pieces[0].encode("utf-8")]
        for items, piece in zip(_json_lists([v.box for v in report.variables]), pieces[1:], strict=True):
            out += (b'outliers": ', *items, piece.encode("utf-8"))
        return b"".join(out + [b"\n"])
    if format == "csv":
        rows = [CSV_COLUMNS]
        for v in report.variables:
            if _NOT_UTF8.search(v.name):
                raise CodaError(f"variable {v.name!r} holds a character that UTF-8 cannot carry")
            stats = (_cell(getattr(getattr(v, record), field, None)) for record, field in _CSV_STATS.values())
            rows.append([v.name, str(report.n), *stats])
        return "".join(",".join(_csv_fields(row)) + "\n" for row in rows).encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
