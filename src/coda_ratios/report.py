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
from dataclasses import dataclass

import numpy as np

from ._floattext import repr_rows
from .composition import ilr_matrix
from .dataset import AnalysisConfig, FirmDataset, _csv_field, two_groups
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


# overflow is reported by _require_finite as an error, not as a warning
@np.errstate(over="ignore", invalid="ignore")
def run_analysis(
    ds: FirmDataset, config: AnalysisConfig, timestamp: str | None = None
) -> AnalysisReport:
    """Run the whole pipeline on a loaded dataset.

    ``timestamp`` is echoed into the report metadata verbatim; pass None
    for a timestamp-free (fully input-determined) report.
    """
    Y = ilr_matrix(ds.values, ds.part_labels, config.tree)

    # groups fixed once, low value first, as row indices: same order as the mask, but faster
    groups = None
    if config.group_variable is not None:
        groups = [(g, np.flatnonzero(mask)) for g, mask in two_groups(ds)]

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
                yield kind, ratio_column(ds.values, ds.part_labels, s)

    variables = []
    for name, (kind, values) in zip(config.variable_names, columns(), strict=True):
        _require_finite(name, values)  # and so every outlier, an element of values
        try:
            stats, stats_note = describe(values), None
        except (TooFewObservationsError, ZeroVarianceError) as exc:
            stats, stats_note = None, str(exc)
        box = box_summary(values)
        _require_finite(name, _numbers(stats) + _numbers(box))
        comparison = comparison_note = None
        if groups is not None:
            (_, low), (_, high) = groups
            try:
                comparison = two_sample_t_equal_var(values[high], values[low])
            except (TooFewObservationsError, ZeroPooledVarianceError) as exc:
                comparison_note = str(exc)
            _require_finite(name, _numbers(comparison))
        variables.append(VariableReport(name, kind, stats, stats_note, box, comparison, comparison_note))

    return AnalysisReport(
        variables=tuple(variables),
        n=ds.n,
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


def _box_dict(b: BoxSummary):
    # the JSON keys are the field names in field order
    d = {**vars(b), "n_outliers": b.n_outliers, "n_extreme_outliers": b.n_extreme_outliers}
    return d | {"outliers": _HOLE, "extreme_outliers": _HOLE}


def _json_list(values: np.ndarray) -> str:
    """``values`` as json.dumps(indent=2, allow_nan=False) writes a list that is a box field."""
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    items = repr_rows(values[:, None], b" " * 10, b",\n")[:-2]
    return f"[\n{items}\n        ]" if values.size else "[]"


def _comparison_dict(c: GroupComparison | None):
    if c is None:
        return None
    return {
        "t": c.t_value,
        "df": c.df,
        "p": c.p_value,
        "r_squared": c.r_squared,
        "group_means": list(c.group_means),
    }


# each CSV statistic column -> the (section, key) of the JSON entry it is read from
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


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def emit_report(report: AnalysisReport, format: str = "json") -> bytes:
    """Serialize a report; identical reports give byte-identical output."""
    entries = [
        {
            "name": v.name,
            "kind": v.kind,
            "stats": None if v.stats is None else vars(v.stats),
            "stats_note": v.stats_note,
            "box": _box_dict(v.box),
            "comparison": _comparison_dict(v.comparison),
            "comparison_note": v.comparison_note,
        }
        for v in report.variables
    ]
    if format == "json":
        doc = {
            "metadata": {
                "n": report.n,
                "timestamp": report.timestamp,
                "group_variable": report.group_variable,
                "groups": [list(g) for g in report.groups] if report.groups else None,
                "t_convention": (
                    f"t compares mean({report.groups[1][0]}) - mean({report.groups[0][0]})"
                    if report.groups
                    else None
                ),
                "config": report.config_echo,
            },
            "variables": entries,
        }
        lists = [x for v in report.variables for x in (v.box.outliers, v.box.extreme_outliers)]
        pieces = json.dumps(doc, indent=2, allow_nan=False).split(_ANCHOR)
        assert len(pieces) == len(lists) + 1  # two holes per variable
        out = [pieces[0]]
        for values, piece in zip(lists, pieces[1:]):
            out += ('outliers": ', _json_list(values), piece)
        return ("".join(out) + "\n").encode("utf-8")
    if format == "csv":
        rows = [CSV_COLUMNS]
        for e in entries:
            stats = (_cell(e[section] and e[section][key]) for section, key in _CSV_STATS.values())
            rows.append([e["name"], str(report.n), *stats])
        return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows).encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
