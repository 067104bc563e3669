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

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .dataset import AnalysisConfig, FirmDataset, ilr_coordinates, two_groups
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
    """One analyzed variable: its per-firm values (read-only) and statistics."""

    name: str
    kind: str  # balance | balance_permuted | ratio | ratio_permuted
    values: np.ndarray
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
    return {
        "parts": list(config.parts),
        "sbp": config.sbp,
        "ratios": [
            {
                "name": spec.display_name,
                "numerator": list(spec.numerator),
                "denominator": list(spec.denominator),
            }
            for spec in config.standard_ratios
        ],
        "group_variable": config.group_variable,
        "zero_policy": {
            "mode": config.zero_policy.mode,
            "delta_fraction": config.zero_policy.delta_fraction,
        },
    }


def _describe_or_note(values):
    try:
        return describe(values), None
    except (TooFewObservationsError, ZeroVarianceError) as exc:
        return None, str(exc)


def _numbers(result) -> list:
    """Every number a describe, box or comparison result holds; [] for None."""
    fields = () if result is None else vars(result).values()
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
    tree = config.tree
    Y = ilr_coordinates(ds, tree)

    # groups fixed once: ascending group values; t compares high vs low
    groups = None
    if config.group_variable is not None:
        groups = two_groups(ds, config.group_variable)

    columns: list[tuple[str, str, np.ndarray]] = []
    for j, name in enumerate(tree.coordinate_names):
        y = Y[:, j]
        # the permuted balance is the exact negation: swapping the node's
        # numerator and denominator groups flips only the sign
        columns.append((name, "balance", y))
        columns.append((name + "p", "balance_permuted", -y))
    for spec in config.standard_ratios:
        for s, kind in ((spec, "ratio"), (invert_spec(spec), "ratio_permuted")):
            columns.append((s.display_name, kind, ratio_column(ds.values, ds.part_labels, s)))

    variables = []
    for name, kind, values in columns:
        values.setflags(write=False)
        _require_finite(name, values)
        stats, stats_note = _describe_or_note(values)
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
        variables.append(
            VariableReport(
                name=name,
                kind=kind,
                values=values,
                stats=stats,
                stats_note=stats_note,
                box=box,
                comparison=comparison,
                comparison_note=comparison_note,
            )
        )

    return AnalysisReport(
        variables=tuple(variables),
        n=ds.n,
        config_echo=_config_echo(config),
        timestamp=timestamp,
        group_variable=config.group_variable,
        groups=None if groups is None else tuple((g, int(mask.sum())) for g, mask in groups),
    )


def _box_dict(b: BoxSummary):
    # the JSON keys are the field names in field order; vars() is shallow,
    # where dataclasses.asdict would copy every outlier tuple
    return {**vars(b), "n_outliers": b.n_outliers, "n_extreme_outliers": b.n_extreme_outliers}


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


CSV_COLUMNS = (
    "variable",
    "n",
    "mean",
    "sd",
    "skewness",
    "kurtosis",
    "n_outliers",
    "n_extreme",
    "t",
    "df",
    "p",
    "r_squared",
)


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
                "groups": [list(g) for g in report.groups] if report.groups else None,
                "t_convention": (
                    f"t compares mean({report.groups[1][0]}) - mean({report.groups[0][0]})"
                    if report.groups
                    else None
                ),
                "config": report.config_echo,
            },
            "variables": [
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
            ],
        }
        return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for v in report.variables:
            s, c = v.stats, v.comparison
            writer.writerow(
                [
                    v.name,
                    str(report.n),
                    _cell(s.mean if s else None),
                    _cell(s.sd if s else None),
                    _cell(s.skewness if s else None),
                    _cell(s.excess_kurtosis if s else None),
                    str(v.box.n_outliers),
                    str(v.box.n_extreme_outliers),
                    _cell(c.t_value if c else None),
                    _cell(c.df if c else None),
                    _cell(c.p_value if c else None),
                    _cell(c.r_squared if c else None),
                ]
            )
        return out.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
