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

from .dataset import AnalysisConfig, FirmDataset, ilr_coordinates, split_by_group
from .errors import (
    SingleGroupError,
    TooFewObservationsError,
    ZeroPooledVarianceError,
    ZeroVarianceError,
)
from .ratios import invert_spec
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
    groups_meta = None
    mask_high = None
    if config.group_variable is not None:
        split = split_by_group(ds, config.group_variable)
        if len(split) != 2:
            raise SingleGroupError(len(split))
        group_low, group_high = sorted(split)
        mask_high = split[group_high]
        groups_meta = (
            (group_low, int((~mask_high).sum())),
            (group_high, int(mask_high.sum())),
        )

    def part_sum(labels):
        # summed left to right from 0 like eval_ratio, so every entry
        # equals eval_ratio on that firm bit for bit
        return sum(ds.values[:, ds.part_labels.index(label)] for label in labels)

    columns: list[tuple[str, str, np.ndarray]] = []
    for j, name in enumerate(tree.coordinate_names):
        y = Y[:, j]
        # the permuted balance is the exact negation: swapping the node's
        # numerator and denominator groups flips only the sign
        columns.append((name, "balance", y))
        columns.append((name + "p", "balance_permuted", -y))
    for spec in config.standard_ratios:
        num, den = part_sum(spec.numerator), part_sum(spec.denominator)
        columns.append((spec.display_name, "ratio", num / den))
        columns.append((invert_spec(spec).display_name, "ratio_permuted", den / num))

    variables = []
    for name, kind, values in columns:
        values.setflags(write=False)
        stats, stats_note = _describe_or_note(values)
        box = box_summary(values)
        comparison = comparison_note = None
        if mask_high is not None:
            try:
                comparison = two_sample_t_equal_var(values[mask_high], values[~mask_high])
            except (TooFewObservationsError, ZeroPooledVarianceError) as exc:
                comparison_note = str(exc)
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
        groups=groups_meta,
    )


def _stats_dict(s: DescriptiveStats | None):
    if s is None:
        return None
    return {
        "n": s.n,
        "mean": s.mean,
        "sd": s.sd,
        "skewness": s.skewness,
        "excess_kurtosis": s.excess_kurtosis,
    }


def _box_dict(b: BoxSummary):
    return {
        "q1": b.q1,
        "median": b.median,
        "q3": b.q3,
        "iqr": b.iqr,
        "inner_fences": list(b.inner_fences),
        "outer_fences": list(b.outer_fences),
        "whiskers": list(b.whiskers),
        "outliers": list(b.outliers),
        "extreme_outliers": list(b.extreme_outliers),
        "n_outliers": b.n_outliers,
        "n_extreme_outliers": b.n_extreme_outliers,
    }


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
                    "stats": _stats_dict(v.stats),
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
