"""Compositional (log-ratio) financial ratios for sector-level statistics.

The package replaces classic financial ratios (quotients of account
magnitudes) with isometric log-ratio coordinates of the magnitude
composition, so that swapping a numerator and denominator only flips a
sign instead of distorting every downstream statistic.
"""

from . import errors
from .boxplot_svg import emit_boxplot_svg
from .composition import contrast_matrix, ilr_inverse, ilr_matrix
from .dataset import (
    AnalysisConfig,
    FirmDataset,
    ZeroPolicy,
    apply_zero_policy,
    format_config,
    load_config,
    load_dataset_csv,
    parse_config,
    read_dataset_csv,
    split_by_group,
)
from .errors import CodaError
from .ratios import RatioSpec, invert_spec, ratio_column, table1_demo
from .report import AnalysisReport, VariableReport, emit_report, run_analysis
from .sbp import PartitionTree, format_sbp, parse_sbp, validate_tree
from .stats import (
    BoxSummary,
    DescriptiveStats,
    GroupComparison,
    box_summary,
    describe,
    dummy_regression_r2,
    excess_kurtosis,
    quantile_type7,
    skewness,
    two_sample_t_equal_var,
)
from .tdist import regularized_incomplete_beta, student_t_two_sided_p

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "BoxSummary",
    "CodaError",
    "DescriptiveStats",
    "FirmDataset",
    "GroupComparison",
    "PartitionTree",
    "RatioSpec",
    "VariableReport",
    "ZeroPolicy",
    "apply_zero_policy",
    "box_summary",
    "contrast_matrix",
    "describe",
    "dummy_regression_r2",
    "emit_boxplot_svg",
    "emit_report",
    "errors",
    "excess_kurtosis",
    "format_config",
    "format_sbp",
    "ilr_inverse",
    "ilr_matrix",
    "invert_spec",
    "load_config",
    "load_dataset_csv",
    "parse_config",
    "parse_sbp",
    "quantile_type7",
    "ratio_column",
    "read_dataset_csv",
    "regularized_incomplete_beta",
    "run_analysis",
    "skewness",
    "split_by_group",
    "student_t_two_sided_p",
    "table1_demo",
    "two_sample_t_equal_var",
    "validate_tree",
]
