"""Compositional (log-ratio) financial ratios for sector-level statistics.

The package replaces classic financial ratios (quotients of account
magnitudes) with isometric log-ratio coordinates of the magnitude
composition, so that swapping a numerator and denominator only flips a
sign instead of distorting every downstream statistic.
"""

from . import errors
from .boxplot_svg import emit_boxplot_svg
from .composition import (
    BalanceVector,
    Composition,
    aitchison_distance,
    balance,
    clr_transform,
    contrast_matrix,
    ilr_inverse,
    ilr_matrix,
    ilr_transform,
    pairwise_logratio,
    validate_composition,
)
from .dataset import (
    AnalysisConfig,
    FirmDataset,
    ZeroPolicy,
    apply_zero_policy,
    format_config,
    ilr_coordinates,
    load_config,
    load_dataset_csv,
    parse_config,
    read_dataset_csv,
    split_by_group,
)
from .errors import CodaError
from .ratios import (
    DemoFirm,
    DemoRow,
    RatioSpec,
    eval_ratio,
    invert_spec,
    ray_angle_degrees,
    table1_demo,
)
from .report import AnalysisReport, VariableReport, emit_report, run_analysis
from .sbp import PartitionNode, PartitionTree, format_sbp, parse_sbp, validate_tree
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
    "BalanceVector",
    "BoxSummary",
    "CodaError",
    "Composition",
    "DemoFirm",
    "DemoRow",
    "DescriptiveStats",
    "FirmDataset",
    "GroupComparison",
    "PartitionNode",
    "PartitionTree",
    "RatioSpec",
    "VariableReport",
    "ZeroPolicy",
    "aitchison_distance",
    "apply_zero_policy",
    "balance",
    "box_summary",
    "clr_transform",
    "contrast_matrix",
    "describe",
    "dummy_regression_r2",
    "emit_boxplot_svg",
    "emit_report",
    "errors",
    "eval_ratio",
    "excess_kurtosis",
    "format_config",
    "format_sbp",
    "ilr_coordinates",
    "ilr_inverse",
    "ilr_matrix",
    "ilr_transform",
    "invert_spec",
    "load_config",
    "load_dataset_csv",
    "pairwise_logratio",
    "parse_config",
    "parse_sbp",
    "quantile_type7",
    "ray_angle_degrees",
    "read_dataset_csv",
    "regularized_incomplete_beta",
    "run_analysis",
    "skewness",
    "split_by_group",
    "student_t_two_sided_p",
    "table1_demo",
    "two_sample_t_equal_var",
    "validate_composition",
    "validate_tree",
]
