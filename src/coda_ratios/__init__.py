"""Compositional (log-ratio) financial ratios for sector-level statistics.

The package replaces classic financial ratios (quotients of account
magnitudes) with isometric log-ratio coordinates of the magnitude
composition, so that swapping a numerator and denominator only flips a
sign instead of distorting every downstream statistic.

Each public name is imported from its submodule on first use (PEP 562), so
a command loads only the modules it runs.
"""

import importlib

from . import errors  # every submodule imports it

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    name: module
    for module, names in (
        ("boxplot_svg", "emit_boxplot_svg"),
        ("composition", "contrast_matrix ilr_inverse ilr_matrix"),
        (
            "dataset",
            "AnalysisConfig FirmDataset ZeroPolicy apply_zero_policy load_config"
            " load_dataset_csv parse_config read_dataset_csv two_groups",
        ),
        ("errors", "CodaError"),
        ("ratios", "RatioSpec invert_spec ratio_column table1_demo"),
        ("report", "AnalysisReport VariableReport emit_report run_analysis"),
        ("sbp", "PartitionTree format_sbp parse_sbp validate_tree"),
        (
            "stats",
            "BoxSummary DescriptiveStats GroupComparison box_summary describe"
            " two_sample_t_equal_var",
        ),
        ("tdist", "student_t_two_sided_p"),
    )
    for name in names.split()
}

__all__ = sorted([*_SOURCES, "errors"])


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
