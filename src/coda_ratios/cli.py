"""Command-line interface.

Subcommands
-----------
analyze    full pipeline: load, transform, describe, compare; JSON/CSV/SVG out
transform  print firm ilr coordinates as CSV
validate   check that a data file loads under a configuration
demo       built-in demonstrations (currently: table1)

Exit codes: 0 success, 1 validation or data failure, 2 usage error.

For reproducible reports the analyze timestamp is taken from the
SOURCE_DATE_EPOCH environment variable when set, otherwise from the data
file's modification time; identical inputs therefore produce identical
bytes.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from datetime import datetime, timezone

from .boxplot_svg import emit_boxplot_svg
from .dataset import ilr_coordinates, load_config, load_dataset_csv, two_groups
from .errors import CodaError
from .ratios import table1_demo
from .report import emit_report, run_analysis


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coda-ratios",
        description="Compositional (log-ratio) analysis of firm financial magnitudes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full analysis pipeline")
    p.add_argument("--data", required=True, help="firm-per-row CSV file")
    p.add_argument("--config", required=True, help="analysis configuration file")
    p.add_argument(
        "--out",
        help="report file; format chosen by extension (.json or .csv); stdout JSON if omitted",
    )
    p.add_argument("--svg", help="write box plots of all variables to this SVG file")

    p = sub.add_parser("transform", help="print ilr coordinates per firm as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)

    p = sub.add_parser("validate", help="check a data file against a configuration")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("what", choices=["table1"], help="which demonstration to print")

    return parser


def _timestamp_for(data_path: str) -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        ts = int(epoch) if epoch else int(os.stat(data_path).st_mtime)
        when = datetime.fromtimestamp(ts, tz=timezone.utc)
    except (ValueError, OverflowError):
        raise CodaError(
            f"SOURCE_DATE_EPOCH must be a whole number of seconds, got {epoch!r}"
        ) from None
    return when.strftime("%Y-%m-%dT%H:%M:%SZ")


def _cmd_analyze(args) -> int:
    config = load_config(args.config)
    ds = load_dataset_csv(args.data, config)
    report = run_analysis(ds, config, timestamp=_timestamp_for(args.data))
    if args.out:
        fmt = "json" if args.out.endswith(".json") else "csv"
        with open(args.out, "wb") as fh:
            fh.write(emit_report(report, fmt))
    else:
        sys.stdout.write(emit_report(report, "json").decode("utf-8"))
    if args.svg:
        with open(args.svg, "wb") as fh:
            fh.write(emit_boxplot_svg([(v.name, v.box) for v in report.variables]))
    return 0


def _cmd_transform(args) -> int:
    config = load_config(args.config)
    ds = load_dataset_csv(args.data, config)
    coords = ilr_coordinates(ds, config.tree)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["firm_id", *config.tree.coordinate_names])
    writer.writerows(
        [firm_id, *map(repr, row)] for firm_id, row in zip(ds.firm_ids, coords.tolist())
    )
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    ds = load_dataset_csv(args.data, config)
    parts = ", ".join(ds.part_labels)
    print(f"OK: {ds.n} firm(s), {len(ds.part_labels)} part(s) ({parts})")
    if config.group_variable is not None:
        groups = two_groups(ds, config.group_variable)
        sizes = ", ".join(f"{value}: {int(mask.sum())}" for value, mask in groups)
        print(f"OK: group variable {config.group_variable!r} splits as {sizes}")
    return 0


def _cmd_demo(args) -> int:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["firm", "mg1", "mg2", "alpha_deg", "ratio21", "ratio12", "ilr"])
    for row in table1_demo():
        writer.writerow(
            [
                row.firm.id,
                repr(row.firm.mg1),
                repr(row.firm.mg2),
                repr(row.alpha_deg),
                repr(row.ratio21),
                repr(row.ratio12),
                repr(row.ilr),
            ]
        )
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "transform": _cmd_transform,
    "validate": _cmd_validate,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and args.out and not args.out.endswith((".json", ".csv")):
        parser.error("--out must end in .json or .csv")
    try:
        return _COMMANDS[args.command](args)
    except (CodaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
