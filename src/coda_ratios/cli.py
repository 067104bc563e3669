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
import gc
import io
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from ._floattext import repr_blocks
from .boxplot_svg import emit_boxplot_svg
from .composition import ilr_matrix
from .dataset import load_config, load_dataset_csv, two_groups
from .errors import CodaError
from .ratios import table1_demo
from .report import emit_report, run_analysis

# ids that csv.writer may quote
_NEEDS_QUOTES = re.compile('[,"\r\n]')


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
    # the dataset goes straight in, so no per-firm data outlives the statistics
    report = run_analysis(load_dataset_csv(args.data, config), config, _timestamp_for(args.data))
    # both outputs are built before either file is opened, so an error writes neither
    text = emit_report(report, "csv" if args.out and args.out.endswith(".csv") else "json")
    svg = emit_boxplot_svg([(v.name, v.box) for v in report.variables]) if args.svg else None
    if not args.out:
        out = _stdout()
        out.flush()
        if hasattr(out, "buffer"):  # the encoded bytes, with no str copy of the report
            out.buffer.write(text)
        else:  # a text-only stream, such as io.StringIO
            out.write(text.decode("utf-8"))
    for path, data in ((args.out, text), (args.svg, svg)):
        if path:
            with open(path, "wb") as fh:
                fh.write(data)
    return 0


def _cmd_transform(args) -> int:
    config = load_config(args.config)
    ds = load_dataset_csv(args.data, config)
    coords = ilr_matrix(ds.values, ds.part_labels, config.tree)
    _write_table(["firm_id", *config.tree.coordinate_names], ds.firm_ids, coords)
    return 0


def _stdout():
    """``sys.stdout``; a CodaError when the program started with stdout closed."""
    if sys.stdout is None:
        raise CodaError("stdout is closed")
    return sys.stdout


def _write_table(header, firm_ids, table: np.ndarray) -> None:
    """Write ``header``, then each firm id followed by its row of ``table``, as csv.writer would."""
    csv.writer(_stdout(), lineterminator="\n").writerow(header)
    if _NEEDS_QUOTES.search("".join(firm_ids)):
        firm_ids = [_csv_field(f) if _NEEDS_QUOTES.search(f) else f for f in firm_ids]
    # one write per formatter block, which bounds the text held; repr(v) as csv.writer writes
    start = 0
    for block in repr_blocks(table, b",", b"\n"):
        rows = block.splitlines(keepends=True)
        pieces = [""] * (2 * len(rows))  # id, row, id, row, ...
        pieces[::2], pieces[1::2] = firm_ids[start : start + len(rows)], rows
        sys.stdout.write("".join(pieces))
        start += len(rows)


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it in a row, quoted or not."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text])
    return out.getvalue()[:-1]


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    ds = load_dataset_csv(args.data, config)
    # the group split is checked before anything is printed
    groups = None if config.group_variable is None else two_groups(ds, config.group_variable)
    out = _stdout()
    parts = ", ".join(ds.part_labels)
    print(f"OK: {ds.n} firm(s), {len(ds.part_labels)} part(s) ({parts})", file=out)
    if groups is not None:
        sizes = ", ".join(f"{value}: {int(mask.sum())}" for value, mask in groups)
        print(f"OK: group variable {config.group_variable!r} splits as {sizes}", file=out)
    return 0


def _cmd_demo(args) -> int:
    firm_ids, columns = table1_demo()
    _write_table(["firm", *columns], firm_ids, np.column_stack(list(columns.values())))
    return 0


def _file_key(path: str):
    """The file ``path`` names: its (device, inode) if it exists, so hard links match, else its real path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


_COMMANDS = {
    "analyze": _cmd_analyze,
    "transform": _cmd_transform,
    "validate": _cmd_validate,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    if argv is None:  # run as a program, not called in-process
        # exit-time collections skip the import heap; stdout is UTF-8 whatever the locale
        gc.freeze()
        if sys.stdout is not None:  # None when the program starts with stdout closed
            sys.stdout.reconfigure(encoding="utf-8")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        if args.out and not args.out.endswith((".json", ".csv")):
            parser.error("--out must end in .json or .csv")
        first = {}  # file -> the first flag naming it; an output may name no earlier file
        for flag in ("--data", "--config", "--out", "--svg"):
            path = getattr(args, flag[2:])
            earlier = path and first.setdefault(_file_key(path), flag)
            if earlier and earlier != flag and flag in ("--out", "--svg"):
                parser.error(f"{earlier} and {flag} must name different files")
    try:
        return _COMMANDS[args.command](args)
    except (CodaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
