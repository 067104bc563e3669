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
import gc
import os
import stat
import sys
from datetime import datetime, timezone
from itertools import chain, count

import numpy as np

from . import _floattext
from .composition import ilr_matrix
from .dataset import _NEEDS_QUOTES, _csv_field, load_config, load_dataset_csv, two_groups
from .errors import CodaError


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
        ts = int(epoch) if epoch else os.stat(data_path).st_mtime_ns // 10**9  # floor, also before 1970
    except ValueError:
        raise CodaError(f"SOURCE_DATE_EPOCH must be a whole number of seconds, got {epoch!r}") from None
    try:
        when = datetime.fromtimestamp(ts, tz=timezone.utc)
    except (ValueError, OverflowError, OSError):  # past the years datetime or time_t can hold
        source = f"SOURCE_DATE_EPOCH is out of range, got {epoch!r}"
        raise CodaError(source if epoch else f"the modification time of {data_path} is out of range") from None
    return f"{when.year:04}-{when:%m-%dT%H:%M:%SZ}"  # %Y does not pad years before 1000


def _cmd_analyze(args) -> int:
    # the analysis modules load here, so the other commands never import them
    from .boxplot_svg import emit_boxplot_svg
    from .report import emit_report, run_analysis

    config = load_config(args.config)
    # the dataset goes straight in, so no per-firm data outlives the statistics
    report = run_analysis(load_dataset_csv(args.data, config), config, _timestamp_for(args.data))
    # both outputs are built before either file is opened, so an error writes neither
    text = emit_report(report, "csv" if args.out and args.out.endswith(".csv") else "json")
    svg = emit_boxplot_svg([(v.name, v.box) for v in report.variables]) if args.svg else None
    staged = []  # (temporary file, output): no output is replaced until every one is written
    in_place = []  # outputs that are not regular files, such as /dev/null or a pipe
    try:
        for path, data in ((args.out, text), (args.svg, svg)):
            if path and not _regular_or_missing(path):
                in_place.append((path, data))
            elif path:
                with _open_beside(path) as fh:
                    staged.append((fh.name, path))
                    fh.write(data)
        for path, data in in_place:
            with open(path, "wb") as fh:
                fh.write(data)
        if not args.out:
            out = _stdout()
            out.flush()
            if hasattr(out, "buffer"):  # the encoded bytes, with no str copy of the report
                out.buffer.write(text)
            else:  # a text-only stream, such as io.StringIO
                out.write(text.decode("utf-8"))
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)
    return 0


def _regular_or_missing(path: str) -> bool:
    """Whether ``path`` names a regular file or nothing, which an output may replace."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True


def _open_beside(path: str):
    """A new file beside ``path``, open for writing, to replace it; an OSError names ``path``.

    The name is ``<path>.<pid>.tmp``, or, when a file of that name is left from an earlier
    run whose pid came back, ``<path>.<pid>.<k>.tmp`` for the first k that is free.
    """
    for k in count():
        name = f"{path}.{os.getpid()}{f'.{k}' if k else ''}.tmp"
        try:
            return open(name, "xb")  # "x": no file but its own; the umask applies
        except FileExistsError:
            continue
        except OSError as exc:
            exc.filename = path
            raise


def _cmd_transform(args) -> int:
    config = load_config(args.config)
    ds = load_dataset_csv(args.data, config)
    names = config.tree.coordinate_names
    # the rows of one formatter pass, and of one ilr block, at a time: no whole coordinate matrix
    step = _floattext.block_rows(len(names))
    blocks = (ilr_matrix(ds.values[i : i + step], ds.part_labels, config.tree) for i in range(0, ds.n, step))
    _write_table(["firm_id", *names], ds.firm_ids, blocks)
    return 0


def _stdout():
    """``sys.stdout``; a CodaError when the program started with stdout closed."""
    if sys.stdout is None:
        raise CodaError("stdout is closed")
    return sys.stdout


def _write_table(header, firm_ids, tables) -> None:
    """Write ``header``, then each firm id and its row; a field holding ',', '"', CR or LF is quoted.

    ``tables`` is an iterable of 2-D float64 arrays whose rows, in turn, are the firms' rows.
    """
    out = _stdout()
    out.write(",".join(map(_csv_field, header)) + "\n")
    # one write per formatter block, which bounds the text held
    start = 0
    for block in chain.from_iterable(_floattext.repr_blocks(t, b",", b"\n") for t in tables):
        rows = block.splitlines(keepends=True)
        ids = firm_ids[start : start + len(rows)]
        if _NEEDS_QUOTES.search("".join(ids)):  # one search per block keeps plain ids on the fast path
            ids = list(map(_csv_field, ids))
        pieces = [""] * (2 * len(rows))  # id, row, id, row, ...
        pieces[::2], pieces[1::2] = ids, rows
        out.write("".join(pieces))
        start += len(rows)


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    ds = load_dataset_csv(args.data, config)
    # the group split is checked before anything is printed
    groups = None if config.group_variable is None else two_groups(ds)
    out = _stdout()
    parts = ", ".join(ds.part_labels)
    print(f"OK: {ds.n} firm(s), {len(ds.part_labels)} part(s) ({parts})", file=out)
    if groups is not None:
        sizes = ", ".join(f"{value}: {int(mask.sum())}" for value, mask in groups)
        print(f"OK: group variable {config.group_variable!r} splits as {sizes}", file=out)
    return 0


def _cmd_demo(args) -> int:
    from .ratios import table1_demo

    firm_ids, columns = table1_demo()
    _write_table(["firm", *columns], firm_ids, [np.column_stack(list(columns.values()))])
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
