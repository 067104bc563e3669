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
bytes.  Every command hands stdout UTF-8 bytes through one writer,
``_write``, whatever the locale or the stream's encoding, in-process too.
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
from .dataset import _csv_fields, _past_zero_policy, _read_csv, _two_groups, load_config
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
    from .report import _analyze, emit_report

    # the statistics' arguments live for the call alone, so no value is held while the outputs are built
    report = _analyze(*_analysis_input(args), _timestamp_for(args.data))
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
            _write(text)
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)
    return 0


def _load(args):
    """``(config, firm_ids, values, group)`` from the load stages in turn, with no dataset:
    the configuration, the data's read, then the rows the zero policy keeps."""
    config = load_config(args.config)
    return config, *_past_zero_policy(*_read_csv(args.data, config), config)


def _analysis_input(args):
    """``report._analyze``'s values, part labels, group rows and config: no firm id or group cell."""
    config, _, values, group = _load(args)
    return values, config.parts, None if group is None else _two_groups(group), config


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
    config, firm_ids, values, _ = _load(args)
    names = config.tree.coordinate_names
    # the rows of one formatter pass, and of one ilr block, at a time: no whole coordinate matrix
    step = _floattext.block_rows(len(names))
    blocks = (ilr_matrix(values[i : i + step], config.parts, config.tree) for i in range(0, len(values), step))
    _write_table(["firm_id", *names], firm_ids, blocks)
    return 0


def _write(data: bytes) -> None:
    """Write the UTF-8 bytes ``data`` to stdout whatever its encoding; a CodaError if stdout is closed."""
    if sys.stdout is None:
        raise CodaError("stdout is closed")
    if hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # what the text layer holds goes first
        sys.stdout.buffer.write(data)
    else:  # a text-only stream, such as io.StringIO
        sys.stdout.write(data.decode("utf-8"))


def _write_table(header, firm_ids, tables) -> None:
    """Hand ``_write`` the UTF-8 CSV of ``header``, then of each firm id and its row.

    ``firm_ids`` is a sequence of ``str``, or an ``S`` array of the ASCII ids of a plain file, where
    no field holds ',', '"', CR or LF, written as they are.  ``tables`` is an iterable of 2-D float64
    arrays whose rows, in turn, are the firms' rows.
    """
    _write((",".join(_csv_fields(header)) + "\n").encode("utf-8"))
    # one write per formatter block, which bounds the text held
    start = 0
    for block in chain.from_iterable(_floattext.repr_blocks(t, b",", b"\n") for t in tables):
        rows = block.splitlines(keepends=True)
        ids = firm_ids[start : start + len(rows)]
        ascii_ids = isinstance(ids, np.ndarray) and ids.dtype.kind == "S"
        pieces = [b""] * (2 * len(rows))  # id, row, id, row, ...
        pieces[::2] = ids.tolist() if ascii_ids else [field.encode("utf-8") for field in _csv_fields(ids)]
        pieces[1::2] = rows
        _write(b"".join(pieces))
        start += len(rows)


def _cmd_validate(args) -> int:
    config, _, values, group = _load(args)
    # the group split is checked before anything is written
    groups = None if group is None else _two_groups(group)
    text = f"OK: {len(values)} firm(s), {len(config.parts)} part(s) ({', '.join(config.parts)})\n"
    if groups is not None:
        # a value that would not print as one piece of the line (a newline, say) is written as its repr
        sizes = ", ".join(f"{v if v.isprintable() else repr(v)}: {len(rows)}" for v, rows in groups)
        text += f"OK: group variable {config.group_variable!r} splits as {sizes}\n"
    _write(text.encode("utf-8"))
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
        gc.freeze()  # exit-time collections skip the import heap
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
