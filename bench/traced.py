"""Run the coda-ratios CLI in this process with per-layer timers installed.

Usage: python bench/traced.py TRACE_JSON CLI_ARG...

Wrappers are installed from here, not in the package: every module
attribute in ``SPANS`` and ``TIMERS`` is replaced wherever a ``coda_ratios``
module holds a reference to it, so calls that look the name up at call
time (``report.run_analysis`` calling ``eval_ratio``, ``box_summary``
calling ``quantile_type7``) reach the wrapper.  An attribute that no
longer exists is skipped and its layer reports zero calls.

A span keeps a stack frame so its self time excludes nested spans and
timers.  Per-firm and per-value functions get a bare timer instead: two
``perf_counter`` reads and a counter, no stack entry of their own, because
a full span around ``eval_ratio`` costs more than the work it measures.
A layer may have both (``composition.ilr``: the batch ``ilr_matrix`` and
the per-row ``ilr_transform``); its timer then adds time only when no
span of the same layer is open, so time nested in the span is not counted
twice, while every call is still counted.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

pc = time.perf_counter
PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")

# (layer name, module, attribute path)
SPANS = (
    ("cli.main", "coda_ratios.cli", "main"),
    ("dataset.config", "coda_ratios.dataset", "load_config"),
    ("dataset.read", "coda_ratios.dataset", "load_dataset_csv"),
    ("dataset.zero_policy", "coda_ratios.dataset", "apply_zero_policy"),
    ("dataset.matrix", "coda_ratios.dataset", "FirmDataset.matrix"),
    ("dataset.split", "coda_ratios.dataset", "split_by_group"),
    ("composition.ilr", "coda_ratios.composition", "ilr_matrix"),
    ("report.run_analysis", "coda_ratios.report", "run_analysis"),
    ("report.emit", "coda_ratios.report", "emit_report"),
    ("stats.describe", "coda_ratios.stats", "describe"),
    ("stats.box", "coda_ratios.stats", "box_summary"),
    ("stats.ttest", "coda_ratios.stats", "two_sample_t_equal_var"),
    ("boxplot_svg.emit", "coda_ratios.boxplot_svg", "emit_boxplot_svg"),
)
TIMERS = (
    ("ratios.eval", "coda_ratios.ratios", "eval_ratio"),
    ("stats.quantile", "coda_ratios.stats", "quantile_type7"),
    ("tdist.p", "coda_ratios.tdist", "student_t_two_sided_p"),
    # per-row ilr: zero calls unless the batch path falls back to it
    ("composition.ilr", "coda_ratios.composition", "ilr_transform"),
)


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # child time of each open span
        self.open: dict[str, list[int]] = {}  # open spans per layer
        self.layers: dict[str, dict[str, float]] = {}
        self.extra: dict[str, float] = {}

    def layer(self, name: str) -> dict[str, float]:
        return self.layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def depth(self, name: str) -> list[int]:
        return self.open.setdefault(name, [0])

    def span(self, name, fn, observe=None):
        stat = self.layer(name)
        stack = self.stack
        depth = self.depth(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                depth[0] -= 1
                stack.pop()
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def timer(self, name, fn):
        stat = self.layer(name)
        stack = self.stack
        depth = self.depth(name)

        def wrapper(*args, **kwargs):
            t0 = pc()
            result = fn(*args, **kwargs)
            dt = pc() - t0
            stat["calls"] += 1
            if not depth[0]:
                stat["total_s"] += dt
                stat["self_s"] += dt
            if stack:
                stack[-1][0] += dt
            return result

        return wrapper

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount


def _rss_mib() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", "rb") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * PAGE_SIZE / 2**20


def _count_rows(tracer, args, result):
    tracer.add("dataset.rows_read", len(args[0]))


def _count_firms(tracer, args, result):
    tracer.add("dataset.firms_kept", getattr(result, "n", 0))


def _count_bytes(key):
    def observe(tracer, args, result):
        tracer.add(key, len(result))

    return observe


OBSERVERS = {
    "dataset.zero_policy": _count_rows,
    "dataset.read": _count_firms,
    "report.emit": _count_bytes("report.bytes"),
    "boxplot_svg.emit": _count_bytes("boxplot_svg.bytes"),
}


def _with_load_rss(tracer, fn):
    def wrapper(*args, **kwargs):
        before = _rss_mib()
        result = fn(*args, **kwargs)
        tracer.add("dataset.load_rss_mib", _rss_mib() - before)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    for kind, table in (("span", SPANS), ("timer", TIMERS)):
        for name, module_name, path in table:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if kind == "timer":
                wrapped = tracer.timer(name, original)
            else:
                wrapped = tracer.span(name, original, OBSERVERS.get(name))
                if name == "dataset.read":
                    wrapped = _with_load_rss(tracer, wrapped)
            if owner_path:  # a method: patch the class
                setattr(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name != "coda_ratios" and not mod_name.startswith("coda_ratios."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    t0 = pc()
    import coda_ratios.cli

    import_s = pc() - t0
    tracer = Tracer()
    install(tracer)
    try:
        code = coda_ratios.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "layers": tracer.layers, "extra": tracer.extra}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
