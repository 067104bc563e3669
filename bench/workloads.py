"""Workload definitions and seeded synthetic sector inputs.

Every input is generated here from the seed: lognormal firm magnitudes
around a per-firm size, a two-valued ``brand`` column, and zero cells
planted at a fixed share of rows.  Values are rounded to cents, as in
published accounts, and written with ``repr`` so the CSV round-trips to
exactly the floats the checks compute from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

DELTA_FRACTION = 0.65


def balanced_tree(labels):
    """Sequential binary partition splitting each group in halves."""
    if len(labels) == 1:
        return labels[0]
    mid = len(labels) // 2
    return (balanced_tree(labels[:mid]), balanced_tree(labels[mid:]))


def sbp_text(tree) -> str:
    if isinstance(tree, str):
        return tree
    return f"({sbp_text(tree[0])}|{sbp_text(tree[1])})"


def leaves(tree):
    if isinstance(tree, str):
        return (tree,)
    return leaves(tree[0]) + leaves(tree[1])


def internal_nodes(tree):
    """(numerator leaves, denominator leaves) per internal node, pre-order."""
    if isinstance(tree, str):
        return []
    return [(leaves(tree[0]), leaves(tree[1]))] + internal_nodes(tree[0]) + internal_nodes(tree[1])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    tree: object  # nested pairs of part labels
    ratios: tuple  # (name, numerator parts, denominator parts)
    group: bool
    zero_mode: str
    zero_row_frac: float
    command: str  # analyze | transform
    report: str | None  # report file name for analyze
    svg: bool

    @property
    def parts(self) -> tuple[str, ...]:
        return leaves(self.tree)

    def argv(self) -> list[str]:
        """CLI arguments, relative to the work directory."""
        args = [self.command, "--data", "firms.csv", "--config", "analysis.ini"]
        if self.report:
            args += ["--out", self.report]
        if self.svg:
            args += ["--svg", "boxes.svg"]
        return args

    def output_files(self) -> list[str]:
        if self.command == "transform":
            return ["stdout.txt"]
        return [self.report] + (["boxes.svg"] if self.svg else [])

    def config_text(self) -> str:
        lines = ["[analysis]", f"parts = {', '.join(self.parts)}", f"sbp = {sbp_text(self.tree)}"]
        if self.group:
            lines.append("group_variable = brand")
        lines.append("[ratios]")
        lines += [f"{name} = {' + '.join(num)} / {' + '.join(den)}" for name, num, den in self.ratios]
        lines += ["[zeros]", f"mode = {self.zero_mode}", f"delta_fraction = {DELTA_FRACTION!r}"]
        return "\n".join(lines) + "\n"


_SECTOR_TREE = (("CA", "NCA"), (("CL", "NCL"), "SA"))
_SECTOR_RATIOS = (
    ("current", ("CA",), ("CL",)),
    ("solvency", ("CA", "NCA"), ("CL", "NCL")),
    ("turnover", ("SA",), ("CA", "NCA")),
)
_WIDE_LABELS = tuple(f"A{i:02d}" for i in range(1, 49))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sector-analyze",
            why="north-star analyze to JSON+SVG on a large D=5 sector; per-firm load, ratios and report copies dominate",
            n=50_000,
            tree=_SECTOR_TREE,
            ratios=_SECTOR_RATIOS,
            group=True,
            zero_mode="replace",
            zero_row_frac=0.01,
            command="analyze",
            report="report.json",
            svg=True,
        ),
        # Not listed in BENCHMARK.json: on a shared host two workloads of 60 s
        # give steadier figures than three of 40 s.  Run it with --workload.
        Workload(
            name="wide-panel",
            why="D=48 balanced tree, ~100 variables to CSV+SVG; per-variable stats, t-tests and emit work dominate",
            n=10_000,
            tree=balanced_tree(_WIDE_LABELS),
            ratios=(
                ("w1", ("A01",), ("A02",)),
                ("w2", ("A01", "A02", "A03"), ("A04", "A05")),
                ("w3", ("A10",), ("A20", "A30")),
                ("w4", ("A40", "A41"), ("A47", "A48")),
            ),
            group=True,
            zero_mode="reject",
            zero_row_frac=0.0,
            command="analyze",
            report="report.csv",
            svg=True,
        ),
        Workload(
            name="transform-export",
            why="per-firm ilr CSV with drop_row zeros; bypasses ratios, stats and report, so those layers predict no change",
            n=50_000,
            tree=_SECTOR_TREE,
            ratios=_SECTOR_RATIOS,
            group=False,
            zero_mode="drop_row",
            zero_row_frac=0.05,
            command="transform",
            report=None,
            svg=False,
        ),
    )
}

SMOKE_SIZES = {"sector-analyze": 400, "wide-panel": 120, "transform-export": 400}


def smoke(w: Workload) -> Workload:
    return replace(w, n=SMOKE_SIZES[w.name])


@dataclass
class Inputs:
    """One workload's generated data, exactly as written to firms.csv."""

    workload: Workload
    seed: int
    firm_ids: list[str]
    X: np.ndarray  # (n, D) magnitudes in workload.parts order, zeros included
    brand_yes: np.ndarray  # (n,) bool


def generate(w: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, len(w.parts), w.n])
    d = len(w.parts)
    size = rng.normal(11.0, 1.2, w.n)
    offsets = rng.normal(0.0, 0.8, d)
    logs = size[:, None] + offsets[None, :] + rng.normal(0.0, 0.6, (w.n, d))
    brand_yes = rng.random(w.n) < 0.4
    logs[brand_yes, 0] += 0.05  # a small real group effect on the first part
    X = np.maximum(np.round(np.exp(logs), 2), 0.01)
    k = int(round(w.zero_row_frac * w.n))
    if k:
        rows = rng.choice(w.n, size=k, replace=False)
        X[rows, rng.integers(0, d, size=k)] = 0.0
    firm_ids = [f"f{i:07d}" for i in range(w.n)]
    return Inputs(workload=w, seed=seed, firm_ids=firm_ids, X=X, brand_yes=brand_yes)


def write_inputs(inputs: Inputs, workdir: Path) -> None:
    w = inputs.workload
    lines = [",".join(["firm_id", *w.parts, "brand"])]
    for fid, row, yes in zip(inputs.firm_ids, inputs.X.tolist(), inputs.brand_yes.tolist()):
        lines.append(f"{fid},{','.join(map(repr, row))},{'yes' if yes else 'no'}")
    (workdir / "firms.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (workdir / "analysis.ini").write_text(w.config_text(), encoding="utf-8")
