"""End-to-end acceptance checks.

Each test covers one published claim of the toolkit, prints a single
PASS/FAIL line for audit logs, and fails loudly on any miss.  Tolerances
are part of the contract and are stated inline.
"""

import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coda_ratios import (
    AnalysisConfig,
    FirmDataset,
    box_summary,
    contrast_matrix,
    describe,
    emit_boxplot_svg,
    emit_report,
    ilr_inverse,
    ilr_matrix,
    load_config,
    load_dataset_csv,
    parse_sbp,
    run_analysis,
    table1_demo,
)
from coda_ratios.cli import main
from coda_ratios.tdist import student_t_two_sided_p

from conftest import random_composition, random_tree_text


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


PRINTED_ALPHAS = [82.875, 63.435, 59.035, 59.035, 45.0, 45.0, 30.965, 30.965, 26.565, 7.125]
RATIO21 = [8.0, 2.0, 5.0 / 3.0, 5.0 / 3.0, 1.0, 1.0, 0.6, 0.6, 0.5, 0.125]


def test_criterion_01_demo_table_reproduction(capsys):
    start = time.perf_counter()
    firm_ids, table = table1_demo()
    assert main(["demo", "table1"]) == 0
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.strip().split("\n")[1:]

    ok = len(firm_ids) == 10 and len(lines) == 10
    for i, (line, alpha, r21) in enumerate(zip(lines, PRINTED_ALPHAS, RATIO21)):
        cells = line.split(",")
        ok = ok and abs(table["ratio21"][i] - r21) <= 1e-9
        ok = ok and abs(table["ratio12"][i] - 1.0 / r21) <= 1e-9
        ok = ok and abs(table["alpha_deg"][i] - alpha) <= 0.01
        ok = ok and abs(float(cells[3]) - alpha) <= 0.01
        ok = ok and abs(float(cells[4]) - r21) <= 1e-9
    ok = ok and elapsed < 1.0
    _verdict(1, ok, f"10 demo rows, ratios to 1e-9, angles to 0.01 deg, {elapsed:.3f}s")


def test_criterion_02_ratio_distance_distortion():
    _, table = table1_demo()
    r = table["ratio21"].tolist()
    pts = list(zip(table["mg1"].tolist(), table["mg2"].tolist()))

    def dist(p, q):
        return math.hypot(p[0] - q[0], p[1] - q[1])

    gap_12 = abs(r[0] - r[1])
    gap_2_10 = abs(r[1] - r[9])
    d_12 = dist(pts[0], pts[1])
    d_2_10 = dist(pts[1], pts[9])
    ok = (
        abs(gap_12 - 6.0) <= 1e-12
        and abs(gap_2_10 - 1.875) <= 1e-12
        and abs(d_12 - math.sqrt(2.0)) <= 1e-9
        and abs(d_2_10 - 2.5 * math.sqrt(2.0)) <= 1e-9
        and gap_12 > gap_2_10
        and d_12 < d_2_10
    )
    ok = ok and describe(r).skewness > 0.0
    ok = ok and describe(table["ratio12"]).skewness > 0.0
    ok = ok and abs(describe(table["ilr"]).skewness) <= 1e-12
    _verdict(2, ok, "ratio gaps 6 vs 1.875 against point gaps 1.414 vs 3.536; skew signs")


def test_criterion_03_linear_combination_identity():
    labels = ("TA", "NCL", "CL")
    X = random_composition(np.random.default_rng(2024), labels, 1000)
    y1, y2 = ilr_matrix(X, labels, parse_sbp("(TA|(NCL|CL))")).T
    combined = math.sqrt(0.5) * (math.sqrt(1.5) * y1 - math.sqrt(0.5) * y2)
    # the pairwise balance of TA against NCL: the one coordinate of (TA|NCL)
    pairwise = ilr_matrix(X[:, :2], labels[:2], parse_sbp("(TA|NCL)"))[:, 0]
    worst = float(np.max(np.abs(combined - pairwise)))
    _verdict(3, worst <= 1e-12, f"1000 compositions, worst deviation {worst:.2e}")


def test_criterion_04_sign_flip_property_suite():
    config = AnalysisConfig(
        parts=("TA", "NCL", "CL"), sbp="(TA|(NCL|CL))", group_variable="brand"
    )
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        n = int(rng.integers(10, 501))
        values = np.exp(rng.normal(loc=2.0, scale=1.5, size=(n, 3)))
        brands = ["yes" if rng.uniform() < 0.5 else "no" for _ in range(n)]
        brands[:4] = ["yes", "yes", "no", "no"]
        ds = FirmDataset(
            firm_ids=tuple(f"f{i}" for i in range(n)),
            part_labels=("TA", "NCL", "CL"),
            values=values,
            group=tuple(brands),
        )
        report = run_analysis(ds, config)
        for base in ("y1", "y2"):
            v = report.variable(base)
            vp = report.variable(base + "p")
            ok = ok and vp.stats.mean == -v.stats.mean
            ok = ok and vp.box.q1 == -v.box.q3
            ok = ok and vp.box.outliers.tobytes() == (-v.box.outliers[::-1]).tobytes()
            ok = ok and vp.stats.skewness == -v.stats.skewness
            ok = ok and vp.stats.excess_kurtosis == v.stats.excess_kurtosis
            ok = ok and vp.box.n_outliers == v.box.n_outliers
            ok = ok and vp.box.n_extreme_outliers == v.box.n_extreme_outliers
            ok = ok and abs(abs(vp.comparison.t) - abs(v.comparison.t)) <= 1e-10
            ok = ok and abs(vp.comparison.p - v.comparison.p) <= 1e-10
            ok = ok and abs(vp.comparison.r_squared - v.comparison.r_squared) <= 1e-10
        if not ok:
            break
    _verdict(4, ok, "100 random datasets, all permuted-balance statistics mirror")


def test_criterion_05_r_squared_t_consistency():
    printed = [(-2.23, 0.044), (1.88, 0.032), (2.14, 0.041)]
    df = 108
    worst = 0.0
    for t, r2_printed in printed:
        r2 = t * t / (t * t + df)
        worst = max(worst, abs(r2 - r2_printed))
    _verdict(5, worst <= 0.001, f"df=108 pairs, worst gap {worst * 100:.3f} pp")


def test_criterion_06_t_distribution_accuracy():
    p1 = student_t_two_sided_p(2.776, 4)
    p2 = student_t_two_sided_p(2.14, 108)
    ok = 0.0499 <= p1 <= 0.0501 and abs(p2 - 0.0346) <= 0.0005
    _verdict(6, ok, f"p(2.776,4)={p1:.6f}, p(2.14,108)={p2:.6f}")


def test_criterion_07_basis_invariance():
    rng = np.random.default_rng(11)
    worst_dist = 0.0
    worst_orth = 0.0
    for d in range(3, 9):
        labels = tuple(f"P{k}" for k in range(d))
        for _ in range(50):
            tree_a = parse_sbp(random_tree_text(rng, labels))
            tree_b = parse_sbp(random_tree_text(rng, labels))
            X = random_composition(rng, labels, 2)
            # the Aitchison distance of two firms: the norm of their ilr difference
            dist_a, dist_b = (
                np.linalg.norm(np.subtract(*ilr_matrix(X, labels, tree))) for tree in (tree_a, tree_b)
            )
            worst_dist = max(worst_dist, abs(dist_a - dist_b))
            for tree in (tree_a, tree_b):
                V = contrast_matrix(tree)
                gram = V @ V.T
                worst_orth = max(
                    worst_orth, float(np.max(np.abs(gram - np.eye(d - 1))))
                )
    ok = worst_dist <= 1e-10 and worst_orth <= 1e-12
    _verdict(7, ok, f"dist gap {worst_dist:.2e}, orthonormality gap {worst_orth:.2e}")


def test_criterion_08_round_trip():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        labels = tuple(f"P{k}" for k in range(d))
        tree = parse_sbp(random_tree_text(rng, labels))
        x = random_composition(rng, labels)
        back = ilr_inverse(ilr_matrix(x, labels, tree), tree)
        # the columns of back follow the tree's leaves, not labels
        closed = (x / x.sum())[:, [labels.index(lab) for lab in tree.leaf_labels]]
        worst = max(worst, float(np.max(np.abs(back - closed))))
    _verdict(8, worst <= 1e-12, f"1000 round trips, worst part error {worst:.2e}")


def test_criterion_09_statistics_oracles():
    s = describe([1, 2, 3, 4, 10]).skewness
    k = describe([1, 2, 3, 4, 5]).excess_kurtosis
    box = box_summary([1, 2, 3, 4, 100])
    ok = (
        abs(s - 1.6971) <= 1e-4
        and abs(k - (-1.2)) <= 1e-12
        and box.extreme_outliers.tolist() == [100.0]
        and box.outliers.tolist() == [100.0]
    )
    _verdict(9, ok, f"skew={s:.6f}, kurt={k:.6f}, 100 flagged extreme")


def test_criterion_10_deterministic_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    data = tmp_path / "firms.csv"
    config = tmp_path / "analysis.ini"
    data.write_text(
        "firm_id,TA,NCL,CL,brand\n"
        "f1,100,20,30,yes\nf2,80,35,25,no\nf3,120,50,10,yes\n"
        "f4,90,15,45,no\nf5,60,22,18,yes\nf6,150,40,35,no\n",
        encoding="utf-8",
    )
    config.write_text(
        "[analysis]\nparts = TA, NCL, CL\nsbp = (TA|(NCL|CL))\ngroup_variable = brand\n"
        "[ratios]\nr1 = TA / NCL + CL\n",
        encoding="utf-8",
    )
    outputs = {}
    for tag in ("first", "second"):
        json_path = tmp_path / f"{tag}.json"
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        args = ["analyze", "--data", str(data), "--config", str(config)]
        assert main([*args, "--out", str(json_path), "--svg", str(svg_path)]) == 0
        assert main([*args, "--out", str(csv_path)]) == 0
        outputs[tag] = (
            json_path.read_bytes(),
            csv_path.read_bytes(),
            svg_path.read_bytes(),
        )
    ok = outputs["first"] == outputs["second"]
    sizes = ", ".join(str(len(b)) for b in outputs["first"])
    _verdict(10, ok, f"json/csv/svg byte-identical across runs ({sizes} bytes)")


def _sector_report(workdir, seed: int, n: int = 1000):
    """The library pipeline's report on the benchmark's seeded sector of ``n`` firms: five
    parts, three ratios, a brand group and 1% of firms with a zero part, replaced."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import WORKLOADS, generate, write_inputs
    finally:
        sys.path.pop(0)
    write_inputs(generate(replace(WORKLOADS["sector-analyze"], n=n), seed), workdir)
    config = load_config(workdir / "analysis.ini")
    return run_analysis(load_dataset_csv(workdir / "firms.csv", config), config)


def test_criterion_11_balances_less_skewed_and_fewer_outliers_than_ratios(tmp_path):
    # the paper: with log-ratio coordinates, outliers and skewness are much reduced.  At
    # n = 1000 both held for every one of 50 seeds; at the paper's n = 110 they do not always
    worst = []
    for seed in range(10):
        variables = _sector_report(tmp_path, seed).variables
        balances = [v for v in variables if v.kind.startswith("balance")]
        ratios = [v for v in variables if v.kind.startswith("ratio")]
        assert len(balances) == 8 and len(ratios) == 6
        skew = max(abs(v.stats.skewness) for v in balances), min(abs(v.stats.skewness) for v in ratios)
        outliers = max(v.box.n_outliers for v in balances), min(v.box.n_outliers for v in ratios)
        worst.append((seed, skew, outliers))
    ok = all(skew[0] < skew[1] and outliers[0] < outliers[1] for _, skew, outliers in worst)
    detail = "; ".join(f"seed {s}: |skew| {b:.2f} < {r:.2f}, outliers {ob} < {orr}" for s, (b, r), (ob, orr) in worst)
    _verdict(11, ok, f"n=1000, seeds 0-9, every balance below every ratio ({detail})")


def test_criterion_12_ratio_orientations_disagree_where_balance_twins_cannot(tmp_path):
    # the paper: a ratio's conclusion depends on which figure is the numerator, a balance's does
    # not.  A split at 0.05 is a fact of the seed: seed 8 at n = 1000 splits 'current'
    variables = _sector_report(tmp_path, 8).variables
    p = {v.name: v.comparison.p for v in variables}
    balances = [v.name for v in variables if v.kind == "balance"]
    ok = p["current"] < 0.05 <= p["currentp"] and len(balances) == 4 and all(p[b] == p[b + "p"] for b in balances)
    _verdict(12, ok, f"seed 8: p(current)={p['current']:.4f}, p(currentp)={p['currentp']:.4f}; balance twins equal")
