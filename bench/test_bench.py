"""Tests of the benchmark harness itself: python -m pytest bench

The smoke runs use tiny inputs of every workload with all checks on; the
corruption tests feed each output check a deliberately broken output and
expect that check, by name, to report it.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
import traced
from checks import check_outputs
from children import Launcher, child_env
from workloads import WORKLOADS, generate, smoke, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def _smoke(trace: int) -> tuple[dict[str, dict], dict[str, dict]]:
    """Results and records of a smoke run, by workload."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", str(SEED), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert "correct" in lines[-1]
    results = [line for line in lines if "correct" in line]
    records = [line["record"] for line in lines if "record" in line]
    assert [r["workload"] for r in records] == list(WORKLOADS)
    return dict(zip(WORKLOADS, results)), dict(zip(WORKLOADS, records))


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["why"] for w in spec["workloads"]] == [WORKLOADS[w["name"]].why for w in spec["workloads"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.metric_units(trace=True)


def test_smoke_end_to_end_metrics():
    results, records = _smoke(0)
    for name, result in results.items():
        assert result["correct"], name
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())
        record = records[name]
        assert record["seed"] == SEED and record["failed_frac"] == 0
        assert set(record["environment"]) >= {"python", "numpy", "nproc"}
        assert record["inputs"]["firms"] == smoke(WORKLOADS[name]).n
        assert set(record["sha256"]) == set(WORKLOADS[name].output_files())
        assert set(record["quartiles"]) == {*run.END_TO_END, *run.ABSOLUTE}


def test_smoke_traced_layer_counts():
    results, _ = _smoke(1)
    for name, result in results.items():
        assert result["correct"], name
        assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {name: {k: m["value"] for k, m in r["metrics"].items()} for name, r in results.items()}
    sector = smoke(WORKLOADS["sector-analyze"])
    assert metrics["sector-analyze"]["ratios.eval_calls"] == 2 * len(sector.ratios) * sector.n
    assert metrics["sector-analyze"]["dataset.rows_read"] == sector.n
    assert metrics["transform-export"]["ratios.eval_calls"] == 0
    assert metrics["transform-export"]["report.run_analysis_s"] == 0
    assert metrics["wide-panel"]["tdist.p_calls"] == 2 * (47 + 4)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Tiny inputs and one untraced run's outputs for every workload."""
    out = {}
    for name, workload in WORKLOADS.items():
        w = smoke(workload)
        workdir = tmp_path_factory.mktemp(name)
        inputs = generate(w, SEED)
        write_inputs(inputs, workdir)
        with Launcher() as launcher:
            r = launcher.run(["-m", "coda_ratios.cli", *w.argv()], workdir, child_env(ROOT / "src"))
        assert r.returncode == 0 and not r.stderr, r.stderr
        out[name] = (inputs, {f: (workdir / f).read_bytes() for f in w.output_files()})
    return out


def test_clean_outputs_pass(outputs):
    for name, (inputs, files) in outputs.items():
        assert check_outputs(inputs, files) == [], name


def _edit_json(data: bytes, edit) -> bytes:
    doc = json.loads(data)
    edit(doc)
    return json.dumps(doc).encode()


def _edit_var(index, path, change):
    def edit(doc):
        target = doc["variables"][index]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = change(target[path[-1]])

    return edit


def _edit_all_p(doc):
    for v in doc["variables"]:
        v["comparison"]["p"] *= 1.001


def _edit_n(doc):
    doc["metadata"]["n"] += 1


JSON_CORRUPTIONS = {
    "rows": _edit_n,
    "moments": _edit_var(0, ("stats", "sd"), lambda x: x * (1 + 1e-6)),
    "shape": _edit_var(8, ("stats", "excess_kurtosis"), lambda x: x + 1e-3),
    "quantiles": _edit_var(2, ("box", "median"), lambda x: x + 1e-6),
    "outliers": _edit_var(9, ("box", "n_outliers"), lambda x: x + 1),
    "ttest": _edit_var(10, ("comparison", "t"), lambda x: x * 1.001),
    "pvalues": _edit_all_p,
    "twins": _edit_var(3, ("stats", "skewness"), lambda x: -x),
}


@pytest.mark.parametrize("check", sorted(JSON_CORRUPTIONS))
def test_json_report_corruption_is_caught(outputs, check):
    inputs, files = outputs["sector-analyze"]
    bad = dict(files, **{"report.json": _edit_json(files["report.json"], JSON_CORRUPTIONS[check])})
    assert any(f.startswith(check + ":") for f in check_outputs(inputs, bad))


def _edit_csv_cell(data: bytes, row: int, col: int, change) -> bytes:
    lines = data.decode().splitlines()
    cells = lines[row].split(",")
    cells[col] = change(cells[col])
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def _plus_one(cell: str) -> str:
    return str(int(cell) + 1)


# (row, column) cells of report.csv to change; row 1 is y1, row 2 its twin y1p
CSV_CORRUPTIONS = {
    "rows": [(3, 1, _plus_one)],
    "moments": [(1, 2, lambda c: repr(float(c) * (1 + 1e-6)))],
    "twins": [(2, 6, _plus_one)],
    "outliers": [(1, 7, _plus_one), (2, 7, _plus_one)],  # twins still agree
    "ttest": [(5, 9, _plus_one)],
}


@pytest.mark.parametrize("check", sorted(CSV_CORRUPTIONS))
def test_csv_report_corruption_is_caught(outputs, check):
    inputs, files = outputs["wide-panel"]
    report = files["report.csv"]
    for row, col, change in CSV_CORRUPTIONS[check]:
        report = _edit_csv_cell(report, row, col, change)
    failures = check_outputs(inputs, dict(files, **{"report.csv": report}))
    assert any(f.startswith(check + ":") for f in failures)


def test_svg_missing_panel_is_caught(outputs):
    inputs, files = outputs["sector-analyze"]
    svg = re.sub(rb'<g data-variable="y2p">.*?</g>\n', b"", files["boxes.svg"], count=1, flags=re.S)
    assert svg != files["boxes.svg"]
    assert any(f.startswith("svg:") for f in check_outputs(inputs, dict(files, **{"boxes.svg": svg})))


@pytest.mark.parametrize("corrupt", ["coordinate", "dropped row"])
def test_transform_corruption_is_caught(outputs, corrupt):
    inputs, files = outputs["transform-export"]
    lines = files["stdout.txt"].decode().splitlines()
    if corrupt == "dropped row":
        del lines[5]
    else:
        cells = lines[5].split(",")
        cells[2] = repr(float(cells[2]) + 1e-6)
        lines[5] = ",".join(cells)
    bad = {"stdout.txt": ("\n".join(lines) + "\n").encode()}
    assert any(f.startswith("transform:") for f in check_outputs(inputs, bad))


def test_runner_counts_failed_and_nondeterministic_runs(tmp_path):
    with Launcher() as launcher:
        runner = run.Runner(smoke(WORKLOADS["transform-export"]), SEED, tmp_path, launcher)
        runner.run(["-m", "coda_ratios.cli", *runner.w.argv()])
        runner.run(["-c", "print('firm_id')"])  # different bytes
        runner.run(["-c", "import sys; sys.exit(3)"])
    assert (runner.attempted, runner.failed) == (3, 2)
    assert "differ" in runner.failures[0] and "exit 3" in runner.failures[1]
    assert runner.check() == []


def _rss_mib() -> float:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * traced.PAGE_SIZE / 2**20


def test_small_child_reports_its_own_peak_rss(tmp_path):
    """A child that allocates little reads far below a large harness."""
    ballast = b"\x01" * (160 * 2**20)
    assert _rss_mib() > 160
    with Launcher() as launcher:
        small = launcher.run(["-S", "-c", "pass"], tmp_path, child_env(ROOT / "src"))
        big = launcher.run(["-c", "b = b'x' * (64 * 2**20)"], tmp_path, child_env(ROOT / "src"))
    assert small.returncode == 0 and big.returncode == 0
    assert small.peak_rss_mib < 40 and small.floor_rss_mib < 40
    assert big.peak_rss_mib > small.peak_rss_mib + 60
    del ballast


def test_layer_with_span_and_timer_counts_nested_time_once(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(traced, "pc", lambda: float(next(ticks)))
    tracer = traced.Tracer()
    row = tracer.timer("composition.ilr", lambda: None)
    matrix = tracer.span("composition.ilr", lambda: [row() for _ in range(3)])
    matrix()  # span from tick 0 to 7, three nested rows of one tick each
    row()  # ticks 8 to 9, outside any span
    assert tracer.layers["composition.ilr"]["calls"] == 5
    assert tracer.layers["composition.ilr"]["total_s"] == 7 + 1
