"""Offline batch benchmark for the coda-ratios CLI.

Usage (from the repository root):

    python3 bench/run.py --workload sector-analyze --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all            # every workload, human table on stderr
    python3 bench/run.py --smoke --trace 1         # tiny sizes, a few seconds

One harness process generates the workload's sector from ``--seed`` into
``.bench_work/`` and runs ``python -m coda_ratios.cli`` on it as a child,
one at a time (a closed loop with one client), for ``--seconds``: no run
starts that would typically end past that time.  Each child's wall, CPU
and peak RSS come from ``os.wait4`` on its pid.  After the timed loop every
output is checked against an independent numpy/mpmath reference, and all
runs must produce identical bytes.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
Other tenants of a shared 2-vCPU VM slowed every CPU-bound process on it
by up to 2x for minutes at a time, so that a run's absolute times moved
by more than any useful bound between runs minutes apart.  Each run is
therefore bracketed by ``bench/refjob.py``, a fixed job that no program
change can move, and ``wall_rel`` and ``cpu_rel`` are the median over
runs of the run's wall and CPU time divided by the mean of the reference
job's just before and just after it.  ``setup_s`` (a fresh child that
only imports the CLI) stays in seconds and reports the fast quartile q1,
since other tenants only ever add time; ``peak_rss_mib`` is the median.
The absolute ``wall_s``, ``cpu_s``, ``firms_per_s`` and the reference
job's ``ref_s`` are kept in the record and the table, but not gated.
With ``--trace 1`` it holds the per-layer metrics of ``bench/traced.py``
runs, alternated with untraced runs to measure the tracing overhead.

Just before each result line, stdout carries the workload's record as one
JSON line ``{"record": ...}``: seed, Python and numpy versions, ``nproc``,
input sizes, the failure fraction and failures, the sha256 of each
output, every sample and each metric's quartiles.  A human-readable table
of the same goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_outputs
from children import Launcher, child_env
from workloads import WORKLOADS, generate, internal_nodes, smoke, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"
REFJOB = Path(__file__).resolve().parent / "refjob.py"
WORK = ROOT / ".bench_work"

MIN_RUNS = 3
MIN_TRACED_PAIRS = 2

# which quartile of the runs a metric reports, if not the median; see the module docstring
SUMMARY = {"setup_s": "q1"}

END_TO_END = {
    "wall_rel": "x",
    "cpu_rel": "x",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# recorded with every plain run, not gated
ABSOLUTE = {
    "wall_s": "s",
    "cpu_s": "s",
    "firms_per_s": "1/s",
    "ref_s": "s",
}

# per-layer metric -> (unit, where it is read in a trace: a layer field or an extra count)
PER_LAYER = {
    "dataset.read_s": ("s", "dataset.read", "total_s"),
    "dataset.read_self_s": ("s", "dataset.read", "self_s"),
    "dataset.zero_policy_s": ("s", "dataset.zero_policy", "total_s"),
    "dataset.matrix_s": ("s", "dataset.matrix", "total_s"),
    "dataset.split_s": ("s", "dataset.split", "total_s"),
    "dataset.config_s": ("s", "dataset.config", "total_s"),
    "dataset.rows_read": ("count", "extra", "dataset.rows_read"),
    "dataset.firms_kept": ("count", "extra", "dataset.firms_kept"),
    "dataset.load_rss_mib": ("MiB", "extra", "dataset.load_rss_mib"),
    "ratios.eval_s": ("s", "ratios.eval", "total_s"),
    "ratios.eval_calls": ("count", "ratios.eval", "calls"),
    "report.run_analysis_s": ("s", "report.run_analysis", "total_s"),
    "report.run_analysis_self_s": ("s", "report.run_analysis", "self_s"),
    "report.emit_s": ("s", "report.emit", "total_s"),
    "report.bytes": ("bytes", "extra", "report.bytes"),
    "stats.describe_s": ("s", "stats.describe", "total_s"),
    "stats.box_s": ("s", "stats.box", "total_s"),
    "stats.ttest_s": ("s", "stats.ttest", "total_s"),
    "stats.quantile_calls": ("count", "stats.quantile", "calls"),
    "tdist.p_s": ("s", "tdist.p", "total_s"),
    "tdist.p_calls": ("count", "tdist.p", "calls"),
    "composition.ilr_s": ("s", "composition.ilr", "total_s"),
    "composition.ilr_calls": ("count", "composition.ilr", "calls"),
    "boxplot_svg.emit_s": ("s", "boxplot_svg.emit", "total_s"),
    "boxplot_svg.bytes": ("bytes", "extra", "boxplot_svg.bytes"),
    "cli.import_s": ("s", "import", "import_s"),
    "cli.main_s": ("s", "cli.main", "total_s"),
    "cli.self_s": ("s", "cli.main", "self_s"),
    "trace.overhead_s": ("s", "harness", "traced minus untraced wall"),
}


def metric_units(trace: bool) -> dict[str, str]:
    return {name: unit for name, (unit, *_) in PER_LAYER.items()} if trace else END_TO_END


def layer_metrics(trace: dict) -> dict[str, float]:
    out = {}
    for name, (_, where, key) in PER_LAYER.items():
        if where == "extra":
            out[name] = float(trace["extra"].get(key, 0.0))
        elif where == "import":
            out[name] = trace["import_s"]
        elif where != "harness":
            out[name] = float(trace["layers"].get(where, {}).get(key, 0.0))
    return out


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [q1, med, q3]


def summarize(name: str, values: list[float]) -> float:
    return dict(zip(("q1", "median", "q3"), quartiles(values)))[SUMMARY.get(name, "median")]


def more_laps(laps: list[float], deadline: float, min_laps: int) -> bool:
    """Below the minimum, or another typical lap still ends by the deadline."""
    return len(laps) < min_laps or time.perf_counter() + statistics.median(laps) <= deadline


def sha256_outputs(workdir: Path, names: list[str]) -> dict[str, str]:
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in names}


class Runner:
    """One workload at one seed: inputs in ``workdir``, runs and their failures."""

    def __init__(self, workload, seed: int, workdir: Path, launcher: Launcher):
        self.w = workload
        self.workdir = workdir
        self.launcher = launcher
        self.env = child_env(SRC)
        self.inputs = generate(workload, seed)
        write_inputs(self.inputs, workdir)
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.first_outputs: dict[str, bytes] | None = None
        self.sha256: dict[str, str] | None = None
        self.ref_output: bytes | None = None

    def run(self, args: list[str]):
        """Run one child; record whether it failed and whether its bytes match the first run."""
        for name in self.w.output_files():
            (self.workdir / name).unlink(missing_ok=True)
        r = self.launcher.run(args, self.workdir, self.env)
        self.attempted += 1
        problem = None
        missing = [n for n in self.w.output_files() if not (self.workdir / n).is_file()]
        if r.returncode != 0 or r.stderr:
            problem = f"exit {r.returncode}, stderr {r.stderr[-300:]!r}"
        elif missing:
            problem = f"missing output {missing}"
        elif r.peak_rss_mib <= r.floor_rss_mib:
            problem = f"peak RSS {r.peak_rss_mib:.1f} MiB is not above the launcher's {r.floor_rss_mib:.1f} MiB"
        elif self.sha256 is None:
            self.sha256 = sha256_outputs(self.workdir, self.w.output_files())
            self.first_outputs = {n: (self.workdir / n).read_bytes() for n in self.w.output_files()}
        elif sha256_outputs(self.workdir, self.w.output_files()) != self.sha256:
            problem = "output bytes differ from the first run"
        if problem:
            self.failed += 1
            self.failures.append(f"run {self.attempted}: {problem}")
        return r

    def setup(self) -> float:
        """Wall time of a fresh child that only starts and imports the CLI."""
        r = self.launcher.run(["-c", "import coda_ratios.cli"], self.workdir, self.env, stdout_name="setup.txt")
        if r.returncode != 0 or r.stderr:
            self.failures.append(f"set-up child: exit {r.returncode}, stderr {r.stderr[-300:]!r}")
        return r.wall_s

    def reference(self):
        """One run of the fixed reference job; its output must never change."""
        r = self.launcher.run([str(REFJOB)], self.workdir, self.env, stdout_name="ref.txt")
        output = (self.workdir / "ref.txt").read_bytes()
        self.ref_output = self.ref_output or output
        if r.returncode != 0 or r.stderr or output != self.ref_output:
            self.failures.append(f"reference job: exit {r.returncode}, stderr {r.stderr[-300:]!r}, output {output!r}")
        return r

    def check(self) -> list[str]:
        if self.first_outputs is None:
            return ["no run produced outputs"]
        fails = check_outputs(self.inputs, self.first_outputs)
        if fails:
            self.failed = self.attempted  # every run wrote these same bytes
        return fails


def run_plain(runner: Runner, seconds: float, min_runs: int):
    """Alternate a set-up child, a full run and the reference job until ``seconds`` have passed."""
    samples = {name: [] for name in (*END_TO_END, *ABSOLUTE)}
    runner.setup()  # fills the bytecode cache, which every later child finds warm
    args = ["-m", "coda_ratios.cli", *runner.w.argv()]
    laps = []
    deadline = time.perf_counter() + seconds
    before = runner.reference()
    while more_laps(laps, deadline, min_runs):
        t0 = time.perf_counter()
        samples["setup_s"].append(runner.setup())
        r = runner.run(args)
        after = runner.reference()
        ref_wall = (before.wall_s + after.wall_s) / 2
        samples["wall_rel"].append(r.wall_s / ref_wall)
        samples["cpu_rel"].append(r.cpu_s / ((before.cpu_s + after.cpu_s) / 2))
        samples["peak_rss_mib"].append(r.peak_rss_mib)
        samples["wall_s"].append(r.wall_s)
        samples["cpu_s"].append(r.cpu_s)
        samples["firms_per_s"].append(runner.w.n / r.wall_s)
        samples["ref_s"].append(ref_wall)
        before = after
        laps.append(time.perf_counter() - t0)
    return samples


def run_traced(runner: Runner, seconds: float, min_runs: int):
    """Alternate untraced and traced runs; per-layer metrics come from the traced ones."""
    min_runs = min(min_runs, MIN_TRACED_PAIRS)
    runner.setup()  # warm bytecode cache
    plain = ["-m", "coda_ratios.cli", *runner.w.argv()]
    trace_path = runner.workdir / "trace.json"
    traced = [str(TRACED), str(trace_path), *runner.w.argv()]
    samples = {name: [] for name in PER_LAYER}
    walls = {"plain": [], "traced": []}
    laps = []
    deadline = time.perf_counter() + seconds
    while more_laps(laps, deadline, min_runs):
        t0 = time.perf_counter()
        order = ("plain", "traced") if len(walls["traced"]) % 2 == 0 else ("traced", "plain")
        for kind in order:
            if kind == "plain":
                walls["plain"].append(runner.run(plain).wall_s)
                continue
            trace_path.unlink(missing_ok=True)
            walls["traced"].append(runner.run(traced).wall_s)
            if trace_path.exists():
                for name, value in layer_metrics(json.loads(trace_path.read_text())).items():
                    samples[name].append(value)
        laps.append(time.perf_counter() - t0)
    overhead = statistics.median(walls["traced"]) - statistics.median(walls["plain"])
    samples["trace.overhead_s"] = [overhead]
    return samples


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def input_facts(w) -> dict:
    return {
        "firms": w.n,
        "parts": len(w.parts),
        "balances": len(internal_nodes(w.tree)),
        "ratios": len(w.ratios),
        "variables": 2 * (len(internal_nodes(w.tree)) + len(w.ratios)),
        "zero_mode": w.zero_mode,
        "zero_row_frac": w.zero_row_frac,
        "command": w.argv(),
    }


def run_workload(w, seed: int, seconds: float, trace: bool, min_runs: int) -> tuple[dict, dict]:
    workdir = WORK / f"{w.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with Launcher() as launcher:
            runner = Runner(w, seed, workdir, launcher)
            measure = run_traced if trace else run_plain
            samples = measure(runner, seconds, min_runs)
        check_failures = runner.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = metric_units(trace)
    missing = [name for name in units if not samples.get(name)]
    recorded = dict(units) if trace else {**units, **ABSOLUTE}
    failures = runner.failures + check_failures + [f"no samples for {name}" for name in missing]
    metrics = {
        name: {"value": summarize(name, samples[name]), "unit": unit}
        for name, unit in units.items()
        if name not in missing
    }
    result = {
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed if not missing else runner.attempted,
        "metrics": metrics,
    }
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "units": recorded,
        "environment": environment(),
        "inputs": input_facts(w),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "failures": failures,
        "sha256": runner.sha256,
        "samples": samples,
        "quartiles": {name: quartiles(values) for name, values in samples.items() if values},
    }
    return result, record


def print_table(record: dict) -> None:
    err = sys.stderr
    env = record["environment"]
    print(
        f"{record['workload']}  seed={record['seed']}  firms={record['inputs']['firms']}  "
        f"failed_frac={record['failed_frac']:g} ({record['failed']}/{record['attempted']} runs)  "
        f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}",
        file=err,
    )
    for name, unit in record["units"].items():
        if name in record["quartiles"]:
            q1, med, q3 = record["quartiles"][name]
            value = summarize(name, record["samples"][name])
            n = len(record["samples"][name])
            print(f"  {name:28s} {value:14.6g} {unit:6s} q1 {q1:.6g}  median {med:.6g}  q3 {q3:.6g}  (n={n})", file=err)
    for failure in record["failures"][:20]:
        print(f"  FAIL {failure}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one run each, checks on")
    args = parser.parse_args(argv)

    if not (SRC / "coda_ratios" / "cli.py").is_file():
        print(f"bench: {SRC / 'coda_ratios'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds, min_runs = (0.0, 1) if args.smoke else (args.seconds, MIN_RUNS)
    ok = True
    for name in names:
        w = smoke(WORKLOADS[name]) if args.smoke else WORKLOADS[name]
        result, record = run_workload(w, args.seed, seconds, bool(args.trace), min_runs)
        print_table(record)
        ok = ok and result["correct"]
        print(json.dumps({"record": record}))
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
