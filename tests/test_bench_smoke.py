"""The benchmark's output checks, at smoke size, as a tier-1 test.

``bench/run.py --smoke`` runs the CLI once per workload on a tiny seeded
sector and compares every output with an independent numpy/mpmath
reference: zero policy, balances, ratios, statistics, p-values, SVG panels
and transform coordinates.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_outputs_are_correct():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=600,
    )
    lines = [json.loads(line) for line in result.stdout.splitlines() if line.startswith("{")]
    records = [line["record"] for line in lines if "record" in line]
    results = [line for line in lines if "record" not in line]
    assert len(records) == len(results), result.stderr
    declared = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    assert declared <= {record["workload"] for record in records}, result.stderr
    for record, outcome in zip(records, results):
        assert outcome["correct"] is True, (record["workload"], record.get("failures"), result.stderr)
        assert outcome["failed"] == 0, record["workload"]
    assert result.returncode == 0, result.stderr
