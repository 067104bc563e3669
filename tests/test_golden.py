"""Golden report bytes: CLI outputs for two seeded sectors, compared exactly.

The inputs are generated here from a seeded numpy Generator; the expected
outputs are committed under ``tests/golden/``.  Any change to an emitted
byte, down to the last ulp of one float, fails this test.

* ``sector``: 2000 firms, D=5, three ratios, ``replace`` zeros and a
  two-valued group; ``analyze`` to JSON and SVG, plus ``validate``.
* ``wide``: 300 firms over a balanced D=16 tree, ``reject`` zeros;
  ``analyze`` to CSV and SVG, plus ``transform``.  The config lists the
  parts in another order than the tree's leaves, so this case pins that
  every balance adds its log columns in leaf order, whatever the column
  order of the data.
* ``demo table1``: the paper's ten-firm table, which needs no input.

The same bytes must come out whichever kernel OpenBLAS picks for the CPU:
the ilr step takes no matrix product, and a test reruns both cases in
subprocesses under several ``OPENBLAS_CORETYPE`` values.

To regenerate after an intended output change, call ``write_outputs`` for
each case and copy the files it writes into ``tests/golden/``.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coda_ratios
from coda_ratios import _floattext
from coda_ratios.cli import main

GOLDEN = Path(__file__).parent / "golden"
SOURCE_DATE_EPOCH = "1700000000"


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sector_inputs(workdir: Path) -> None:
    rng = np.random.default_rng(20221020)
    parts = ["EQ", "CL", "NCA", "NCL", "CA"]
    n = 2000
    values = np.exp(rng.normal(5.0, 1.5, size=(n, len(parts))))
    values[rng.random(values.shape) < 0.01] = 0.0
    brand = rng.choice(["no", "yes"], size=n)
    rows = [
        [f"f{i:04d}", *(repr(float(v)) for v in values[i]), brand[i]] for i in range(n)
    ]
    _write_csv(workdir / "data.csv", ["firm_id", *parts, "brand"], rows)
    (workdir / "config.ini").write_text(
        "[analysis]\n"
        "parts = EQ, CL, NCA, NCL, CA\n"
        "sbp = ((CA|NCA)|((CL|NCL)|EQ))\n"
        "group_variable = brand\n"
        "\n[ratios]\n"
        "liquidity = CA / CL\n"
        "solvency = CA + NCA / CL + NCL\n"
        "leverage = NCL + CL / EQ\n"
        "\n[zeros]\n"
        "mode = replace\n"
        "delta_fraction = 0.65\n",
        encoding="utf-8",
    )


def _balanced(labels) -> str:
    if len(labels) == 1:
        return labels[0]
    half = len(labels) // 2
    return f"({_balanced(labels[:half])}|{_balanced(labels[half:])})"


def _wide_inputs(workdir: Path) -> None:
    rng = np.random.default_rng(20221021)
    leaves = [f"P{j:02d}" for j in range(1, 17)]
    parts = leaves[::-1]  # config order differs from tree leaf order
    n = 300
    values = np.exp(rng.normal(3.0, 2.0, size=(n, len(parts))))
    size = rng.choice(["large", "small"], size=n)
    rows = [
        [f"w{i:03d}", *(repr(float(v)) for v in values[i]), size[i]] for i in range(n)
    ]
    _write_csv(workdir / "data.csv", ["firm_id", *parts, "size"], rows)
    (workdir / "config.ini").write_text(
        "[analysis]\n"
        f"parts = {', '.join(parts)}\n"
        f"sbp = {_balanced(leaves)}\n"
        "group_variable = size\n"
        "\n[ratios]\n"
        "r1 = P01 + P02 / P03\n"
        "r2 = P05 / P09 + P10 + P11\n"
        "\n[zeros]\n"
        "mode = reject\n",
        encoding="utf-8",
    )


def _run(*argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().encode("utf-8")


def write_outputs(case: str, workdir: Path) -> list[str]:
    """Generate one case's inputs in ``workdir``, run the CLI, return output names.

    Expects SOURCE_DATE_EPOCH to be set to the module constant.
    """
    workdir = Path(workdir)
    io_args = ["--data", str(workdir / "data.csv"), "--config", str(workdir / "config.ini")]
    if case == "sector":
        _sector_inputs(workdir)
        names = ["sector_report.json", "sector_boxes.svg", "sector_validate.txt"]
        report, svg = workdir / names[0], workdir / names[1]
        _run("analyze", *io_args, "--out", str(report), "--svg", str(svg))
        (workdir / names[2]).write_bytes(_run("validate", *io_args))
    else:
        _wide_inputs(workdir)
        names = ["wide_report.csv", "wide_boxes.svg", "wide_transform.csv"]
        report, svg = workdir / names[0], workdir / names[1]
        _run("analyze", *io_args, "--out", str(report), "--svg", str(svg))
        (workdir / names[2]).write_bytes(_run("transform", *io_args))
    return names


@pytest.mark.parametrize("case", ["sector", "wide"])
def test_outputs_match_golden_bytes(case, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", SOURCE_DATE_EPOCH)
    names = write_outputs(case, tmp_path)
    differing = [
        name for name in names if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()
    ]
    assert differing == []


@pytest.mark.parametrize("block", [1, 64])
def test_wide_transform_matches_golden_bytes_at_any_block(block, tmp_path, monkeypatch):
    # 15 coordinates: one row, or four, per formatter pass and so per ilr block, where
    # the golden run writes all 300 rows in one
    monkeypatch.setattr(_floattext, "_BLOCK", block)
    _wide_inputs(tmp_path)
    out = _run("transform", "--data", str(tmp_path / "data.csv"), "--config", str(tmp_path / "config.ini"))
    assert out == (GOLDEN / "wide_transform.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 64])
def test_sector_analyze_matches_golden_bytes_at_any_block(block, tmp_path, monkeypatch):
    # 4 coordinates: ilr fills one row, or 16, per block, where the golden run
    # fills all 2000 rows in one
    monkeypatch.setenv("SOURCE_DATE_EPOCH", SOURCE_DATE_EPOCH)
    monkeypatch.setattr(_floattext, "_BLOCK", block)
    names = write_outputs("sector", tmp_path)
    differing = [
        name for name in names if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()
    ]
    assert differing == []


def test_demo_table1_matches_golden_bytes():
    assert _run("demo", "table1") == (GOLDEN / "demo_table1.csv").read_bytes()


def _openblas_simd() -> set[str] | None:
    """numpy's SIMD extensions if numpy is linked to OpenBLAS, else None."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no mode argument
        return None
    if "openblas" not in config["Build Dependencies"]["blas"].get("name", "").lower():
        return None
    simd = config.get("SIMD Extensions", {})
    return set(simd.get("baseline", [])) | set(simd.get("found", []))


@pytest.mark.parametrize("coretype", ["Prescott", "Nehalem", "Sandybridge", "Haswell"])
def test_golden_bytes_do_not_depend_on_openblas_kernel(coretype, tmp_path):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")
    simd = _openblas_simd()
    if simd is None:
        pytest.skip("numpy is not linked to OpenBLAS")
    if coretype == "Haswell" and not simd & {"AVX2", "X86_V3", "X86_V4"}:
        pytest.skip("the Haswell kernel needs AVX2")
    paths = [str(Path(coda_ratios.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE=coretype,
        SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH,
        PYTHONPATH=os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")]),
    )
    script = "import sys, test_golden; print(*test_golden.write_outputs(*sys.argv[1:]))"
    differing = []
    for case in ("sector", "wide"):
        workdir = tmp_path / case
        workdir.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", script, case, str(workdir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        differing += [
            name for name in done.stdout.split()
            if (workdir / name).read_bytes() != (GOLDEN / name).read_bytes()
        ]
    assert differing == []
