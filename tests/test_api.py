import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coda_ratios

# public names no pipeline stage calls: the per-composition API, replaced by
# the (n, D) array functions, then the standalone statistics and dataset helpers
REMOVED = (
    "BalanceVector",
    "Composition",
    "aitchison_distance",
    "balance",
    "check_groups",
    "clr_transform",
    "dummy_regression_r2",
    "eval_ratio",
    "excess_kurtosis",
    "format_config",
    "ilr_transform",
    "quantile_type7",
    "skewness",
    "split_by_group",
)


def test_every_public_name_resolves():
    assert [name for name in coda_ratios.__all__ if not hasattr(coda_ratios, name)] == []


def test_public_names_load_on_first_use():
    assert set(coda_ratios.__all__) <= set(dir(coda_ratios))
    with pytest.raises(AttributeError, match="no_such_name"):
        coda_ratios.no_such_name
    with pytest.raises(ImportError):
        from coda_ratios import no_such_name


# what only analyze runs, and what no command needs
ANALYSIS_MODULES = {f"coda_ratios.{name}" for name in ("report", "stats", "tdist", "boxplot_svg")}
UNUSED_STDLIB = ("json", "logging")


def _imports(*argv, cwd=None) -> tuple[int, set[str]]:
    """Exit code and the modules imported by a fresh ``python -X importtime *argv``."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, encoding="utf-8", cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    return result.returncode, {line.rsplit("|", 1)[1].strip() for line in lines}


FILES = ("--data", "firms.csv", "--config", "analysis.ini")


def _write_inputs(tmp_path, rows="f1,1,2,x\nf2,3,4,y\n"):
    """The files of FILES in ``tmp_path``: two parts and a group, and by default no blank."""
    (tmp_path / "analysis.ini").write_text(
        "[analysis]\nparts = A, B\nsbp = (A|B)\ngroup_variable = g\n", encoding="utf-8"
    )
    (tmp_path / "firms.csv").write_text("firm_id,A,B,g\n" + rows, encoding="utf-8")


def test_commands_but_analyze_load_only_their_own_code(tmp_path):
    _write_inputs(tmp_path)
    _, numpy_alone = _imports("-c", "import numpy")
    runs = {
        "import": ("-c", "import coda_ratios.cli"),
        "transform": ("-m", "coda_ratios.cli", "transform", *FILES),
        "validate": ("-m", "coda_ratios.cli", "validate", *FILES),
        "demo": ("-m", "coda_ratios.cli", "demo", "table1"),
    }
    for name, argv in runs.items():
        code, modules = _imports(*argv, cwd=tmp_path)
        assert code == 0, name
        assert "coda_ratios.dataset" in modules, name  # the run loaded the package
        assert not modules & ANALYSIS_MODULES, name
        extra = {m for m in modules - numpy_alone if m.split(".")[0] in UNUSED_STDLIB}
        assert not extra, name
    # analyze loads the analysis modules on its own
    code, modules = _imports("-m", "coda_ratios.cli", "analyze", *FILES, cwd=tmp_path)
    assert code == 0
    assert ANALYSIS_MODULES <= modules


def test_a_file_without_blanks_is_not_stripped(tmp_path):
    # nothing pads a cell of a plain ASCII file without ' ', '\t', '\v' or '\f', so no
    # np.char.strip runs, nor its lazy import (numpy 1.x imports numpy.char with numpy)
    _write_inputs(tmp_path)
    _, numpy_alone = _imports("-c", "import numpy")
    for command in ("analyze", "transform", "validate"):
        code, modules = _imports("-m", "coda_ratios.cli", command, *FILES, cwd=tmp_path)
        assert code == 0, command
        assert "numpy.char" not in modules - numpy_alone, command
    # a file with a padded id and group cell is still stripped, by np.char.strip
    _write_inputs(tmp_path, rows=" f1 ,1,2,x\nf2,3,4,\ty\n")
    code, modules = _imports("-m", "coda_ratios.cli", "validate", *FILES, cwd=tmp_path)
    assert code == 0
    assert "numpy.char" in modules


def test_removed_names_are_not_exported():
    assert not set(REMOVED) & set(coda_ratios.__all__)
    assert not [name for name in REMOVED if hasattr(coda_ratios, name)]
    assert not hasattr(coda_ratios.PartitionTree, "fingerprint")
    # one group column in place of the name -> column mapping
    assert "externals" not in {f.name for f in dataclasses.fields(coda_ratios.FirmDataset)}
    # kept in coda_ratios.tdist, which the p-value tests import it from
    assert "regularized_incomplete_beta" not in coda_ratios.__all__
    assert not hasattr(coda_ratios, "regularized_incomplete_beta")


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    # the "Library use" block of README.md, run as written, so no removed name survives there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "analysis.ini").write_text(
        "[analysis]\nparts = TA, NCL, CL\nsbp = (TA|(NCL|CL))\ngroup_variable = brand\n\n"
        "[ratios]\nr1 = TA / NCL + CL\n",
        encoding="utf-8",
    )
    (tmp_path / "firms.csv").write_text(
        "firm_id,TA,NCL,CL,brand\nf1,100,20,30,yes\nf2,80,35,25,no\nf3,120,50,10,yes\n"
        "f4,90,15,45,no\nf5,60,22,18,yes\nf6,150,40,35,no\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "['f1' 'f2' 'f3']" in out
    assert out.index("\nno [") < out.index("\nyes [")  # the low group value first
    assert "y1p" in out  # the CSV report
