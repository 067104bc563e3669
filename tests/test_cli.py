import contextlib
import errno
import gc
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from coda_ratios import _floattext, cli
from coda_ratios.cli import main
from coda_ratios.dataset import FirmDataset

from conftest import assert_stated_bound

CONFIG_TEXT = """\
[analysis]
parts = TA, NCL, CL
sbp = (TA|(NCL|CL))
group_variable = brand

[ratios]
r1 = TA / NCL + CL
"""

CSV_TEXT = """\
firm_id,TA,NCL,CL,brand
f1,100,20,30,yes
f2,80,35,25,no
f3,120,50,10,yes
f4,90,15,45,no
f5,60,22,18,yes
f6,150,40,35,no
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    (tmp_path / "firms.csv").write_text(CSV_TEXT, encoding="utf-8")
    (tmp_path / "analysis.ini").write_text(CONFIG_TEXT, encoding="utf-8")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    return tmp_path


def _args(workdir, *extra):
    return [
        "--data", str(workdir / "firms.csv"),
        "--config", str(workdir / "analysis.ini"),
        *extra,
    ]


def test_analyze_to_stdout(workdir, capsys):
    assert main(["analyze", *_args(workdir)]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["metadata"]["n"] == 6
    assert doc["metadata"]["timestamp"] == "2023-11-14T22:13:20Z"
    assert [v["name"] for v in doc["variables"]] == ["y1", "y1p", "y2", "y2p", "r1", "r1p"]
    # a stdout without a binary buffer gets the same report as text
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", *_args(workdir)]) == 0
    assert out.getvalue() == text


def test_analyze_to_json_file(workdir):
    out = workdir / "report.json"
    assert main(["analyze", *_args(workdir, "--out", str(out))]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["metadata"]["groups"] == [["no", 3], ["yes", 3]]


def test_analyze_to_csv_file(workdir):
    out = workdir / "report.csv"
    assert main(["analyze", *_args(workdir, "--out", str(out))]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("variable,n,mean")
    assert len(lines) == 1 + 6


def test_analyze_svg(workdir):
    svg = workdir / "boxes.svg"
    out = workdir / "report.json"
    assert main(["analyze", *_args(workdir, "--out", str(out), "--svg", str(svg))]) == 0
    text = svg.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert text.count('data-variable="') == 6


def test_analyze_deterministic_bytes(workdir):
    out1 = workdir / "a.json"
    out2 = workdir / "b.json"
    assert main(["analyze", *_args(workdir, "--out", str(out1))]) == 0
    assert main(["analyze", *_args(workdir, "--out", str(out2))]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_timestamp_from_mtime(workdir, monkeypatch):
    import os

    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    os.utime(workdir / "firms.csv", (1600000000, 1600000000))
    assert main(["analyze", *_args(workdir)]) == 0


@pytest.mark.parametrize(
    "mtime_ns, timestamp",
    [(-1_500_000_000, "1969-12-31T23:59:58Z"), (1_500_000_000, "1970-01-01T00:00:01Z")],
)
def test_analyze_timestamp_is_the_second_the_mtime_falls_in(
    workdir, monkeypatch, capsys, mtime_ns, timestamp
):
    # rounded down, before 1970 too, where truncating toward zero gives the next second
    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    os.utime(workdir / "firms.csv", ns=(mtime_ns, mtime_ns))
    assert main(["analyze", *_args(workdir)]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["timestamp"] == timestamp


def test_analyze_bad_source_date_epoch_exits_1(workdir, monkeypatch, capsys):
    for epoch, what in [
        ("abc", "must be a whole number of seconds"),
        ("99999999999999999", "is out of range"),  # past the platform's time_t
        ("-99999999999", "is out of range"),  # before year 1
        ("253402300800", "is out of range"),  # year 10000
    ]:
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert main(["analyze", *_args(workdir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: SOURCE_DATE_EPOCH {what}, got {epoch!r}\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    "epoch, timestamp",
    [("-60000000000", "0068-09-03T13:20:00Z"), ("-62135596800", "0001-01-01T00:00:00Z")],
)
def test_analyze_timestamp_pads_the_year(workdir, monkeypatch, capsys, epoch, timestamp):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    assert main(["analyze", *_args(workdir)]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["timestamp"] == timestamp


def test_analyze_out_of_range_mtime_names_the_data_file(monkeypatch):
    # no file system at hand stores a modification time past year 9999, so os.stat is faked
    fake_os = type(os)("os")
    fake_os.environ = {}
    fake_os.stat = lambda path: os.stat_result((0,) * 8 + (1e17, 0), {"st_mtime_ns": 10**26})
    monkeypatch.setattr(cli, "os", fake_os)
    with pytest.raises(cli.CodaError) as excinfo:
        cli._timestamp_for("firms.csv")
    assert str(excinfo.value) == "the modification time of firms.csv is out of range"


def test_analyze_header_only_csv_exits_1(workdir):
    # a real process: pytest would capture a warning that a user sees on stderr
    (workdir / "empty.csv").write_text("firm_id,TA,NCL,CL,brand\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "coda_ratios.cli", "analyze", "--data", str(workdir / "empty.csv"),
         "--config", str(workdir / "analysis.ini")],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 1
    (line,) = result.stderr.decode("utf-8").splitlines(keepends=True)
    assert line.startswith("error: ") and line.endswith("\n")


@pytest.mark.parametrize("command", ["validate", "transform"])
def test_header_only_csv_exits_1(workdir, command):
    # no group variable, so no group check can reject the file first
    (workdir / "plain.ini").write_text(
        "[analysis]\nparts = TA, NCL, CL\nsbp = (TA|(NCL|CL))\n", encoding="utf-8"
    )
    (workdir / "empty.csv").write_text("firm_id,TA,NCL,CL,brand\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "coda_ratios.cli", command, "--data", str(workdir / "empty.csv"),
         "--config", str(workdir / "plain.ini")],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr == b"error: empty data\n"


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize(
    "ratios,message",
    [
        # a part repeated within a side was summed twice: r reported 2*A/B
        ("r = TA + TA / CL\n", "duplicate part label(s): TA"),
        ("r = TA / TA\n", "duplicate part label(s): TA"),
        # each of these gave a report with one variable name twice
        ("y1 = TA / CL\n", "duplicate variable name(s): y1, y1p"),
        ("r = TA / CL\nrp = NCL / CL\n", "duplicate variable name(s): rp"),
    ],
    ids=["part-twice-in-numerator", "part-on-both-sides", "named-like-balance", "named-like-twin"],
)
def test_ambiguous_ratio_config_exits_1(workdir, command, ratios, message):
    (workdir / "clash.ini").write_text(
        "[analysis]\nparts = TA, NCL, CL\nsbp = (TA|(NCL|CL))\n[ratios]\n" + ratios,
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "coda_ratios.cli", command, "--data", str(workdir / "firms.csv"),
         "--config", str(workdir / "clash.ini")],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr == f"error: {message}\n".encode("utf-8")


@pytest.mark.parametrize(
    "parts,variable",
    [
        ("1,1e308,1.5e308", "r1p"),  # NCL + CL overflows, so r1p = inf
    ],
)
@pytest.mark.filterwarnings("error")  # the error line is all that reaches stderr
def test_analyze_overflowing_statistic_exits_1(workdir, capsys, parts, variable):
    (workdir / "huge.csv").write_text(CSV_TEXT + f"f7,{parts},yes\n", encoding="utf-8")
    out = workdir / "report.json"
    code = main(
        [
            "analyze",
            "--data", str(workdir / "huge.csv"),
            "--config", str(workdir / "analysis.ini"),
            "--out", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: variable {variable!r} has a statistic that is not finite")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "data",
    [
        # unscaled, r1's squared deviations, or r1p's m2**1.5, would pass 1.8e308
        CSV_TEXT + "f7,1e200,1,1,yes\n",
        CSV_TEXT + "f7,1e308,1e-300,1,yes\n",
        CSV_TEXT + "f7,1,1,1.3e103,yes\n",
        # unscaled, r1's m2**2 would underflow to 0 and r1p's squared deviations overflow
        "firm_id,TA,NCL,CL,brand\n"
        + "".join(f"f{k},{k}e-160,1,1,{brand}\n" for k, brand in zip((1, 2, 3, 5, 8, 13), ["yes", "no"] * 3)),
    ],
    ids=["1e200,1,1", "1e308,1e-300,1", "1,1,1.3e103", "1e-160"],
)
@pytest.mark.filterwarnings("error")
def test_analyze_reports_moments_of_values_near_the_float_range_ends(workdir, data):
    (workdir / "far.csv").write_text(data, encoding="utf-8")
    out = workdir / "report.json"
    code = main(
        ["analyze", "--data", str(workdir / "far.csv"), "--config", str(workdir / "analysis.ini"), "--out", str(out)]
    )
    assert code == 0
    variables = {v["name"]: v for v in json.loads(out.read_text(encoding="utf-8"))["variables"]}
    firms = [line.split(",") for line in data.splitlines()[1:]]
    yes = [brand == "yes" for *_, brand in firms]
    r1 = [float(ta) / (float(ncl) + float(cl)) for _, ta, ncl, cl, _ in firms]
    r1p = [(float(ncl) + float(cl)) / float(ta) for _, ta, ncl, cl, _ in firms]
    for name, values in (("r1", r1), ("r1p", r1p)):
        entry = variables[name]
        stats, comparison = SimpleNamespace(**entry["stats"]), SimpleNamespace(**entry["comparison"])
        assert_stated_bound(values, stats, comparison, yes)


@pytest.mark.filterwarnings("error")  # the error line is all that reaches stderr
def test_analyze_svg_span_too_wide_exits_1_and_writes_nothing(tmp_path, capsys):
    # with under 4 firms no moment is computed, so only the plot's scale
    # meets the 1e307: (vmax - v) * 360 overflows for the ratio A / B
    (tmp_path / "wide.csv").write_text(
        "firm_id,A,B,C,g\nf1,1,2,3,x\nf2,2,3,4,y\nf3,1e307,0.5,4,y\n", encoding="utf-8"
    )
    (tmp_path / "wide.ini").write_text(
        "[analysis]\nparts = A, B, C\nsbp = (A|(B|C))\ngroup_variable = g\n"
        "\n[ratios]\nr = A / B\n",
        encoding="utf-8",
    )
    out, svg = tmp_path / "report.json", tmp_path / "boxes.svg"
    code = main(
        [
            "analyze",
            "--data", str(tmp_path / "wide.csv"),
            "--config", str(tmp_path / "wide.ini"),
            "--out", str(out),
            "--svg", str(svg),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: box plot values from ")
    assert err.count("\n") == 1
    assert not out.exists() and not svg.exists()


@pytest.mark.filterwarnings("error")  # the error line is all that reaches stderr
def test_analyze_svg_of_a_name_xml_cannot_carry_exits_1_and_writes_nothing(workdir, capsys):
    # a config key may hold a control character; JSON escapes it, XML 1.0 has no way to
    (workdir / "analysis.ini").write_text(CONFIG_TEXT.replace("r1 =", "r\x01x ="), encoding="utf-8")
    out, svg = workdir / "report.json", workdir / "boxes.svg"
    assert main(["analyze", *_args(workdir, "--out", str(out), "--svg", str(svg))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: variable 'r\\x01x' holds a character")
    assert err.count("\n") == 1
    assert not out.exists() and not svg.exists()

    assert main(["analyze", *_args(workdir, "--out", str(out))]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["variables"][4]["name"] == "r\x01x"


def test_analyze_missing_file_exits_1(workdir, capsys):
    code = main(
        ["analyze", "--data", str(workdir / "nope.csv"), "--config", str(workdir / "analysis.ini")]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_analyze_bad_data_exits_1(workdir, capsys):
    (workdir / "bad.csv").write_text(
        "firm_id,TA,NCL,CL,brand\nf1,1,xyz,3,yes\n", encoding="utf-8"
    )
    code = main(
        ["analyze", "--data", str(workdir / "bad.csv"), "--config", str(workdir / "analysis.ini")]
    )
    assert code == 1
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "transform", "validate"])
@pytest.mark.parametrize(
    "name,old,new,bad",
    [
        # a Latin-1 firm id in a row past the first 8 KiB the reader decodes
        ("firms.csv", b"f6,", b"".join(b"g%d,1,2,3,no\n" % k for k in range(1000)) + b"f\xe96,", b"\xe9"),
        ("analysis.ini", b"(NCL|CL)", b"(NCL|C\xffL)", b"\xff"),
    ],
    ids=["data", "config"],
)
def test_non_utf8_file_exits_1(workdir, capsys, command, name, old, new, bad):
    path = workdir / name
    # behind a byte-order mark: the offset counts from the start of the file
    data = b"\xef\xbb\xbf" + path.read_bytes().replace(old, new)
    path.write_bytes(data)
    assert main([command, *_args(workdir)]) == 1
    offset = data.index(bad)
    assert capsys.readouterr().err == (
        f"error: {path} is not valid UTF-8: byte {bad[0]:#04x} at byte offset {offset}\n"
    )


@pytest.mark.parametrize("command", ["analyze", "transform", "validate"])
def test_csv_syntax_error_exits_1(workdir, capsys, command):
    # a 140 KB cell passes the csv module's field limit
    path = workdir / "firms.csv"
    path.write_text(CSV_TEXT.replace("f3,", "f3" + "0" * 140_000 + ","), encoding="utf-8")
    assert main([command, *_args(workdir)]) == 1
    err = capsys.readouterr().err
    assert err == "error: malformed CSV at line 4: field larger than field limit (131072)\n"


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("name", ["firm_id", "NCL"])
def test_group_variable_naming_id_or_part_exits_1(workdir, capsys, command, name):
    path = workdir / "analysis.ini"
    path.write_text(CONFIG_TEXT.replace("= brand", f"= {name}"), encoding="utf-8")
    assert main([command, *_args(workdir)]) == 1
    assert capsys.readouterr().err == (
        "error: the group variable must be a column other than firm_id and the parts, "
        f"got {name!r}\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_non_utf8_pipe_exits_1(workdir):
    # a pipe cannot tell its position, so the offset is unknown
    result = subprocess.run(
        [sys.executable, "-m", "coda_ratios.cli", "validate", "--data", "/dev/stdin",
         "--config", str(workdir / "analysis.ini")],
        input=CSV_TEXT.encode("utf-8").replace(b"f6,", b"f\xe96,"),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 1
    assert result.stderr == (
        b"error: /dev/stdin is not valid UTF-8: byte 0xe9 at byte offset unknown\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_validate_reads_a_pipe_with_cr_line_ends(workdir):
    # a pipe is read into memory first; a lone CR still ends a line, as it does in a file
    result = subprocess.run(
        [sys.executable, "-m", "coda_ratios.cli", "validate", "--data", "/dev/stdin",
         "--config", str(workdir / "analysis.ini")],
        input=CSV_TEXT.replace("\n", "\r").encode("utf-8"),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout.startswith(b"OK: 6 firm(s)")


def test_analyze_bad_out_extension_exits_2(workdir):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", *_args(workdir, "--out", "report.txt")])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("svg", ["r.json", "./sub/../r.json"])
def test_analyze_out_and_svg_naming_one_file_exits_2(workdir, monkeypatch, capsys, svg):
    monkeypatch.chdir(workdir)
    (workdir / "sub").mkdir()
    (workdir / "r.json").write_bytes(b"kept")
    (workdir / "firms.csv").unlink()  # exits before reading anything
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", *_args(workdir, "--out", "r.json", "--svg", svg)])
    assert excinfo.value.code == 2
    assert "--out and --svg must name different files" in capsys.readouterr().err
    assert (workdir / "r.json").read_bytes() == b"kept"


@pytest.mark.parametrize(
    "flag, target, clash",
    [
        ("--svg", "firms.csv", "--data"),
        ("--out", "firms.csv", "--data"),
        ("--svg", "analysis.ini", "--config"),
        ("--svg", "./sub/../firms.csv", "--data"),
        ("--svg", "link.csv", "--data"),  # a symlink to the data file
        ("--svg", "hard.csv", "--data"),  # a hard link to the data file
        ("--out", "hard.ini.json", "--config"),  # a hard link to the config file
    ],
)
def test_analyze_output_naming_an_input_exits_2(workdir, monkeypatch, capsys, flag, target, clash):
    monkeypatch.chdir(workdir)
    (workdir / "sub").mkdir()
    (workdir / "link.csv").symlink_to(workdir / "firms.csv")
    os.link(workdir / "firms.csv", workdir / "hard.csv")
    os.link(workdir / "analysis.ini", workdir / "hard.ini.json")
    inputs = {name: (workdir / name).read_bytes() for name in ("firms.csv", "analysis.ini")}
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--data", "firms.csv", "--config", "analysis.ini", flag, target])
    assert excinfo.value.code == 2
    assert f"{clash} and {flag} must name different files" in capsys.readouterr().err
    assert {name: (workdir / name).read_bytes() for name in inputs} == inputs


@pytest.mark.parametrize(
    "svg, reason",
    [("missing/b.svg", "[Errno 2] No such file or directory"), ("sub", "[Errno 21] Is a directory")],
)
def test_analyze_failing_output_leaves_the_other_unchanged(workdir, monkeypatch, capsys, svg, reason):
    monkeypatch.chdir(workdir)
    (workdir / "sub").mkdir()
    (workdir / "r.json").write_bytes(b"kept")
    before = sorted(os.listdir(workdir))
    assert main(["analyze", *_args(workdir, "--out", "r.json", "--svg", svg)]) == 1
    assert capsys.readouterr().err == f"error: {reason}: {svg!r}\n"  # the output's name, as before
    assert (workdir / "r.json").read_bytes() == b"kept"
    assert sorted(os.listdir(workdir)) == before and os.listdir(workdir / "sub") == []


@pytest.mark.parametrize("out", [None, "r.json"], ids=["stdout", "file"])
def test_analyze_write_error_leaves_no_temporary_file(workdir, monkeypatch, capsys, out):
    class FullDisk(io.FileIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fake_open(path, mode):  # the SVG's write fails, after the report's succeeded
        return (FullDisk if ".svg." in path else io.FileIO)(path, mode.replace("b", ""))

    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    (workdir / "r.json").write_bytes(b"kept")
    (workdir / "b.svg").write_bytes(b"kept")
    before = sorted(os.listdir(workdir))
    extra = ("--svg", "b.svg") if out is None else ("--out", out, "--svg", "b.svg")
    assert main(["analyze", *_args(workdir, *extra)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert captured.out == ""
    assert sorted(os.listdir(workdir)) == before
    assert (workdir / "r.json").read_bytes() == (workdir / "b.svg").read_bytes() == b"kept"


def test_analyze_passes_over_a_temporary_file_an_earlier_run_left(workdir, monkeypatch, capsys):
    # a run killed before its move leaves <output>.<pid>.tmp, and a later run may get its pid
    monkeypatch.chdir(workdir)
    stale = {f"r.json.{os.getpid()}.tmp": b"stale", f"r.json.{os.getpid()}.1.tmp": b"stale too"}
    for name, data in stale.items():
        (workdir / name).write_bytes(data)
    assert main(["analyze", *_args(workdir, "--out", "r.json", "--svg", "b.svg")]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((workdir / "r.json").read_bytes())["metadata"]["n"] == 6
    assert (workdir / "b.svg").read_bytes().startswith(b"<svg ")
    # the run writes and removes no file but its own
    assert {name: (workdir / name).read_bytes() for name in stale} == stale
    assert sorted(os.listdir(workdir)) == sorted(["analysis.ini", "b.svg", "firms.csv", "r.json", *stale])


def test_analyze_replaces_each_output_with_a_new_file(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    (workdir / "r.json").write_bytes(b"kept")
    os.chmod(workdir / "r.json", 0o600)
    os.link(workdir / "r.json", workdir / "hard.json")
    (workdir / "target.svg").write_bytes(b"kept")
    (workdir / "b.svg").symlink_to(workdir / "target.svg")
    old_umask = os.umask(0o022)
    try:
        assert main(["analyze", *_args(workdir, "--out", "r.json", "--svg", "b.svg")]) == 0
    finally:
        os.umask(old_umask)
    assert json.loads((workdir / "r.json").read_bytes())["metadata"]["n"] == 6
    assert (workdir / "r.json").stat().st_mode & 0o777 == 0o644  # the umask's, not the old mode
    assert (workdir / "hard.json").read_bytes() == b"kept"  # a new inode: the link keeps the old bytes
    assert not (workdir / "b.svg").is_symlink()  # the link is replaced, not written through
    assert (workdir / "b.svg").read_bytes().startswith(b"<svg ")
    assert (workdir / "target.svg").read_bytes() == b"kept"
    assert sorted(os.listdir(workdir)) == [
        "analysis.ini", "b.svg", "firms.csv", "hard.json", "r.json", "target.svg"
    ]


@pytest.mark.parametrize(
    "device, code, err",
    [("/dev/null", 0, ""), ("/dev/full", 1, "error: [Errno 28] No space left on device\n")],
)
def test_analyze_writes_an_output_that_is_a_device_in_place(workdir, monkeypatch, capsys, device, code, err):
    if not os.path.exists(device):
        pytest.skip(f"{device} is not available")
    real_replace = os.replace

    def replace(src, dst):  # a device node is never swapped for a file, even if the check regresses
        assert os.path.dirname(os.path.abspath(dst)) == str(workdir), dst
        real_replace(src, dst)

    monkeypatch.chdir(workdir)
    monkeypatch.setattr(os, "replace", replace)
    (workdir / "r.json").write_bytes(b"kept")
    before = sorted(os.listdir(workdir))
    assert main(["analyze", *_args(workdir, "--out", "r.json", "--svg", device)]) == code
    assert capsys.readouterr().err == err
    assert stat.S_ISCHR(os.stat(device).st_mode)
    assert sorted(os.listdir(workdir)) == before
    # the report is replaced only once the device is written
    assert ((workdir / "r.json").read_bytes() == b"kept") == bool(code)


def test_analyze_writes_an_output_that_is_a_pipe_in_place(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    assert main(["analyze", *_args(workdir)]) == 0
    report = capsys.readouterr().out.encode("utf-8")
    assert len(report) < 16384  # fits in the pipe's buffer: no reader thread is needed
    os.mkfifo(workdir / "r.json")
    # open for reading and writing, so the writer's open does not wait for a reader
    fd = os.open(workdir / "r.json", os.O_RDWR | os.O_NONBLOCK)
    try:
        assert main(["analyze", *_args(workdir, "--out", "r.json")]) == 0
        chunks = []
        with contextlib.suppress(BlockingIOError):
            while True:
                chunks.append(os.read(fd, 65536))
    finally:
        os.close(fd)
    assert b"".join(chunks) == report
    assert stat.S_ISFIFO(os.stat(workdir / "r.json").st_mode)
    assert sorted(os.listdir(workdir)) == ["analysis.ini", "firms.csv", "r.json"]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 2


def test_transform(workdir, capsys):
    assert main(["transform", *_args(workdir)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "firm_id,y1,y2"
    assert len(lines) == 1 + 6
    firm_id, y1, y2 = lines[1].split(",")
    assert firm_id == "f1"
    float(y1), float(y2)  # repr floats parse


def test_validate_ok(workdir, capsys):
    assert main(["validate", *_args(workdir)]) == 0
    out = capsys.readouterr().out
    assert "OK: 6 firm(s), 3 part(s) (TA, NCL, CL)" in out
    assert "no: 3, yes: 3" in out
    # a group value holding a newline is written as its repr, so the OK line stays one line
    (workdir / "newline.csv").write_text(
        'firm_id,TA,NCL,CL,brand\nf1,1,2,3,"a\nb"\nf2,4,5,6,no\n', encoding="utf-8"
    )
    argv = ["validate", "--data", str(workdir / "newline.csv"), "--config", str(workdir / "analysis.ini")]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "OK: group variable 'brand' splits as 'a\\nb': 1, no: 1"


def test_validate_single_group_fails(workdir, capsys):
    (workdir / "one.csv").write_text(
        "firm_id,TA,NCL,CL,brand\nf1,1,2,3,yes\nf2,4,5,6,yes\n", encoding="utf-8"
    )
    code = main(
        ["validate", "--data", str(workdir / "one.csv"), "--config", str(workdir / "analysis.ini")]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no "OK:" line before the error
    assert captured.err == "error: need exactly two distinct groups, got 1: 'yes'\n"


def test_demo_table1(capsys):
    assert main(["demo", "table1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "firm,mg1,mg2,alpha_deg,ratio21,ratio12,ilr"
    assert len(lines) == 1 + 10
    first = lines[1].split(",")
    assert first[0] == "firm01"
    assert float(first[1]) == 0.5
    assert float(first[2]) == 4.0
    assert float(first[4]) == 8.0
    # the balanced firm sits exactly on the diagonal
    mid = lines[5].split(",")
    assert float(mid[3]) == 45.0
    assert float(mid[6]) == 0.0


def _program(workdir, *argv, **env):
    """Run ``python -m coda_ratios.cli`` as a child with its stdout on a buffered pipe."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "coda_ratios.cli", *argv],
        capture_output=True,
        cwd=workdir,
        env={**base, "PYTHONPATH": os.pathsep.join(sys.path), **env},
    )


@pytest.mark.parametrize("command", ["transform", "validate", "analyze", "demo"])
def test_stdout_is_utf8_whatever_the_locale(workdir, command, monkeypatch):
    # a firm id and a group value that neither ASCII nor Latin-1 writes as UTF-8 bytes
    text = CSV_TEXT.replace("f1,", "firmé,").replace("yes", "sí")
    (workdir / "firms.csv").write_text(text, encoding="utf-8")
    argv = [command, *(["table1"] if command == "demo" else _args(workdir))]
    utf8 = _program(workdir, *argv, PYTHONIOENCODING="utf-8")
    assert (utf8.returncode, utf8.stderr) == (0, b"")
    if command in ("transform", "validate"):  # the JSON report escapes non-ASCII text
        assert ("firmé" if command == "transform" else "sí").encode("utf-8") in utf8.stdout
    for encoding in ("ascii", "latin-1"):
        other = _program(workdir, *argv, PYTHONIOENCODING=encoding)
        assert (other.returncode, other.stderr, other.stdout) == (0, b"", utf8.stdout), encoding
        # in-process, on a text stdout of that encoding, main writes the program's bytes
        stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0, encoding
        stdout.flush()
        assert stdout.buffer.getvalue() == utf8.stdout, encoding


@pytest.mark.skipif(os.name != "posix", reason="closes the child's stdout before exec")
def test_program_with_stdout_closed_writes_its_files(workdir):
    result = subprocess.run(
        [sys.executable, "-m", "coda_ratios.cli", "analyze", *_args(workdir, "--out", "r.json")],
        stderr=subprocess.PIPE,
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=lambda: os.close(1),
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert json.loads((workdir / "r.json").read_text(encoding="utf-8"))["variables"]


@pytest.mark.skipif(os.name != "posix", reason="closes the child's stdout before exec")
@pytest.mark.parametrize("command", ["demo", "transform", "validate", "analyze", "analyze --svg"])
def test_program_with_stdout_closed_and_nothing_else_to_write_exits_1(workdir, command):
    name, *extra = command.split()
    argv = ["table1"] if name == "demo" else _args(workdir, *[arg + "=p.svg" for arg in extra])
    result = subprocess.run(
        [sys.executable, "-m", "coda_ratios.cli", name, *argv],
        stderr=subprocess.PIPE,
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=lambda: os.close(1),
    )
    assert (result.returncode, result.stderr) == (1, b"error: stdout is closed\n")
    assert not (workdir / "p.svg").exists()  # an error writes no file


def test_in_process_main_does_not_freeze_the_heap(workdir, capsys):
    before = gc.get_freeze_count()
    assert main(["transform", *_args(workdir)]) == 0
    assert main(["demo", "table1"]) == 0
    assert gc.get_freeze_count() == before


def test_program_entry_freezes_the_heap():
    # main() with no arguments, as the console script calls it
    child = (
        "import gc, sys\n"
        "from coda_ratios.cli import main\n"
        "sys.argv = ['coda-ratios', 'demo', 'table1']\n"
        "main()\n"
        "sys.stderr.write(str(gc.get_freeze_count() > 0))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child], capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (result.returncode, result.stderr) == (0, b"True")


def test_transform_holds_one_block_of_rows_at_a_time(workdir, monkeypatch):
    # past the load, what transform allocates is set by the formatter block, not by n: no
    # whole-table log or coordinate matrix, and no string of every id
    n, block = 50_000, 1024
    values = np.random.default_rng(2).lognormal(3.0, 1.5, size=(n, 3))
    ds = FirmDataset(firm_ids=[f"f{i}" for i in range(n)], part_labels=("TA", "NCL", "CL"), values=values)
    monkeypatch.setattr(cli, "load_dataset_csv", lambda path, config: ds)
    monkeypatch.setattr(_floattext, "_BLOCK", block)

    class Discard:  # stdout that keeps nothing
        write = staticmethod(len)

    with contextlib.redirect_stdout(Discard()):
        assert main(["transform", *_args(workdir)]) == 0  # first-call costs, such as imports
        tracemalloc.start()
        try:
            assert main(["transform", *_args(workdir)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 400 * block  # bytes; the (n, 3) values alone take 1.2 MB


def test_analyze_lets_the_dataset_go_before_the_statistics(workdir, monkeypatch, capsys):
    # no statistic reads a firm id or group cell, so none is held while they run: on every
    # Python, also where a call's arguments stay referenced from the caller's frame (3.10)
    from coda_ratios import report

    load, describe = cli.load_dataset_csv, report.describe
    held, alive = [], []

    def loading(path, config):
        ds = load(path, config)
        held.extend(weakref.ref(x) for x in (ds, ds.firm_ids, ds.group))
        return ds

    def describing(values):
        alive.append([ref() is not None for ref in held])
        return describe(values)

    monkeypatch.setattr(cli, "load_dataset_csv", loading)
    monkeypatch.setattr(report, "describe", describing)
    assert main(["analyze", *_args(workdir)]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["n"] == 6
    assert alive[0] == [False, False, False]


def test_program_to_a_pipe_writes_the_in_process_bytes(workdir, capsys):
    # rows of 2 values fill three formatter blocks, so the child's exit flushes several writes
    rows = _floattext._BLOCK + 3
    magnitudes = np.random.default_rng(0).lognormal(3.0, 1.5, size=(rows, 3))
    lines = [f"f{i},{a!r},{b!r},{c!r},{'yes' if i % 2 else 'no'}" for i, (a, b, c) in
             enumerate(magnitudes.tolist())]
    (workdir / "firms.csv").write_text("firm_id,TA,NCL,CL,brand\n" + "\n".join(lines) + "\n",
                                       encoding="utf-8")
    assert main(["transform", *_args(workdir)]) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    assert expected.count(b"\n") == 1 + rows
    result = _program(workdir, "transform", *_args(workdir))
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == expected
