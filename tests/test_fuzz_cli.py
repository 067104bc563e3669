"""Property: every command on arbitrary small CSV rows reports or exits with an error line.

``main`` turns each CodaError and OSError into exit code 1; any other
exception escaping it is a traceback the user would see.
"""

import contextlib
import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coda_ratios.cli import main

CONFIG_TEXT = """\
[analysis]
parts = TA, NCL, CL
sbp = (TA|(NCL|CL))
group_variable = brand

[ratios]
r1 = TA / NCL + CL

[zeros]
mode = {mode}
"""

HEADER = ["firm_id", "TA", "NCL", "CL", "brand"]

magnitudes = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0", "1e-160", "5e-324", "1e308"]),
)
cells = st.one_of(
    magnitudes,
    st.floats().map(repr),  # nan, inf and negatives too
    st.sampled_from(["", " ", "yes", "no", "1_000", "1,5", "abc", '"', "é"]),
)
firm_ids = st.text(alphabet='ab1,"', min_size=1, max_size=4)
brands = st.sampled_from(["yes", "no"])
# well-formed rows, distinct firms: these reach the statistics
firms = st.lists(
    st.tuples(firm_ids, magnitudes, magnitudes, magnitudes, brands),
    max_size=8,
    unique_by=lambda row: row[0],
)
# then rows of up to 8 arbitrary cells, in header order while they last
columns = (st.text(alphabet='ab1 ,"', max_size=4), cells, cells, cells, st.one_of(brands, cells))
columns += (cells,) * 3
junk_rows = st.lists(st.integers(0, 8).flatmap(lambda k: st.tuples(*columns[:k])), max_size=3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # module scope: one directory for all examples, rewritten by each
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    command=st.sampled_from(["analyze", "transform", "validate"]),
    mode=st.sampled_from(["reject", "drop_row", "replace"]),
    firms=firms,
    junk=junk_rows,
    quoted=st.booleans(),
    latin1=st.one_of(st.none(), st.tuples(st.integers(0, 10), st.integers(0, 7))),
)
def test_cli_exits_0_1_or_2_on_any_rows(workdir, command, mode, firms, junk, quoted, latin1):
    (workdir / "fuzz.ini").write_text(CONFIG_TEXT.format(mode=mode), encoding="utf-8")
    firms, junk = [list(row) for row in firms], [list(row) for row in junk]
    rows = [row for row in firms + junk if row]
    if latin1 is not None and rows:
        # "\udce9" is written as the single byte 0xe9 (Latin-1 "é"), not UTF-8
        row = rows[latin1[0] % len(rows)]
        row[latin1[1] % len(row)] += "\udce9"
    with open(workdir / "fuzz.csv", "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([HEADER, *firms])
        if quoted:
            writer.writerows(junk)
        else:  # a comma in a cell splits it, a quote opens a quoted field
            fh.writelines(",".join(row) + "\n" for row in junk)
    argv = [command, "--data", str(workdir / "fuzz.csv"), "--config", str(workdir / "fuzz.ini")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)
