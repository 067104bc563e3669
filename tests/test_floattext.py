"""The bulk float formatter writes exactly ``repr``'s text, on any CPU."""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import coda_ratios
from coda_ratios import _floattext, cli
from coda_ratios._floattext import repr_rows


def _reprs(values) -> list[str]:
    """One repr_rows line per value."""
    return repr_rows(np.asarray(values, dtype=np.float64)[:, None], b"", b"\n").decode("ascii").split("\n")[:-1]


def _samples(seed: int, n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "normal": rng.standard_normal(n),
        "wide exponents": rng.standard_normal(n) * 10.0 ** rng.integers(-8, 18, n),
        "cents": np.round(rng.uniform(-1e6, 1e6, n), 2),
        "random bit patterns": rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        "integers / 8": rng.integers(-(10**7), 10**7, n) / 8,
    }


@pytest.mark.parametrize("kind", list(_samples(0, 1)))
def test_matches_repr_on_200k_values_of_each_kind(kind):
    values = _samples(12, 200_000)[kind]  # 10**6 values over the five kinds
    expected = [repr(v) for v in values.tolist()]
    got = _reprs(values)
    assert len(got) == len(expected)
    bad = [(e, g) for e, g in zip(expected, got) if e != g]
    assert bad == []


def _edges() -> list[float]:
    near = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, 2.0**52, 2.0**52 - 0.5,
        0.1, 0.2, 0.3, 1 / 3, 2 / 3, 99999.99999999999, 1e16, 1e15, 9007199254740993.0,
        1e17, 1.7976931348623157e308, 0.5, 1.5, 3.0, 12.5, 0.00123,
        # a candidate exactly half a step away: the r >= step // 2 fold and the d == -step / 2 tie
        0.125, 1.25, 6.25, 0.0625, 2.5e-3,
    ]
    near += [2.0**e for e in range(-20, 60)] + [10.0**e for e in range(-6, 23)]
    values = []
    for v in near:
        values += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    values += [math.inf, -math.inf, math.nan]
    return values + [-v for v in values]


def test_matches_repr_on_edge_values():
    values = _edges()
    assert _reprs(values) == [repr(v) for v in values]


def test_fast_domain_covers_typical_values():
    # the exact path, not repr, writes these: a fast domain that shrank to nothing would
    # still pass every comparison with repr
    values = np.array([0.1, 1 / 3, -12.5, 0.00123, 99999.99999999999, 1234567.125, 3.0])
    with mock.patch("builtins.repr", side_effect=AssertionError("repr called")):
        text = repr_rows(values[:, None], b"", b"\n").decode("ascii")
    assert text.split("\n")[:-1] == [repr(v) for v in values.tolist()]


@pytest.mark.parametrize("width", [1, 3, 7])
def test_rows_across_block_boundaries(width, monkeypatch):
    monkeypatch.setattr(_floattext, "_BLOCK", 12)
    rng = np.random.default_rng(width)
    values = np.concatenate([rng.standard_normal(60), np.array(_edges())])
    for rows in (0, 1, 12 // width - 1, 12 // width, 12 // width + 1, 29):
        table = rng.choice(values, size=(rows, width))
        expected = "".join(",".join(["", *map(repr, row)]) + "\n" for row in table.tolist())
        assert repr_rows(table, b",", b"\n") == expected.encode("ascii")


def _significant_digits(text: str) -> int:
    """Digits of a positional repr from its first nonzero digit to its last."""
    return len(text.lstrip("-").replace(".", "").strip("0"))


@pytest.mark.parametrize("block", [12, 97, 8192])
def test_every_digit_count_in_shuffled_blocks_matches_repr(block, monkeypatch):
    # m of d digits times 10**e is repr'd in at most d digits, so the digit loop narrows its
    # candidates at every step and stops at each j from 1 to 16; shuffled, the candidates a
    # step keeps are not next to each other
    monkeypatch.setattr(_floattext, "_BLOCK", block)
    rng = np.random.default_rng(block)
    values = []
    for d in range(1, 18):
        for _ in range(120):
            m = int(rng.integers(10 ** (d - 1), 10**d, dtype=np.int64))
            e = int(rng.integers(-2 - d, 16 - d))  # 1e-3 <= |x| < 1e15 < 2**52
            values.append(float(f"{'-' if rng.random() < 0.5 else ''}{m}e{e}"))
    values = rng.permutation(values)
    expected = [repr(v) for v in values.tolist()]
    assert {_significant_digits(t) for t in expected} == set(range(1, 18))
    assert _reprs(values) == expected


_FALLBACK_AND_FAST = [
    0.0, -0.0, 5e-324, -2.5e-320, 1e-5, -9.999999999999999e-05, 0.5, -1024.0, 2.0**52,
    -1.5e300, math.inf, -math.inf, math.nan,  # each goes to repr
    0.1, -1 / 3, 0.0001, 12.5, -99999.99999999999, 4503599627370495.5, 2.718281828459045,
]


# values per formatter block, for rows of 2: under one row, odd, and the whole table
@pytest.mark.parametrize("block", [1, 7, 2048])
def test_transform_mixing_fallback_and_fast_values_matches_csv_writer(tmp_path, block, monkeypatch):
    ids = [f"f{i}" for i in range(len(_FALLBACK_AND_FAST))]
    ids[1], ids[4] = "a,b", 'q"x'  # ids that csv.writer quotes
    with open(tmp_path / "firms.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("firm_id", "A", "B", "C"), *((i, 1, 2, 3) for i in ids)])
    (tmp_path / "analysis.ini").write_text(
        "[analysis]\nparts = A, B, C\nsbp = (A|(B|C))\n", encoding="utf-8"
    )
    # the table transform writes: every fallback class next to fast values, in both columns
    table = np.column_stack([_FALLBACK_AND_FAST, _FALLBACK_AND_FAST[::-1]])
    handed = [0]  # rows of table handed out so far

    def ilr_rows(values, labels, tree):  # the next rows of table, one per firm asked for
        start, handed[0] = handed[0], handed[0] + len(values)
        return table[start : handed[0]]

    monkeypatch.setattr(cli, "ilr_matrix", ilr_rows)
    monkeypatch.setattr(_floattext, "_BLOCK", block)
    out = io.StringIO()
    argv = ["transform", "--data", str(tmp_path / "firms.csv"),
            "--config", str(tmp_path / "analysis.ini")]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["firm_id", "y1", "y2"])
    writer.writerows([firm_id, *map(repr, row)] for firm_id, row in zip(ids, table.tolist()))
    assert out.getvalue() == expected.getvalue()
    assert handed == [len(table)]


_CHILD = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from coda_ratios._floattext import repr_rows
values = np.load(sys.argv[1])
print(__cpu_features__.get("X86_V4", False))
sys.stdout.write(repr_rows(values[:, None], b"", b"\\n").decode("ascii"))
"""


def test_text_does_not_depend_on_avx512(tmp_path):
    # numpy skips the named features in the child, where the CPU has them; the values are
    # made here, as numpy's power itself rounds differently without them
    values = np.concatenate(list(_samples(7, 40_000).values()))
    np.save(tmp_path / "values.npy", values)
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
        PYTHONPATH=os.pathsep.join(
            [str(Path(coda_ratios.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "values.npy")],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=300,
    )
    assert done.returncode == 0, done.stderr
    avx512, text = done.stdout.split("\n", 1)
    assert avx512 == "False"
    assert text.split("\n")[:-1] == [repr(v) for v in values.tolist()]
