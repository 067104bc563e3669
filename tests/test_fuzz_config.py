"""Property: every command under arbitrary configuration text reports or exits with an error line.

The trees are drawn from ``conftest.random_tree_text`` or are one-sided
trees of up to 1500 parts, with whitespace between their tokens; ratio
expressions, ``[zeros]`` values and the group variable are drawn too, and
half the configurations get one thing wrong.  As in ``test_fuzz_cli.py``,
an exception escaping ``main`` is a traceback the user would see.
"""

import contextlib
import io
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coda_ratios.cli import main

from conftest import random_tree_text


def one_sided_tree_text(labels) -> str:
    """``(((a|b)|c)…|z)``, built with a loop: the tree is as deep as it has parts."""
    text = labels[0]
    for label in labels[1:]:
        text = f"({text}|{label})"
    return text


def spaced(rng: np.random.Generator, text: str) -> str:
    """``text`` with random blanks and tabs between its tokens."""
    tokens = re.findall(r"[()|]|[^()|]+", text)
    gaps = rng.choice(["", "", " ", "\t", " \t "], size=len(tokens))
    return "".join(gap + token for gap, token in zip(gaps, tokens))


def write_files(workdir, parts, sbp, ratios, zeros, group_variable, rows):
    lines = ["[analysis]", f"parts = {', '.join(parts)}", f"sbp = {sbp}"]
    if group_variable is not None:
        lines.append(f"group_variable = {group_variable}")
    if ratios:
        lines += ["[ratios]", *(f"{name} = {expr}" for name, expr in ratios)]
    if zeros:
        lines += ["[zeros]", *(f"{key} = {value}" for key, value in zeros)]
    (workdir / "fuzz.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")
    header = ["firm_id", *parts, "brand"]
    body = [",".join([f"f{i}", *map(str, row), "yes" if i % 2 else "no"]) for i, row in enumerate(rows)]
    (workdir / "fuzz.csv").write_text("\n".join([",".join(header), *body]) + "\n", encoding="utf-8")


def run(workdir, command):
    """``main``'s exit code and stderr for ``command`` on the written files.

    ``main`` runs 1000 frames below the recursion limit, as a program starts:
    hypothesis raises the limit while a property runs.
    """
    argv = [command, "--data", str(workdir / "fuzz.csv"), "--config", str(workdir / "fuzz.ini")]
    err = io.StringIO()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 1000)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # module scope: one directory for all examples, rewritten by each
    return tmp_path_factory.mktemp("fuzz_config")


labels = st.lists(
    st.sampled_from(["TA", "NCL", "CL", "E", "x_1", "_", "P0", "P1"]), min_size=2, max_size=8, unique=True
)
trees = st.one_of(
    st.tuples(st.just("random"), labels),
    st.tuples(
        st.just("one_sided"),
        # a tree as deep as it has parts; past about 1000 parts is rare, for a deep one costs seconds
        st.sampled_from([(2, 30)] * 6 + [(2, 1500), (1000, 1500)])
        .flatmap(lambda sizes: st.integers(*sizes))
        .map(lambda d: [f"P{i}" for i in range(d)]),
    ),
)
# each ratio as its count of distinct parts and how many of them are the numerator
ratio_sizes = st.lists(st.integers(2, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k - 1))), max_size=2)
zeros = st.tuples(
    st.sampled_from([None, "reject", "drop_row", "replace"]),
    st.sampled_from([None, "0.65", "0.5", "1e-300"]),
)
# one thing a broken configuration gets wrong
FAULTS = [
    *(("parts", bad) for bad in ["TA", "EXTRA", "", "brand", "firm_id", "P0 P1"]),
    *(("group_variable", bad) for bad in ["firm_id", "P0", "TA", "missing"]),
    *(("ratio", bad) for bad in ["TA / NCL / CL", "/", "P0", "nope / P0", "P0 + P0 / P1", "P0 / P0", " / P1"]),
    *(("ratio_name", bad) for bad in ["y1", "y2p", "r1p"]),
    *(("zeros", bad) for bad in [
        ("mode", "Replace"), ("mode", ""), ("delta_fraction", "0"), ("delta_fraction", "1"),
        ("delta_fraction", "nan"), ("delta_fraction", "abc"), ("unknown", "1"),
    ]),
    *(("sbp", bad) for bad in ["(", ")", "|", "Q", "9", ""]),  # "" deletes a character
]


@settings(max_examples=100)
@given(
    command=st.sampled_from(["analyze", "transform", "validate"]),
    tree=trees,
    ratio_sizes=ratio_sizes,
    zeros=zeros,
    group_variable=st.sampled_from([None, "brand"]),
    fault=st.booleans().flatmap(lambda bad: st.sampled_from(FAULTS) if bad else st.none()),
    seed=st.integers(0, 2**32 - 1),
    zero_cell=st.booleans(),
)
def test_cli_exits_0_or_1_with_an_error_line_on_any_config(
    workdir, command, tree, ratio_sizes, zeros, group_variable, fault, seed, zero_cell
):
    kind, parts = tree
    rng = np.random.default_rng(seed)
    sbp = spaced(rng, random_tree_text(rng, parts) if kind == "random" else one_sided_tree_text(parts))
    ratios = []
    for i, (k, cut) in enumerate(ratio_sizes):
        chosen = rng.choice(parts, size=min(k, len(parts)), replace=False)
        cut = min(cut, len(chosen) - 1)
        ratios.append((f"r{i + 1}", f"{' + '.join(chosen[:cut])} / {' + '.join(chosen[cut:])}"))
    zeros = [(key, value) for key, value in zip(("mode", "delta_fraction"), zeros) if value is not None]
    what, bad = fault or (None, None)
    if what == "parts":  # a part the tree lacks, or one listed twice
        parts = [*parts, bad]
    elif what == "group_variable":
        group_variable = bad
    elif what == "ratio":
        ratios.append(("bad", bad))
    elif what == "ratio_name":
        ratios.append((bad, f"{parts[0]} / {parts[1]}"))
    elif what == "zeros":
        zeros.append(bad)
    elif what == "sbp":
        at = int(rng.integers(len(sbp)))
        sbp = sbp[:at] + bad + sbp[at + (not bad):]
    rows = rng.integers(0 if zero_cell else 1, 50, size=(4, len(parts)))
    write_files(workdir, parts, sbp, ratios, zeros, group_variable, rows)
    code, err = run(workdir, command)
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["validate", "transform", "analyze"])
def test_a_tree_1100_parts_deep_is_read_by_every_command(workdir, command):
    parts = [f"P{i}" for i in range(1100)]
    rows = np.arange(6 * 1100).reshape(6, 1100) % 13 + 1
    write_files(workdir, parts, one_sided_tree_text(parts), [], [], "brand", rows)
    assert run(workdir, command) == (0, "")
