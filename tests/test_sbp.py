import re
import tracemalloc

import numpy as np
import pytest

from coda_ratios import PartitionTree, format_sbp, parse_sbp, validate_tree
from coda_ratios.errors import CodaError, DuplicateLabelError, LabelMismatchError, SbpSyntaxError

from conftest import random_tree, reference_splits, tree_text


def test_two_part_tree():
    tree = parse_sbp("(A|B)")
    assert tree.leaf_labels == ("A", "B")
    assert tree.dimension == 2
    assert tree.coordinate_names == ("y1",)
    assert tree.splits == ((0, 1, 2),)


def test_three_part_tree_preorder():
    tree = parse_sbp("(TA|(NCL|CL))")
    assert tree.leaf_labels == ("TA", "NCL", "CL")
    assert tree.coordinate_names == ("y1", "y2")
    # root balance first, nested balance second
    assert tree.splits == ((0, 1, 3), (1, 2, 3))


def test_preorder_on_deeper_tree():
    tree = parse_sbp("(((A|B)|C)|(D|E))")
    assert tree.leaf_labels == ("A", "B", "C", "D", "E")
    assert tree.splits == ((0, 3, 5), (0, 2, 3), (0, 1, 2), (3, 4, 5))
    assert len(tree.splits) == len(tree.leaf_labels) - 1


def test_whitespace_insignificant():
    tree = parse_sbp("  ( A | ( NCL\t| CL ) )\n")
    assert format_sbp(tree) == "(A|(NCL|CL))"


def test_format_is_canonical():
    text = "(TA|(NCL|CL))"
    tree = parse_sbp(text)
    assert format_sbp(tree) == text
    assert parse_sbp(format_sbp(tree)) == tree


def test_labels_allow_identifier_characters():
    tree = parse_sbp("(_a1|(B_2|c))")
    assert tree.leaf_labels == ("_a1", "B_2", "c")


def test_duplicate_leaf_rejected():
    with pytest.raises(DuplicateLabelError) as err:
        parse_sbp("(A|(B|A))")
    assert err.value.labels == ("A",)


@pytest.mark.parametrize(
    "text,offset,expected",
    [
        ("(A|B", 4, "')'"),
        ("", 0, "'('"),
        ("A|B", 0, "'('"),
        ("(A B)", 3, "'|'"),
        ("(A|)", 3, "label or '('"),
        ("(|B)", 1, "label or '('"),
        ("(A|B))", 5, "end of input"),
        ("(A|B)x", 5, "end of input"),
        ("(9|B)", 1, "label or '('"),
    ],
)
def test_syntax_errors_cite_byte_offsets(text, offset, expected):
    with pytest.raises(SbpSyntaxError) as err:
        parse_sbp(text)
    assert err.value.position == offset
    assert err.value.expected == expected
    assert f"byte offset {offset}" in str(err.value)


def test_syntax_error_offset_counts_bytes_not_chars():
    # a two-byte UTF-8 character inside leading whitespace shifts byte offsets
    text = " (A|B"
    with pytest.raises(SbpSyntaxError) as err:
        parse_sbp(text)
    assert err.value.position == len(text.encode("utf-8"))


def test_validate_tree_accepts_matching_labels():
    tree = parse_sbp("(TA|(NCL|CL))")
    validate_tree(tree, {"TA", "NCL", "CL"})


def test_validate_tree_reports_missing_and_extra():
    tree = parse_sbp("(TA|(NCL|CL))")
    with pytest.raises(LabelMismatchError) as err:
        validate_tree(tree, {"TA", "NCL"})
    assert err.value.missing == frozenset()
    assert err.value.extra == {"CL"}

    with pytest.raises(LabelMismatchError) as err:
        validate_tree(tree, {"TA", "NCL", "CL", "INV"})
    assert err.value.missing == {"INV"}
    assert err.value.extra == frozenset()


def test_trees_compare_by_their_splits():
    a = parse_sbp("(TA|(NCL|CL))")
    b = parse_sbp("((TA|NCL)|CL)")
    c = parse_sbp("(TA|(CL|NCL))")
    assert a != b
    assert a != c
    assert parse_sbp("(TA | (NCL|CL))") == a


def test_random_trees_round_trip():
    labels = [f"p{i}" for i in range(48)]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, len(labels) + 1))
        nested = random_tree(rng, labels[:size])
        text = tree_text(nested)
        tree = parse_sbp(text)
        assert format_sbp(tree) == text
        again = parse_sbp(format_sbp(tree))
        assert again == tree
        labels_of = [(tree.leaf_labels[lo:mid], tree.leaf_labels[mid:hi]) for lo, mid, hi in tree.splits]
        assert labels_of == reference_splits(nested)
        assert len(tree.splits) == size - 1
        assert sorted(tree.leaf_labels) == sorted(labels[:size])


def test_splits_built_directly_match_parsed_tree():
    tree = PartitionTree(("TA", "NCL", "CL"), ((0, 1, 3), (1, 2, 3)))
    assert tree == parse_sbp("(TA|(NCL|CL))")
    assert PartitionTree(["TA", "NCL", "CL"], [[0, 1, 3], [1, 2, 3]]) == tree


ABC = ("A", "B", "C")


@pytest.mark.parametrize(
    "leaves,splits,message",
    [
        (ABC, (), "a tree of 3 leaves has 2 splits, got 0$"),  # no split at all
        ((), (), "at least 2 parts, got 0"),  # no leaf either
        (ABC, ((0, 1, 3),), "has 2 splits, got 1$"),  # (B, C) is never split
        # its sides swapped
        (ABC, ((0, 1, 3), (1, 3, 2)), r"expected a split \(1, mid, 3\) of ints, 1 < mid < 3, got \(1, 3, 2\)$"),
        (ABC, ((0, 1, 3), (1, 2, 3), (1, 2, 3)), "has 2 splits, got 3$"),
        (ABC, ((0, 2, 3), (0, 1, 3)), r"0 < mid < 2, got \(0, 1, 3\)"),  # reaches past its group
        (("A", "B"), ((0, 2, 2),), r"0 < mid < 2, got \(0, 2, 2\)"),  # an empty side
        (ABC, ((0, 0, 3), (0, 0, 3)), r"0 < mid < 3, got \(0, 0, 3\)"),  # empty sides throughout
        (ABC, ((0, 1), (1, 2, 3)), r"got \(0, 1\)"),  # a pair, not a triple
        (ABC, ((0, 1, 3, 3), (1, 2, 3)), r"got \(0, 1, 3, 3\)"),  # four entries
        (ABC, ((0, 1.0, 3), (1, 2, 3)), r"got \(0, 1.0, 3\)"),  # a float cut
        (ABC, ((0, "1", 3), (1, 2, 3)), r"got \(0, '1', 3\)"),  # a str cut
        (ABC, ((0, 1, 3), (True, 2, 3)), r"got \(True, 2, 3\)"),  # a bool is not a leaf index
        (ABC, ((0, 1, 3), (1, np.int64(2), 3)), "1 < mid < 3, got"),  # nor a numpy int
        (("A", "B"), (5,), r"0 < mid < 2, got 5$"),  # a split that is no sequence
        (("A", "B"), 5, r"0 < mid < 2, got 5$"),  # splits that are no sequence
    ],
    ids=[
        "none",
        "no_leaves",
        "missing",
        "reordered",
        "extra",
        "overreaching",
        "empty_side",
        "empty_chain",
        "short_triple",
        "long_triple",
        "float_entry",
        "str_entry",
        "bool_entry",
        "numpy_entry",
        "int_split",
        "int_splits",
    ],
)
def test_splits_that_do_not_nest_are_rejected(leaves, splits, message):
    with pytest.raises(CodaError, match=message):
        PartitionTree(leaves, splits)


@pytest.mark.parametrize("label", ["a|b", " A", "B ", "9", "(", "é"])
def test_leaves_the_dsl_cannot_write_are_rejected(label):
    # each would format to text that fails to parse, or parses to another tree
    with pytest.raises(CodaError, match=f"part label {re.escape(repr(label))} cannot be written"):
        PartitionTree((label, "B2", "c"), ((0, 1, 3), (1, 2, 3)))


def test_one_sided_tree_of_3000_parts_round_trips_in_linear_memory():
    # (((p0|p1)|p2)|...|p2999): each split's numerator is every leaf before its cut
    labels = [f"p{i}" for i in range(3000)]
    text = "(" * 2999 + labels[0] + "".join(f"|{label})" for label in labels[1:])
    tracemalloc.start()
    try:
        tree = parse_sbp(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.splits[:2] == ((0, 2999, 3000), (0, 2998, 2999))
    assert format_sbp(tree) == text
    # the leaves, D-1 int triples and D-1 coordinate names: about 0.8 MB, where
    # splits holding their leaf labels held about D**2/2 of them, 37 MB
    assert held < 2_000_000
