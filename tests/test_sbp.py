import numpy as np
import pytest

from coda_ratios import PartitionTree, format_sbp, parse_sbp, validate_tree
from coda_ratios.errors import CodaError, DuplicateLabelError, LabelMismatchError, SbpSyntaxError

from conftest import random_tree, tree_text


def test_two_part_tree():
    tree = parse_sbp("(A|B)")
    assert tree.leaf_labels == ("A", "B")
    assert tree.dimension == 2
    assert tree.coordinate_names == ("y1",)
    assert tree.splits == ((("A",), ("B",)),)


def test_three_part_tree_preorder():
    tree = parse_sbp("(TA|(NCL|CL))")
    assert tree.leaf_labels == ("TA", "NCL", "CL")
    assert tree.coordinate_names == ("y1", "y2")
    # root balance first, nested balance second
    assert tree.splits == ((("TA",), ("NCL", "CL")), (("NCL",), ("CL",)))


def test_preorder_on_deeper_tree():
    tree = parse_sbp("(((A|B)|C)|(D|E))")
    assert tree.splits == (
        (("A", "B", "C"), ("D", "E")),
        (("A", "B"), ("C",)),
        (("A",), ("B",)),
        (("D",), ("E",)),
    )
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


def _reference_splits(sub):
    """Pre-order (numerator leaves, denominator leaves) of a nested-tuple tree."""

    def leaves(s):
        return (s,) if isinstance(s, str) else leaves(s[0]) + leaves(s[1])

    if isinstance(sub, str):
        return []
    return [(leaves(sub[0]), leaves(sub[1]))] + _reference_splits(sub[0]) + _reference_splits(sub[1])


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
        assert tree.splits == tuple(_reference_splits(nested))
        assert len(tree.splits) == size - 1
        assert sorted(tree.leaf_labels) == sorted(labels[:size])


def test_splits_built_directly_match_parsed_tree():
    splits = ((("TA",), ("NCL", "CL")), (("NCL",), ("CL",)))
    assert PartitionTree(splits) == parse_sbp("(TA|(NCL|CL))")
    assert PartitionTree([[["TA"], ["NCL", "CL"]], [["NCL"], ["CL"]]]) == PartitionTree(splits)


A_BC = (("A",), ("B", "C"))


@pytest.mark.parametrize(
    "splits,message",
    [
        ((), "at least 2 parts, got 0"),  # no split at all
        ((A_BC,), r"expected a split of \('B', 'C'\)"),  # (B, C) is never split
        ((A_BC, (("C",), ("B",))), "expected a split of"),  # its sides out of order
        ((A_BC, (("B",), ("C",)), (("B",), ("C",))), "more than 2 splits"),
        (((("A", "B"), ("C",)), A_BC), "expected a split of"),  # reaches past its group
        (((("A", "B"), ()), (("A",), ("B",))), "expected a split of"),  # an empty side
        ((((), ("A", "B")), ((), ("A", "B"))), "expected a split of"),  # empty sides throughout
    ],
    ids=["none", "missing", "reordered", "extra", "overreaching", "empty_side", "empty_chain"],
)
def test_splits_that_do_not_nest_are_rejected(splits, message):
    with pytest.raises(CodaError, match=message):
        PartitionTree(splits)
