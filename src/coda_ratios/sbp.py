"""Sequential-binary-partition tree DSL.

A partition tree names which account categories form the numerator and the
denominator of each balance coordinate.  Concrete syntax::

    node  := '(' sub '|' sub ')'
    sub   := label | node
    label := [A-Za-z_][A-Za-z0-9_]*

Whitespace between tokens is insignificant.  The left sub-expression of a
node is the numerator, the right the denominator; swapping the two sides is
how a permuted coordinate is expressed.  Coordinates are numbered by
pre-order traversal, so the root split is coordinate 1.  A tree is stored
as nothing but these splits, each its numerator and denominator leaves,
which is what every balance reads.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    CodaError,
    DuplicateLabelError,
    LabelMismatchError,
    SbpSyntaxError,
)

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class PartitionTree:
    """A full sequential binary partition over D leaf labels.

    ``splits`` are the D-1 internal nodes in pre-order, one per balance
    coordinate, each a ``(numerator leaves, denominator leaves)`` pair of
    label tuples.  ``leaf_labels`` are the root split's leaves, in
    left-to-right order of appearance in the DSL text.  Leaves must pass
    :func:`check_part_labels`, and splits that do not nest into one full
    partition are a :class:`CodaError`.
    """

    splits: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    leaf_labels: tuple[str, ...] = field(init=False)
    coordinate_names: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        splits = tuple((tuple(num), tuple(den)) for num, den in self.splits)
        leaves = splits[0][0] + splits[0][1] if splits else ()
        check_part_labels(leaves)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "leaf_labels", leaves)
        object.__setattr__(self, "coordinate_names", tuple(f"y{i + 1}" for i in range(len(splits))))
        format_sbp(self)  # the nesting check: raises unless the splits form one partition

    @property
    def dimension(self) -> int:
        return len(self.leaf_labels)


def parse_sbp(text: str) -> PartitionTree:
    """Parse the DSL into a :class:`PartitionTree`.

    Raises :class:`SbpSyntaxError` (citing the byte offset of the problem)
    or, for a repeated leaf, :class:`DuplicateLabelError`.
    """
    splits = []
    _expect(text, 0, "(")  # the root is a split, not a lone label
    _, pos = _parse_sub(text, 0, splits)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise SbpSyntaxError(_byte_offset(text, pos), "end of input")
    return PartitionTree(tuple(splits))


def format_sbp(tree: PartitionTree) -> str:
    """Canonical text for a tree: no whitespace, parse/format round-trips.

    Walks ``tree.splits`` in pre-order; raises :class:`CodaError` unless
    each group of two or more leaves is split by the next split, into two
    non-empty sides, and every split is used.
    """
    splits = iter(tree.splits)

    def sub(leaves):
        if len(leaves) == 1:
            return leaves[0]
        split = next(splits, None)
        if split is None or not all(split) or split[0] + split[1] != leaves:
            raise CodaError(f"splits do not nest into one partition: expected a split of {leaves}")
        return f"({sub(split[0])}|{sub(split[1])})"

    text = sub(tree.leaf_labels)
    if next(splits, None) is not None:
        raise CodaError(f"splits do not nest into one partition: more than {tree.dimension - 1} splits")
    return text


def check_part_labels(labels) -> None:
    """Raise unless the part labels are distinct and non-empty, and at least two."""
    labels = tuple(labels)
    dupes = repeats(labels)
    if dupes:
        raise DuplicateLabelError(dupes)
    if any(not label for label in labels):
        raise CodaError("part labels must be non-empty")
    if len(labels) < 2:
        raise CodaError(f"need at least 2 parts, got {len(labels)}")


def repeats(items) -> list:
    """Every item that occurs more than once in ``items``, sorted, each listed once."""
    return sorted(item for item, count in Counter(items).items() if count > 1)


def validate_tree(tree: PartitionTree, expected_labels) -> None:
    """Raise unless ``expected_labels`` pass :func:`check_part_labels` and are the leaf set.

    A label set that differs from the leaves is a :class:`LabelMismatchError`.
    """
    expected_labels = tuple(expected_labels)
    check_part_labels(expected_labels)
    expected = frozenset(expected_labels)
    actual = frozenset(tree.leaf_labels)
    if expected != actual:
        raise LabelMismatchError(missing=expected - actual, extra=actual - expected)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _parse_sub(text: str, pos: int, splits: list) -> tuple[tuple[str, ...], int]:
    """The leaves of the sub at ``pos`` and the position after it; appends its splits in pre-order."""
    pos = _skip_ws(text, pos)
    if pos < len(text) and text[pos] == "(":
        i = len(splits)
        splits.append(None)  # this split precedes those of its two sides
        num, pos = _parse_sub(text, pos + 1, splits)
        pos = _expect(text, pos, "|")
        den, pos = _parse_sub(text, pos, splits)
        splits[i] = (num, den)
        return num + den, _expect(text, pos, ")")
    m = _LABEL_RE.match(text, pos)
    if m is None:
        raise SbpSyntaxError(_byte_offset(text, pos), "label or '('")
    return (m.group(),), m.end()


def _expect(text: str, pos: int, token: str) -> int:
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != token:
        raise SbpSyntaxError(_byte_offset(text, pos), f"'{token}'")
    return pos + 1
