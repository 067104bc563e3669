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
as its leaves in text order and, per split, where its numerator starts,
its denominator starts and it ends: every group is a run of leaves.
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
    UnknownLabelError,
)

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class PartitionTree:
    """A full sequential binary partition over D leaf labels.

    ``leaf_labels`` are the leaves in DSL text order; they must pass
    :func:`check_part_labels` and be DSL labels, so :func:`format_sbp`
    round-trips.  ``splits`` are the D-1 internal nodes in pre-order, one
    per coordinate, each an int triple ``(lo, mid, hi)`` dividing
    ``leaf_labels[lo:hi]`` into the numerator ``[lo:mid]`` and the
    denominator ``[mid:hi]``; splits that do not nest are a :class:`CodaError`.
    """

    leaf_labels: tuple[str, ...]
    splits: tuple[tuple[int, int, int], ...]
    coordinate_names: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        leaves, splits = tuple(self.leaf_labels), tuple(map(tuple, self.splits))
        check_part_labels(leaves)
        for label in leaves:
            if not isinstance(label, str) or not _LABEL_RE.fullmatch(label):
                raise CodaError(f"part label {label!r} cannot be written in the partition DSL")
        if len(splits) != len(leaves) - 1:
            raise CodaError(f"a tree of {len(leaves)} leaves has {len(leaves) - 1} splits, got {len(splits)}")
        todo = [(0, len(leaves))]  # ranges of two or more leaves still to split, the next last
        for split in splits:  # with D-1 splits each cutting the range due, no range is left uncut
            lo, hi = todo.pop()
            ints = len(split) == 3 and all(type(i) is int for i in split)
            if not (ints and lo == split[0] < split[1] < split[2] == hi):
                raise CodaError(f"expected a split ({lo}, mid, {hi}) of ints, {lo} < mid < {hi}, got {split}")
            todo += [(a, b) for a, b in ((split[1], hi), (lo, split[1])) if b - a > 1]
        object.__setattr__(self, "leaf_labels", leaves)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "coordinate_names", tuple(f"y{i + 1}" for i in range(len(splits))))

    @property
    def dimension(self) -> int:
        return len(self.leaf_labels)


def parse_sbp(text: str) -> PartitionTree:
    """Parse the DSL into a :class:`PartitionTree`.

    Raises :class:`SbpSyntaxError` (citing the byte offset of the problem)
    or, for a repeated leaf, :class:`DuplicateLabelError`.
    """
    _expect(text, 0, "(")  # the root is a split, not a lone label
    leaves, splits, pos = [], [], 0
    opened = []  # per open node: [its index in splits, its first leaf, its cut once its numerator is read]
    while True:
        while (pos := _skip_ws(text, pos)) < len(text) and text[pos] == "(":
            opened.append([len(splits), len(leaves), None])
            splits.append(None)  # this split precedes those of its two sides
            pos += 1
        m = _LABEL_RE.match(text, pos)
        if m is None:
            raise SbpSyntaxError(_byte_offset(text, pos), "label or '('")
        leaves.append(m.group())
        pos = m.end()
        while opened and opened[-1][2] is not None:  # a denominator read closes its node
            i, lo, mid = opened.pop()
            splits[i] = (lo, mid, len(leaves))
            pos = _expect(text, pos, ")")
        if not opened:
            break
        opened[-1][2] = len(leaves)  # a numerator read: its denominator follows the '|'
        pos = _expect(text, pos, "|")
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise SbpSyntaxError(_byte_offset(text, pos), "end of input")
    return PartitionTree(leaves, splits)


def format_sbp(tree: PartitionTree) -> str:
    """Canonical text for a tree: no whitespace, parse/format round-trips.

    Before leaf j come a ')' for each split ending there, the '|' of the one
    split cut there (none before the first leaf) and a '(' for each split
    starting there; after the last leaf, a ')' for each split ending there.
    """
    opens = Counter(lo for lo, _, _ in tree.splits)
    closes = Counter(hi for _, _, hi in tree.splits)
    text = (
        ")" * closes[j] + "|" * (j > 0) + "(" * opens[j] + label for j, label in enumerate(tree.leaf_labels)
    )
    return "".join(text) + ")" * closes[tree.dimension]


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


def check_known(labels, known) -> None:
    """Raise UnknownLabelError listing, sorted, every label not among ``known``."""
    unknown = sorted(set(labels) - set(known))
    if unknown:
        raise UnknownLabelError(unknown)


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


def _expect(text: str, pos: int, token: str) -> int:
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != token:
        raise SbpSyntaxError(_byte_offset(text, pos), f"'{token}'")
    return pos + 1
