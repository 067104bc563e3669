"""Sequential-binary-partition tree DSL.

A partition tree names which account categories form the numerator and the
denominator of each balance coordinate.  Concrete syntax::

    node  := '(' sub '|' sub ')'
    sub   := label | node
    label := [A-Za-z_][A-Za-z0-9_]*

Whitespace between tokens is insignificant.  The left sub-expression of a
node is the numerator, the right the denominator; swapping the two sides is
how a permuted coordinate is expressed.  Coordinates are numbered by
pre-order traversal, so the root split is coordinate 1.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import (
    CodaError,
    DuplicateLabelError,
    DuplicateLeafError,
    LabelMismatchError,
    SbpSyntaxError,
    TooFewPartsError,
)

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Sub = Union["PartitionNode", str]


@dataclass(frozen=True)
class PartitionNode:
    """One binary split: numerator side vs denominator side."""

    numerator: Sub
    denominator: Sub

    def numerator_leaves(self) -> tuple[str, ...]:
        return tuple(_leaves(self.numerator))

    def denominator_leaves(self) -> tuple[str, ...]:
        return tuple(_leaves(self.denominator))


def _leaves(sub: Sub) -> Iterator[str]:
    if isinstance(sub, str):
        yield sub
    else:
        yield from _leaves(sub.numerator)
        yield from _leaves(sub.denominator)


def _internal_nodes(sub: Sub) -> Iterator[PartitionNode]:
    # pre-order: node, then numerator-side, then denominator-side
    if isinstance(sub, PartitionNode):
        yield sub
        yield from _internal_nodes(sub.numerator)
        yield from _internal_nodes(sub.denominator)


@dataclass(frozen=True)
class PartitionTree:
    """A full sequential binary partition over D leaf labels.

    ``leaf_labels`` follow left-to-right order of appearance in the DSL
    text; ``nodes`` are the D-1 internal nodes in pre-order, one per
    balance coordinate.
    """

    root: PartitionNode
    leaf_labels: tuple[str, ...] = field(init=False)
    nodes: tuple[PartitionNode, ...] = field(init=False)
    coordinate_names: tuple[str, ...] = field(init=False)
    fingerprint: int = field(init=False)

    def __post_init__(self):
        leaves = tuple(_leaves(self.root))
        seen = set()
        for label in leaves:
            if label in seen:
                raise DuplicateLeafError(label)
            seen.add(label)
        nodes = tuple(_internal_nodes(self.root))
        object.__setattr__(self, "leaf_labels", leaves)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(
            self, "coordinate_names", tuple(f"y{i + 1}" for i in range(len(nodes)))
        )
        object.__setattr__(self, "fingerprint", _fingerprint(format_sbp(self)))

    @property
    def dimension(self) -> int:
        return len(self.leaf_labels)


def _fingerprint(canonical: str) -> int:
    # stable 64-bit hash of the canonical serialization (process-independent,
    # unlike the builtin hash()); only used to detect vector/tree mispairing
    digest = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def parse_sbp(text: str) -> PartitionTree:
    """Parse the DSL into a :class:`PartitionTree`.

    Raises :class:`SbpSyntaxError` (citing the byte offset of the problem)
    or :class:`DuplicateLeafError`.
    """
    pos = _skip_ws(text, 0)
    root, pos = _parse_node(text, pos)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise SbpSyntaxError(_byte_offset(text, pos), "end of input")
    return PartitionTree(root)


def format_sbp(tree: PartitionTree) -> str:
    """Canonical text for a tree: no whitespace, parse/format round-trips."""
    return _format_sub(tree.root)


def check_part_labels(labels) -> None:
    """Raise unless the part labels are distinct and non-empty, and at least two."""
    dupes = sorted({l for l in labels if labels.count(l) > 1})
    if dupes:
        raise DuplicateLabelError(dupes)
    if any(not label for label in labels):
        raise CodaError("part labels must be non-empty")
    if len(labels) < 2:
        raise TooFewPartsError(len(labels))


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


def _format_sub(sub: Sub) -> str:
    if isinstance(sub, str):
        return sub
    return f"({_format_sub(sub.numerator)}|{_format_sub(sub.denominator)})"


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _parse_node(text: str, pos: int) -> tuple[PartitionNode, int]:
    pos = _expect(text, pos, "(")
    num, pos = _parse_sub(text, pos)
    pos = _expect(text, pos, "|")
    den, pos = _parse_sub(text, pos)
    pos = _expect(text, pos, ")")
    return PartitionNode(num, den), pos


def _parse_sub(text: str, pos: int) -> tuple[Sub, int]:
    pos = _skip_ws(text, pos)
    if pos < len(text) and text[pos] == "(":
        return _parse_node(text, pos)
    m = _LABEL_RE.match(text, pos)
    if m is None:
        raise SbpSyntaxError(_byte_offset(text, pos), "label or '('")
    return m.group(), m.end()


def _expect(text: str, pos: int, token: str) -> int:
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != token:
        raise SbpSyntaxError(_byte_offset(text, pos), f"'{token}'")
    return pos + 1
