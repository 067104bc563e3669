"""Compositional geometry: balances, ilr/clr transforms, Aitchison distance.

A composition is a vector of strictly positive magnitudes in which only the
relative sizes carry information.  A balance compares the geometric means of
two disjoint groups of parts on a log scale:

    balance = sqrt(r*s/(r+s)) * ln(gmean(numerator) / gmean(denominator))

with r numerator parts and s denominator parts.  The D-1 balances defined by
a partition tree are the isometric log-ratio (ilr) coordinates; they are an
orthonormal basis of the log-ratio space, so Euclidean geometry applied to
them is the Aitchison geometry of the original magnitudes.

All logarithms are natural.  All functions here are pure and operate on
immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CodaError,
    DuplicateLabelError,
    EmptyGroupError,
    LengthMismatchError,
    NonPositivePartError,
    OverlappingGroupsError,
    TooFewPartsError,
    UnknownLabelError,
)
from .sbp import PartitionTree, validate_tree


@dataclass(frozen=True)
class Composition:
    """Labelled strictly positive parts; rejects zeros, negatives and dupes."""

    labels: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.labels) != len(self.values):
            raise LengthMismatchError(len(self.labels), len(self.values))
        bad = [
            (label, value)
            for label, value in zip(self.labels, self.values)
            if not (value > 0 and math.isfinite(value))
        ]
        if bad:
            raise NonPositivePartError(bad)
        dupes = sorted({l for l in self.labels if self.labels.count(l) > 1})
        if dupes:
            raise DuplicateLabelError(dupes)
        if any(not label for label in self.labels):
            raise CodaError("part labels must be non-empty")
        if len(self.labels) < 2:
            raise TooFewPartsError(len(self.labels))

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def value(self, label: str) -> float:
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise UnknownLabelError([label]) from None

    def as_array(self, label_order=None) -> np.ndarray:
        """Values as a float array, optionally reordered to ``label_order``."""
        if label_order is None:
            return np.asarray(self.values, dtype=float)
        index = {label: i for i, label in enumerate(self.labels)}
        unknown = [l for l in label_order if l not in index]
        if unknown:
            raise UnknownLabelError(unknown)
        return np.asarray([self.values[index[l]] for l in label_order], dtype=float)


@dataclass(frozen=True)
class BalanceVector:
    """The ilr coordinates of one composition under a given tree."""

    names: tuple[str, ...]
    values: tuple[float, ...]
    tree_fingerprint: int

    @property
    def coords(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.names, self.values))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)


def validate_composition(raw) -> Composition:
    """Build a :class:`Composition` from (label, value) pairs.

    All offending parts are reported at once: zero or negative values raise
    :class:`NonPositivePartError` naming every one of them.
    """
    pairs = list(raw)
    return Composition(
        labels=tuple(label for label, _ in pairs),
        values=tuple(value for _, value in pairs),
    )


def _group_arrays(x: Composition, num_labels, den_labels):
    num = tuple(dict.fromkeys(num_labels))
    den = tuple(dict.fromkeys(den_labels))
    if not num:
        raise EmptyGroupError("numerator")
    if not den:
        raise EmptyGroupError("denominator")
    overlap = set(num) & set(den)
    if overlap:
        raise OverlappingGroupsError(sorted(overlap))
    unknown = [l for l in num + den if l not in x.labels]
    if unknown:
        raise UnknownLabelError(sorted(set(unknown)))
    return x.as_array(num), x.as_array(den)


def balance(x: Composition, num_labels, den_labels) -> float:
    """One balance coordinate of ``x`` for the given disjoint label groups.

    Swapping the two groups flips the sign and changes nothing else; the
    subtraction below makes that exact in floating point as well.
    """
    num, den = _group_arrays(x, num_labels, den_labels)
    r, s = len(num), len(den)
    scale = math.sqrt(r * s / (r + s))
    return scale * (float(np.mean(np.log(num))) - float(np.mean(np.log(den))))


def pairwise_logratio(x: Composition, a: str, b: str) -> float:
    """sqrt(1/2) * ln(x_a / x_b), the two-part balance of labels a and b."""
    if a == b:
        raise CodaError(f"pairwise log-ratio needs two distinct labels, got {a!r} twice")
    va, vb = x.value(a), x.value(b)
    return math.sqrt(0.5) * math.log(va / vb)


def contrast_matrix(tree: PartitionTree) -> np.ndarray:
    """The read-only (D-1, D) orthonormal log-contrast matrix of a partition tree.

    Columns follow ``tree.leaf_labels``; rows sum to zero and ilr = V @ clr.
    Row i carries +sqrt(s/(r(r+s))) for each numerator part and
    -sqrt(r/(s(r+s))) for each denominator part of internal node i
    (pre-order), zero elsewhere.
    """
    labels = tree.leaf_labels
    index = {label: i for i, label in enumerate(labels)}
    rows = np.zeros((len(tree.nodes), len(labels)))
    for i, node in enumerate(tree.nodes):
        num = node.numerator_leaves()
        den = node.denominator_leaves()
        r, s = len(num), len(den)
        for label in num:
            rows[i, index[label]] = math.sqrt(s / (r * (r + s)))
        for label in den:
            rows[i, index[label]] = -math.sqrt(r / (s * (r + s)))
    rows.setflags(write=False)
    return rows


def clr_transform(x: Composition) -> np.ndarray:
    """Centred log-ratios: ln(x_i / gmean(x)); components sum to zero."""
    logs = np.log(x.as_array())
    return logs - logs.mean()


def ilr_transform(x: Composition, tree: PartitionTree) -> BalanceVector:
    """All D-1 balances of ``x``, one per internal node in pre-order.

    Computed as one row of :func:`ilr_matrix`, the formula the
    dataset-level path uses.
    """
    validate_tree(tree, x.labels)
    row = ilr_matrix(x.as_array(tree.leaf_labels)[np.newaxis, :], tree)[0]
    return BalanceVector(
        names=tree.coordinate_names,
        values=tuple(row.tolist()),
        tree_fingerprint=tree.fingerprint,
    )


def ilr_inverse(y, tree: PartitionTree) -> Composition:
    """The unit-sum composition whose ilr coordinates are ``y``.

    Absolute scale is not recoverable from log-ratios, so the result is
    normalized to sum to one.  ``y`` may be a :class:`BalanceVector` (its
    fingerprint is then checked against ``tree``) or any plain sequence.
    """
    if isinstance(y, BalanceVector):
        if y.tree_fingerprint != tree.fingerprint:
            raise CodaError(
                f"balance vector fingerprint {y.tree_fingerprint:#018x} "
                f"does not match tree {tree.fingerprint:#018x}"
            )
        coords = y.as_array()
    else:
        coords = np.asarray(y, dtype=float)
    expected = tree.dimension - 1
    if coords.shape != (expected,):
        raise LengthMismatchError(expected, coords.size)
    clr = contrast_matrix(tree).T @ coords
    parts = np.exp(clr)
    parts /= parts.sum()
    return Composition(labels=tree.leaf_labels, values=tuple(parts))


def aitchison_distance(x: Composition, z: Composition, tree: PartitionTree) -> float:
    """Euclidean distance between ilr coordinate vectors.

    The value does not depend on which valid tree over the same labels is
    used (orthonormal bases differ by a rotation).
    """
    dx = ilr_transform(x, tree).as_array() - ilr_transform(z, tree).as_array()
    return float(np.linalg.norm(dx))


def ilr_matrix(values: np.ndarray, tree: PartitionTree) -> np.ndarray:
    """ilr coordinates for an (n, D) array whose columns follow ``tree.leaf_labels``.

    clr of each row times the transposed contrast matrix; the one formula
    behind every ilr coordinate in the package.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != tree.dimension:
        raise LengthMismatchError(tree.dimension, values.shape)
    logs = np.log(values)
    clr = logs - logs.mean(axis=1, keepdims=True)
    return clr @ contrast_matrix(tree).T
