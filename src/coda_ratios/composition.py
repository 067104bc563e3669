"""Compositional geometry: balances, ilr/clr transforms, Aitchison distance.

A composition is a vector of strictly positive magnitudes in which only the
relative sizes carry information.  A balance compares the geometric means of
two disjoint groups of parts on a log scale:

    balance = sqrt(r*s/(r+s)) * ln(gmean(numerator) / gmean(denominator))

with r numerator parts and s denominator parts.  The D-1 balances of a
partition tree, one per split in ``tree.splits``, are the isometric
log-ratio (ilr) coordinates; they are an orthonormal basis of the log-ratio
space, so Euclidean geometry applied to them is the Aitchison geometry of
the original magnitudes.  Every balance, scalar or batch, is
computed by that formula in one helper; the contrast matrix serves only the
inverse transform.

All logarithms are natural.  All functions here are pure and operate on
immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CodaError,
    DuplicateFirmIdError,
    LengthMismatchError,
    NonPositivePartError,
    UnknownLabelError,
)
from .sbp import PartitionTree, check_part_labels, validate_tree


def check_known(labels, known) -> None:
    """Raise UnknownLabelError listing, sorted, every label not among ``known``."""
    unknown = sorted(set(labels) - set(known))
    if unknown:
        raise UnknownLabelError(unknown)


def check_groups(numerator, denominator) -> None:
    """Raise unless both label groups are non-empty and together pass check_part_labels.

    A label repeated within a side or shared by both is one DuplicateLabelError.
    """
    for side, group in (("numerator", numerator), ("denominator", denominator)):
        if not group:
            raise CodaError(f"{side} group is empty")
    check_part_labels(tuple(numerator) + tuple(denominator))


def check_positive(values, *labels, zero_ok=False) -> None:
    """Raise NonPositivePartError listing every magnitude that is not finite and positive.

    An entry is named by its labels, one sequence per axis of ``values``, joined
    with ':'.  With ``zero_ok`` zeros pass, for a zero policy to resolve later.
    """
    values = np.asarray(values, dtype=np.float64)
    bad = ~(((values >= 0.0) if zero_ok else (values > 0.0)) & np.isfinite(values))
    if bad.any():
        raise NonPositivePartError(
            (":".join(str(axis[i]) for axis, i in zip(labels, index)), float(values[index]))
            for index in zip(*np.nonzero(bad))
        )


def check_unique_ids(firm_ids, lines=None) -> None:
    """Raise DuplicateFirmIdError at the first repeated firm id, citing its line from ``lines``."""
    if len(set(firm_ids)) == len(firm_ids):
        return
    seen = set()
    for i, firm_id in enumerate(firm_ids):
        if firm_id in seen:
            raise DuplicateFirmIdError(None if lines is None else lines[i], firm_id)
        seen.add(firm_id)


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
        check_positive(self.values, self.labels)
        check_part_labels(self.labels)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def value(self, label: str) -> float:
        check_known((label,), self.labels)
        return self.values[self.labels.index(label)]

    def as_array(self) -> np.ndarray:
        """Values as a float array, in label order."""
        return np.asarray(self.values, dtype=float)


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


def _balance(logs: np.ndarray, index, num, den) -> np.ndarray:
    """sqrt(r*s/(r+s)) * (mean of numerator logs - mean of denominator logs), per row.

    ``logs`` is an (n, D) array of log parts; ``index`` maps a label to its
    column.  Each mean adds its columns one at a time in group order,
    starting from 0, like ratios.ratio_column: the one formula behind every
    ilr coordinate in the package.  Swapping the groups negates the result
    bit for bit.
    """
    r, s = len(num), len(den)
    num_sum = sum(logs[:, index[label]] for label in num)
    den_sum = sum(logs[:, index[label]] for label in den)
    return math.sqrt(r * s / (r + s)) * (num_sum / r - den_sum / s)


def balance(x: Composition, num_labels, den_labels) -> float:
    """One balance coordinate of ``x``; the label groups must pass check_groups."""
    num, den = tuple(num_labels), tuple(den_labels)
    check_groups(num, den)
    check_known(num + den, x.labels)
    index = {label: j for j, label in enumerate(x.labels)}
    return float(_balance(np.log(x.as_array())[np.newaxis, :], index, num, den)[0])


def contrast_matrix(tree: PartitionTree) -> np.ndarray:
    """The read-only (D-1, D) orthonormal log-contrast matrix of a partition tree.

    Columns follow ``tree.leaf_labels``; rows sum to zero and ilr = V @ clr.
    Row i carries +sqrt(s/(r(r+s))) for each numerator part and
    -sqrt(r/(s(r+s))) for each denominator part of ``tree.splits[i]``,
    zero elsewhere.
    """
    labels = tree.leaf_labels
    index = {label: i for i, label in enumerate(labels)}
    rows = np.zeros((len(tree.splits), len(labels)))
    for i, (num, den) in enumerate(tree.splits):
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
    """All D-1 balances of ``x``, one per split of ``tree``: a row of ilr_matrix."""
    row = ilr_matrix(x.as_array()[np.newaxis, :], x.labels, tree)[0]
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


def ilr_matrix(values: np.ndarray, labels, tree: PartitionTree) -> np.ndarray:
    """(n, D-1) ilr coordinates of an (n, D) array whose columns follow ``labels``.

    Column i is the balance of ``tree.splits[i]``, summed by
    :func:`_balance` without a matrix product, whose kernel and so whose
    rounding would depend on the CPU.
    """
    validate_tree(tree, labels)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(labels):
        raise LengthMismatchError(len(labels), values.shape)
    logs = np.log(values)
    index = {label: j for j, label in enumerate(labels)}
    return np.column_stack([_balance(logs, index, num, den) for num, den in tree.splits])
