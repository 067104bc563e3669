"""Compositional geometry: balances, the ilr transform and its inverse.

A composition is a row of strictly positive magnitudes in which only the
relative sizes carry information; a sample of n firms over D parts is one
(n, D) array.  A balance compares the geometric means of two disjoint
groups of parts on a log scale:

    balance = sqrt(r*s/(r+s)) * ln(gmean(numerator) / gmean(denominator))

with r numerator parts and s denominator parts.  The D-1 balances of a
partition tree, one per split in ``tree.splits``, are the isometric
log-ratio (ilr) coordinates; they are an orthonormal basis of the log-ratio
space, so Euclidean geometry applied to them is the Aitchison geometry of
the original magnitudes.  Every balance is computed by that formula in one
helper; the contrast matrix serves only the inverse transform.

All logarithms are natural.  All functions here are pure and operate on
immutable inputs.
"""

from __future__ import annotations

import math

import numpy as np

from . import _floattext
from .errors import LengthMismatchError
from .sbp import PartitionTree, validate_tree


def _balance(logs: np.ndarray, lo: int, mid: int, hi: int) -> np.ndarray:
    """sqrt(r*s/(r+s)) * (mean of numerator logs - mean of denominator logs), per firm.

    ``logs`` is a (D, n) array of log parts, one row per leaf in leaf
    order; rows ``lo:mid`` are the numerator and ``mid:hi`` the denominator.
    Each mean adds its rows one at a time in leaf order, starting from 0,
    like ratios.ratio_column: the one formula behind every ilr coordinate
    in the package.  Swapping the groups negates the result bit for bit.
    """
    r, s = mid - lo, hi - mid
    return math.sqrt(r * s / (r + s)) * (sum(logs[lo:mid]) / r - sum(logs[mid:hi]) / s)


def contrast_matrix(tree: PartitionTree) -> np.ndarray:
    """The read-only (D-1, D) orthonormal log-contrast matrix of a partition tree.

    Columns follow ``tree.leaf_labels``; rows sum to zero and ilr = V @ clr.
    Row i of split ``(lo, mid, hi)`` carries +sqrt(s/(r(r+s))) in its r
    numerator columns ``lo:mid``, -sqrt(r/(s(r+s))) in its s denominator
    columns ``mid:hi`` and zero elsewhere.
    """
    rows = np.zeros((len(tree.splits), tree.dimension))
    for i, (lo, mid, hi) in enumerate(tree.splits):
        r, s = mid - lo, hi - mid
        rows[i, lo:mid] = math.sqrt(s / (r * (r + s)))
        rows[i, mid:hi] = -math.sqrt(r / (s * (r + s)))
    rows.setflags(write=False)
    return rows


def ilr_inverse(Y, tree: PartitionTree) -> np.ndarray:
    """(n, D) closed rows whose ilr coordinates under ``tree`` are the rows of ``Y``.

    ``Y`` is an (n, D-1) array.  Absolute scale is not recoverable from
    log-ratios, so each row is closed to sum to one; columns follow
    ``tree.leaf_labels``.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != tree.dimension - 1:
        raise LengthMismatchError(tree.dimension - 1, Y.shape)
    clr = Y @ contrast_matrix(tree)
    # shifting each row by its largest entry keeps exp finite; closure undoes the shift
    parts = np.exp(clr - clr.max(axis=1, keepdims=True))
    return parts / parts.sum(axis=1, keepdims=True)


def ilr_matrix(values: np.ndarray, labels, tree: PartitionTree) -> np.ndarray:
    """(n, D-1) ilr coordinates of an (n, D) array whose columns follow ``labels``.

    Column i is the balance of ``tree.splits[i]``, summed by
    :func:`_balance` without a matrix product, whose kernel and so whose
    rounding would depend on the CPU.  The result is one C-order array,
    filled a block of rows at a time, each block's logs taken once and
    gathered into leaf order, so no (n, D) log matrix or per-split column
    exists whole; each row's coordinates depend on that row alone.
    """
    validate_tree(tree, labels)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(labels):
        raise LengthMismatchError(len(labels), values.shape)
    index = {label: j for j, label in enumerate(labels)}
    columns = [index[label] for label in tree.leaf_labels]
    Y = np.empty((len(values), len(tree.splits)))
    step = _floattext.block_rows(len(tree.splits))  # the rows of one formatter pass
    for i in range(0, len(values), step):
        logs = np.log(values[i : i + step]).T[columns]  # (D, rows), one row per leaf
        for k, (lo, mid, hi) in enumerate(tree.splits):
            Y[i : i + step, k] = _balance(logs, lo, mid, hi)
    return Y
