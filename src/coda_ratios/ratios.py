"""Classic (amount-quotient) financial ratios and the two-part demo table.

A ratio here is a quotient of sums of composition parts, e.g.
total assets over current plus non-current liabilities.  The demo table
walks ten synthetic two-part firms along a fan of rays through the origin
and tabulates, for each, the ray angle, both ratio orientations, and the
single ilr coordinate sqrt(1/2) * ln(mg2/mg1); it makes the asymmetry of
ratios versus the antisymmetry of log-ratios visible in one screen of
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composition import Composition, check_groups, check_known, pairwise_logratio
from .sbp import check_part_labels


@dataclass(frozen=True)
class RatioSpec:
    """A named quotient of two non-empty groups of parts that pass check_groups."""

    name: str
    numerator: tuple[str, ...]
    denominator: tuple[str, ...]

    def __post_init__(self):
        check_groups(self.numerator, self.denominator)


@dataclass(frozen=True)
class DemoFirm:
    """One two-magnitude firm of the built-in demonstration sector."""

    id: str
    mg1: float
    mg2: float

    def __post_init__(self):
        Composition(labels=("mg1", "mg2"), values=(self.mg1, self.mg2))


@dataclass(frozen=True)
class DemoRow:
    """A demo firm with all its computed table columns."""

    firm: DemoFirm
    alpha_deg: float
    ratio21: float
    ratio12: float
    ilr: float


def ratio_column(values: np.ndarray, labels, spec: RatioSpec) -> np.ndarray:
    """``spec`` on every row of an (n, D) array whose columns follow ``labels``.

    Parts are added one column at a time in spec order, starting from 0, for
    every ratio in the package (a matrix product may reorder the additions).
    ``labels`` must pass check_part_labels and name every part of ``spec``.
    """
    check_part_labels(labels)
    check_known(spec.numerator + spec.denominator, labels)
    index = {label: j for j, label in enumerate(labels)}
    num = sum(values[:, index[label]] for label in spec.numerator)
    den = sum(values[:, index[label]] for label in spec.denominator)
    return num / den


def eval_ratio(x: Composition, spec: RatioSpec) -> float:
    """Sum of numerator parts over sum of denominator parts: one row of ratio_column."""
    return float(ratio_column(x.as_array()[np.newaxis, :], x.labels, spec)[0])


def invert_spec(spec: RatioSpec) -> RatioSpec:
    """``spec`` with numerator and denominator swapped; applied twice it returns ``spec``."""
    return RatioSpec(name=spec.name, numerator=spec.denominator, denominator=spec.numerator)


def ray_angle_degrees(firm: DemoFirm) -> float:
    """Angle in degrees between the abscissa axis and the ray through the firm.

    Both magnitudes are positive, so the result lies strictly inside
    (0, 90) and its tangent is mg2/mg1.
    """
    return math.degrees(math.atan2(firm.mg2, firm.mg1))


# ten synthetic firms chosen symmetric about the 45-degree ray
_DEMO_FIRMS = (
    DemoFirm("firm01", 0.5, 4.0),
    DemoFirm("firm02", 1.5, 3.0),
    DemoFirm("firm03", 1.5, 2.5),
    DemoFirm("firm04", 1.8, 3.0),
    DemoFirm("firm05", 1.5, 1.5),
    DemoFirm("firm06", 3.0, 3.0),
    DemoFirm("firm07", 3.0, 1.8),
    DemoFirm("firm08", 2.5, 1.5),
    DemoFirm("firm09", 3.0, 1.5),
    DemoFirm("firm10", 4.0, 0.5),
)


def table1_demo() -> tuple[DemoRow, ...]:
    """The ten-firm demonstration table, computed with the library functions.

    Firms on the same ray share alpha, both ratios, and the ilr value;
    reflected firms (mg1 and mg2 swapped) swap their two ratio columns and
    flip the sign of the ilr coordinate.  ratio21 equals the height at
    which the firm's ray cuts the line x=1, ratio12 the abscissa where it
    cuts y=1.
    """
    ratio21 = RatioSpec(name="ratio21", numerator=("mg2",), denominator=("mg1",))
    rows = []
    for firm in _DEMO_FIRMS:
        x = Composition(labels=("mg1", "mg2"), values=(firm.mg1, firm.mg2))
        rows.append(
            DemoRow(
                firm=firm,
                alpha_deg=ray_angle_degrees(firm),
                ratio21=eval_ratio(x, ratio21),
                ratio12=eval_ratio(x, invert_spec(ratio21)),
                ilr=pairwise_logratio(x, "mg2", "mg1"),
            )
        )
    return tuple(rows)
