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

from .composition import Composition
from .errors import (
    EmptyGroupError,
    OverlappingGroupsError,
    UnknownLabelError,
)

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class RatioSpec:
    """A named quotient of two disjoint, non-empty groups of parts.

    ``permuted`` marks a spec produced by invert_spec; it is a separate
    flag (rather than a name suffix) so that inverting twice returns a
    spec equal to the original whatever the name looks like.  The
    reported name, display_name, appends 'p' when the flag is set.
    """

    name: str
    numerator: tuple[str, ...]
    denominator: tuple[str, ...]
    permuted: bool = False

    def __post_init__(self):
        if not self.numerator:
            raise EmptyGroupError("numerator")
        if not self.denominator:
            raise EmptyGroupError("denominator")
        overlap = sorted(set(self.numerator) & set(self.denominator))
        if overlap:
            raise OverlappingGroupsError(overlap)

    @property
    def display_name(self) -> str:
        return self.name + "p" if self.permuted else self.name


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
    """
    index = {label: j for j, label in enumerate(labels)}
    num = sum(values[:, index[label]] for label in spec.numerator)
    den = sum(values[:, index[label]] for label in spec.denominator)
    return num / den


def eval_ratio(x: Composition, spec: RatioSpec) -> float:
    """Sum of numerator parts over sum of denominator parts: one row of ratio_column."""
    unknown = sorted(set(spec.numerator + spec.denominator) - set(x.labels))
    if unknown:
        raise UnknownLabelError(unknown)
    return float(ratio_column(x.as_array()[np.newaxis, :], x.labels, spec)[0])


def invert_spec(spec: RatioSpec) -> RatioSpec:
    """Swap numerator and denominator and toggle the permuted flag.

    A true involution: applying it twice returns a spec equal to the
    original.  The inverted spec of 'r1' reports as 'r1p'.
    """
    return RatioSpec(
        name=spec.name,
        numerator=spec.denominator,
        denominator=spec.numerator,
        permuted=not spec.permuted,
    )


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
    """The ten-firm demonstration table.

    Firms on the same ray share alpha, both ratios, and the ilr value;
    reflected firms (mg1 and mg2 swapped) swap their two ratio columns and
    flip the sign of the ilr coordinate.  ratio21 equals the height at
    which the firm's ray cuts the line x=1, ratio12 the abscissa where it
    cuts y=1.
    """
    rows = []
    for firm in _DEMO_FIRMS:
        rows.append(
            DemoRow(
                firm=firm,
                alpha_deg=ray_angle_degrees(firm),
                ratio21=firm.mg2 / firm.mg1,
                ratio12=firm.mg1 / firm.mg2,
                ilr=_SQRT_HALF * math.log(firm.mg2 / firm.mg1),
            )
        )
    return tuple(rows)
