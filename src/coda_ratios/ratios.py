"""Classic (amount-quotient) financial ratios and the two-part demo table.

A ratio here is a quotient of sums of composition parts, e.g.
total assets over current plus non-current liabilities.  The demo table
(the paper's Table 1) walks ten synthetic two-part firms along a fan of
rays through the origin and tabulates, for each, the ray angle, both ratio
orientations, and the single ilr coordinate sqrt(1/2) * ln(mg2/mg1); it
makes the asymmetry of ratios versus the antisymmetry of log-ratios
visible in one screen of numbers.  The ten firms are one (10, 2) array,
and the table's columns come from the batch pipeline's own column
functions: ratio_column for both ratio orientations and ilr_matrix for
the log-ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composition import ilr_matrix
from .errors import CodaError
from .sbp import check_known, check_part_labels, parse_sbp


@dataclass(frozen=True)
class RatioSpec:
    """A named quotient of two non-empty groups of parts that together pass check_part_labels."""

    name: str
    numerator: tuple[str, ...]
    denominator: tuple[str, ...]

    def __post_init__(self):
        for side, group in (("numerator", self.numerator), ("denominator", self.denominator)):
            if not group:
                raise CodaError(f"{side} group is empty")
        check_part_labels(tuple(self.numerator) + tuple(self.denominator))


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


def invert_spec(spec: RatioSpec) -> RatioSpec:
    """``spec`` with numerator and denominator swapped; applied twice it returns ``spec``."""
    return RatioSpec(name=spec.name, numerator=spec.denominator, denominator=spec.numerator)


# ten synthetic firms chosen symmetric about the 45-degree ray, as (mg1, mg2)
_DEMO_MAGNITUDES = (
    (0.5, 4.0),
    (1.5, 3.0),
    (1.5, 2.5),
    (1.8, 3.0),
    (1.5, 1.5),
    (3.0, 3.0),
    (3.0, 1.8),
    (2.5, 1.5),
    (3.0, 1.5),
    (4.0, 0.5),
)


def table1_demo() -> tuple[tuple[str, ...], dict[str, np.ndarray]]:
    """The ten-firm demonstration table: firm ids and one column per field.

    The columns are mg1, mg2, alpha_deg (the ray angle in degrees, whose
    tangent is mg2/mg1), ratio21, ratio12 and ilr, computed for all ten
    firms at once by the pipeline's column functions.  Firms on the same
    ray share alpha, both ratios, and the ilr value; reflected firms (mg1
    and mg2 swapped) swap their two ratio columns and flip the sign of the
    ilr coordinate.  ratio21 equals the height at which the firm's ray
    cuts the line x=1, ratio12 the abscissa where it cuts y=1.
    """
    labels = ("mg1", "mg2")
    values = np.array(_DEMO_MAGNITUDES)
    ratio21 = RatioSpec(name="ratio21", numerator=("mg2",), denominator=("mg1",))
    firm_ids = tuple(f"firm{i:02d}" for i in range(1, len(values) + 1))
    alpha = [math.degrees(math.atan2(mg2, mg1)) for mg1, mg2 in _DEMO_MAGNITUDES]
    return firm_ids, {
        "mg1": values[:, 0],
        "mg2": values[:, 1],
        "alpha_deg": np.array(alpha),
        "ratio21": ratio_column(values, labels, ratio21),
        "ratio12": ratio_column(values, labels, invert_spec(ratio21)),
        "ilr": ilr_matrix(values, labels, parse_sbp("(mg2|mg1)"))[:, 0],
    }
